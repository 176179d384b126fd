// The concurrency battery for the sharded LRU cache (DESIGN §14): a
// single-threaded differential test against an in-test strict-LRU
// reference model (exact below capacity, and exact over capacity on one
// shard), recency-based eviction, evicted values freed at eviction and
// outside the shard lock, linearizability-style randomized concurrent
// schedules (every observed value was inserted for exactly that key; the
// capacity bound holds at every observation point), a 16-thread mixed-verb soak (CacheSoak.*, also
// registered under `ctest -L soak`), and the serve-layer contract: warm
// cache hits answer the same bytes as cold misses, from any number of
// threads. The whole file also compiles into the ThreadSanitizer
// binary (tests/CMakeLists.txt), which checks that every access is
// synchronized by the shard locks.
#include <algorithm>
#include <atomic>
#include <cstdint>
#include <list>
#include <memory>
#include <optional>
#include <random>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "arch/arch_registry.hpp"
#include "common/concurrent_cache.hpp"
#include "serve/service.hpp"

namespace gpuhms {
namespace {

// TSan costs ~10x; shrink the randomized schedules there, same shapes.
#if defined(__SANITIZE_THREAD__)
constexpr int kSoakOpsPerThread = 2500;
constexpr int kScheduleOps = 4000;
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer)
constexpr int kSoakOpsPerThread = 2500;
constexpr int kScheduleOps = 4000;
#else
constexpr int kSoakOpsPerThread = 20000;
constexpr int kScheduleOps = 20000;
#endif
#else
constexpr int kSoakOpsPerThread = 20000;
constexpr int kScheduleOps = 20000;
#endif

// --- sharding policy ---------------------------------------------------------

TEST(ConcurrentCache, ShardPolicyKeepsPerShardCapacityMeaningful) {
  EXPECT_EQ(concurrent_cache_shards(0), 1u);
  EXPECT_EQ(concurrent_cache_shards(1), 1u);
  EXPECT_EQ(concurrent_cache_shards(15), 1u);
  EXPECT_EQ(concurrent_cache_shards(16), 2u);
  EXPECT_EQ(concurrent_cache_shards(64), 8u);
  EXPECT_EQ(concurrent_cache_shards(128), 16u);
  EXPECT_EQ(concurrent_cache_shards(4096), 16u);

  // Per-shard capacities partition the global bound exactly.
  for (const std::size_t cap : {1u, 7u, 16u, 48u, 100u, 4096u}) {
    ConcurrentCache<int, int> cache(cap);
    std::size_t sum = 0;
    for (std::size_t s = 0; s < cache.num_shards(); ++s)
      sum += cache.shard_capacity(s);
    EXPECT_EQ(sum, cap) << "capacity " << cap;
  }
}

TEST(ConcurrentCache, CapacityZeroDisablesCaching) {
  ConcurrentCache<std::string, int> cache(0);
  cache.put("a", 1);
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_EQ(cache.get("a"), std::nullopt);
  EXPECT_EQ(cache.stats().inserts, 0u);
  EXPECT_EQ(cache.stats().misses, 1u);
}

// --- single-threaded differential vs a strict-LRU reference model ------------

// Strict LRU over a list (MRU first), counting exactly what
// ConcurrentCache::stats() counts. Slow and obviously correct.
struct ReferenceLru {
  explicit ReferenceLru(std::size_t cap) : cap(cap) {}
  std::size_t cap;
  std::list<std::pair<int, int>> entries;  // MRU first
  CacheCounters stats;

  std::size_t size() const { return entries.size(); }
  std::optional<int> get(int k) {
    for (auto it = entries.begin(); it != entries.end(); ++it) {
      if (it->first == k) {
        ++stats.hits;
        entries.splice(entries.begin(), entries, it);
        return it->second;
      }
    }
    ++stats.misses;
    return std::nullopt;
  }
  void put(int k, int v) {
    if (cap == 0) return;
    for (auto it = entries.begin(); it != entries.end(); ++it) {
      if (it->first == k) {
        ++stats.updates;
        it->second = v;
        entries.splice(entries.begin(), entries, it);
        return;
      }
    }
    if (entries.size() >= cap) {
      ++stats.evictions;
      entries.pop_back();
    }
    ++stats.inserts;
    entries.emplace_front(k, v);
  }
};

// Below capacity a sharded cache must be indistinguishable from the model:
// no evictions ever fire, so every get and every counter matches. A
// single-shard cache is strict LRU, so it matches the model exactly over
// capacity too, eviction victims included.
TEST(ConcurrentCache, MatchesLruReferenceModelWhileUnderCapacity) {
  struct Case {
    std::size_t cap;
    int max_key;
  };
  ASSERT_EQ(concurrent_cache_shards(7), 1u);
  for (const Case c : {Case{128, 63}, Case{7, 15}}) {
    std::mt19937 rng(20260809);
    ConcurrentCache<int, int> cache(c.cap);
    ReferenceLru ref(c.cap);
    std::uniform_int_distribution<int> key(0, c.max_key);
    for (int step = 0; step < 10000; ++step) {
      const int k = key(rng);
      if (rng() % 2 == 0) {
        EXPECT_EQ(cache.get(k), ref.get(k))
            << "cap " << c.cap << " step " << step;
      } else {
        const int v = static_cast<int>(rng() % 1000);
        cache.put(k, v);
        ref.put(k, v);
      }
      ASSERT_LE(cache.size(), c.cap);
    }
    const CacheCounters a = cache.stats();
    const CacheCounters b = ref.stats;
    EXPECT_EQ(a.hits, b.hits) << "cap " << c.cap;
    EXPECT_EQ(a.misses, b.misses) << "cap " << c.cap;
    EXPECT_EQ(a.inserts, b.inserts) << "cap " << c.cap;
    EXPECT_EQ(a.updates, b.updates) << "cap " << c.cap;
    EXPECT_EQ(a.evictions, b.evictions) << "cap " << c.cap;
    if (static_cast<std::size_t>(c.max_key) < c.cap)
      EXPECT_EQ(b.evictions, 0u);  // keys fit: no eviction ever fires
    else
      EXPECT_GT(b.evictions, 0u);  // the over-capacity run really evicted
    EXPECT_EQ(cache.size(), ref.size()) << "cap " << c.cap;
  }
}

// With several shards the eviction *choice* differs from a global LRU (each
// shard evicts its own least recently used entry) but the semantics may
// not: a single-threaded observer must read exactly the last value it put
// for a key (or a miss), the capacity bound holds at every step, and the
// stats identity inserts - evictions == size survives.
TEST(ConcurrentCache, EvictionsPreserveSemanticsAndCapacityBound) {
  std::mt19937 rng(7);
  constexpr std::size_t kCap = 32;
  ConcurrentCache<int, std::string> cache(kCap);
  std::vector<std::optional<std::string>> last_put(128);
  std::uint64_t gets = 0, hits = 0;
  for (int step = 0; step < 20000; ++step) {
    const int k = static_cast<int>(rng() % 128);
    if (rng() % 2 == 0) {
      ++gets;
      const std::optional<std::string> got = cache.get(k);
      if (got.has_value()) {
        ++hits;
        ASSERT_TRUE(last_put[static_cast<std::size_t>(k)].has_value());
        // Never a stale, torn, or cross-key value.
        ASSERT_EQ(*got, *last_put[static_cast<std::size_t>(k)])
            << "step " << step;
      }
    } else {
      const std::string v =
          std::to_string(k) + ":" + std::to_string(rng() % 1000);
      cache.put(k, v);
      last_put[static_cast<std::size_t>(k)] = v;
    }
    ASSERT_LE(cache.size(), kCap);
  }
  const CacheCounters s = cache.stats();
  EXPECT_EQ(s.hits, hits);
  EXPECT_EQ(s.misses, gets - hits);
  EXPECT_GT(s.evictions, 0u);  // the schedule really churned
  EXPECT_EQ(s.inserts - s.evictions, cache.size());
}

// An evicted value is freed by the put() that evicts it: a small cache of
// large values (the serve kernel cache: 16 profiled predictors) keeps at
// most its capacity alive, never a backlog of evicted values on top.
struct Tracked {
  static inline int alive = 0;
  Tracked() { ++alive; }
  ~Tracked() { --alive; }
  Tracked(const Tracked&) = delete;
  Tracked& operator=(const Tracked&) = delete;
};

TEST(ConcurrentCache, EvictedValuesAreFreedAtEviction) {
  constexpr std::size_t kCap = 16;
  Tracked::alive = 0;
  {
    ConcurrentCache<int, std::shared_ptr<const Tracked>> cache(kCap);
    int peak = 0;
    for (int round = 0; round < 3; ++round) {
      for (int k = 0; k < 68; ++k) {
        cache.put(k, std::make_shared<const Tracked>());
        peak = std::max(peak, Tracked::alive);
        ASSERT_LE(Tracked::alive, static_cast<int>(kCap))
            << "round " << round << " key " << k;
      }
    }
    EXPECT_GT(cache.stats().evictions, 100u);  // the cache really churned
    EXPECT_EQ(peak, static_cast<int>(kCap));   // and really filled
  }
  EXPECT_EQ(Tracked::alive, 0);  // nothing leaked
}

// Evicted and replaced values are destroyed after the shard lock is
// released. A value whose destructor calls back into the same (single-shard)
// cache proves it: were it destroyed under the lock, the callback would
// self-deadlock.
struct CallsBack;
using CallbackCache = ConcurrentCache<int, std::shared_ptr<const CallsBack>>;
struct CallsBack {
  static inline CallbackCache* cache = nullptr;
  static inline int callbacks = 0;
  ~CallsBack() {
    if (cache == nullptr) return;
    EXPECT_EQ(cache->get(-1), std::nullopt);
    cache->put(-2, nullptr);
    ++callbacks;
  }
};

TEST(ConcurrentCache, ValueDestructorMayCallBackIntoTheCache) {
  CallbackCache cache(7);
  ASSERT_EQ(cache.num_shards(), 1u);
  CallsBack::cache = &cache;
  CallsBack::callbacks = 0;
  for (int k = 0; k < 20; ++k)
    cache.put(k, std::make_shared<const CallsBack>());
  cache.put(19, std::make_shared<const CallsBack>());  // replaces a value
  const int callbacks = CallsBack::callbacks;
  CallsBack::cache = nullptr;  // the cache's own destructor must not call back
  // Every eviction and the replacement ran a destructor that re-entered the
  // cache. The callbacks' own put(-2) evicted more CallsBack values, whose
  // destructors re-entered again.
  EXPECT_GE(callbacks, 14);
  EXPECT_LE(cache.size(), 7u);
}

// A key read before each evicting put is never the least recently used
// entry, so strict LRU keeps it however long the churn runs.
TEST(ConcurrentCache, RecentlyReadKeySurvivesEviction) {
  ConcurrentCache<int, int> cache(7);  // single shard (policy floor is 8)
  ASSERT_EQ(cache.num_shards(), 1u);
  for (int k = 0; k < 7; ++k) cache.put(k, k);
  for (int k = 7; k < 40; ++k) {
    ASSERT_EQ(cache.get(0), 0) << "recently read key evicted at k=" << k;
    cache.put(k, k);  // forces one eviction per put
  }
  EXPECT_EQ(cache.get(0), 0);
  EXPECT_EQ(cache.stats().evictions, 33u);
}

// --- randomized concurrent schedules (linearizability-style) -----------------

// Value encoding for concurrent runs: thread t writes key*kThreads + t.
// Any observed value must decode back to the key it was read under and a
// real thread id — i.e. it was genuinely inserted for that key at some
// point (no torn values, no cross-key leakage, no resurrection of freed
// memory — ASan/TSan turn the latter into hard failures).
constexpr int kSchedThreads = 8;

TEST(ConcurrentCache, RandomConcurrentSchedulesKeepInvariants) {
  for (const unsigned seed : {1u, 2u, 3u}) {
    constexpr std::size_t kCap = 64;
    ConcurrentCache<int, std::string> cache(kCap);
    std::atomic<bool> failed{false};
    std::vector<std::thread> threads;
    threads.reserve(kSchedThreads);
    for (int t = 0; t < kSchedThreads; ++t) {
      threads.emplace_back([&cache, &failed, t, seed, kCap] {
        std::mt19937 rng(seed * 1000 + static_cast<unsigned>(t));
        const int ops = kScheduleOps / kSchedThreads;
        for (int i = 0; i < ops && !failed.load(); ++i) {
          const int k = static_cast<int>(rng() % 96);
          if (rng() % 100 < 60) {
            const std::optional<std::string> got = cache.get(k);
            if (got.has_value()) {
              const std::size_t colon = got->find(':');
              if (colon == std::string::npos ||
                  got->substr(0, colon) != std::to_string(k) ||
                  std::stoi(got->substr(colon + 1)) >= kSchedThreads) {
                ADD_FAILURE() << "corrupt value for key " << k << ": "
                              << *got;
                failed.store(true);
                return;
              }
            }
          } else {
            cache.put(k, std::to_string(k) + ":" + std::to_string(t));
          }
          // The capacity bound holds at every observation point.
          const std::size_t size = cache.size();
          if (size > kCap) {
            ADD_FAILURE() << "capacity bound broken: " << size << " > "
                          << kCap;
            failed.store(true);
            return;
          }
        }
      });
    }
    for (std::thread& th : threads) th.join();
    ASSERT_FALSE(failed.load()) << "seed " << seed;

    const CacheCounters s = cache.stats();
    EXPECT_EQ(s.inserts - s.evictions, cache.size()) << "seed " << seed;
    EXPECT_GT(s.hits, 0u);
  }
}

// --- 16-thread mixed-verb soak (ctest -L soak via CacheSoak.*) ---------------

TEST(CacheSoak, SixteenThreadsMixedVerbs) {
  constexpr int kThreads = 16;
  constexpr std::size_t kCap = 256;
  ConcurrentCache<int, std::string> cache(kCap);
  std::atomic<bool> failed{false};
  std::atomic<std::uint64_t> observed_hits{0};
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      std::mt19937 rng(static_cast<unsigned>(9000 + t));
      CacheCounters last{};  // per-thread monotonicity of the shared counters
      for (int i = 0; i < kSoakOpsPerThread && !failed.load(); ++i) {
        const int verb = static_cast<int>(rng() % 100);
        const int k = static_cast<int>(rng() % 512);
        if (verb < 65) {
          const std::optional<std::string> got = cache.get(k);
          if (got.has_value()) {
            observed_hits.fetch_add(1, std::memory_order_relaxed);
            const std::size_t colon = got->find(':');
            if (colon == std::string::npos ||
                got->substr(0, colon) != std::to_string(k)) {
              ADD_FAILURE() << "corrupt value for key " << k << ": " << *got;
              failed.store(true);
              return;
            }
          }
        } else if (verb < 92) {
          cache.put(k, std::to_string(k) + ":" + std::to_string(t));
        } else {
          // Observer verbs: the capacity bound and counter monotonicity
          // must hold mid-flight, not just at quiescence.
          const std::size_t size = cache.size();
          const CacheCounters now = cache.stats();
          if (size > kCap || now.hits < last.hits ||
              now.misses < last.misses || now.inserts < last.inserts ||
              now.updates < last.updates || now.evictions < last.evictions) {
            ADD_FAILURE() << "snapshot went backwards or over-bound "
                          << "(size " << size << "/" << kCap << ")";
            failed.store(true);
            return;
          }
          last = now;
        }
      }
    });
  }
  for (std::thread& th : threads) th.join();
  ASSERT_FALSE(failed.load());
  EXPECT_GT(observed_hits.load(), 0u);
  const CacheCounters s = cache.stats();
  EXPECT_EQ(s.inserts - s.evictions, cache.size());
  EXPECT_GT(s.evictions, 0u);  // 512 keys over 256 slots: churn happened
}

// --- serve contract: warm hits answer the cold bytes -------------------------

std::vector<std::string> mixed_request_lines() {
  std::vector<std::string> lines;
  int id = 0;
  for (const char* bench : {"triad", "spmv"}) {
    for (const char* placement : {"G,G,G", "T,G,G", "G,S,G"}) {
      for (int rep = 0; rep < 2; ++rep)
        lines.push_back("{\"id\":" + std::to_string(id++) +
                        ",\"op\":\"predict\",\"benchmark\":\"" +
                        std::string(bench) + "\",\"placement\":\"" +
                        placement + "\"}");
    }
    lines.push_back("{\"id\":" + std::to_string(id++) +
                    ",\"op\":\"predict_batch\",\"benchmark\":\"" +
                    std::string(bench) +
                    "\",\"placements\":[\"G,G,G\",\"T,G,G\"]}");
    lines.push_back("{\"id\":" + std::to_string(id++) +
                    ",\"op\":\"search\",\"benchmark\":\"" +
                    std::string(bench) +
                    "\",\"algo\":\"exhaustive\",\"cap\":16}");
  }
  return lines;
}

TEST(ConcurrentCacheServe, WarmResponsesByteIdenticalToCold) {
  const std::vector<std::string> lines = mixed_request_lines();
  serve::ServeOptions options;
  options.prediction_cache_capacity = 8;  // tiny: force eviction traffic
  serve::PredictionService service(options);
  const std::vector<std::string> cold = service.handle_pipeline(lines);
  const std::vector<std::string> warm = service.handle_pipeline(lines);
  EXPECT_EQ(cold, warm) << "warm hits changed bytes";
  EXPECT_GT(service.stats().prediction_cache.hits, 0u);
}

// --- cross-arch fingerprints and arch-tagged concurrency ---------------------

// Prediction-cache keys embed fingerprint(arch); two backends (or two
// variants of one backend) colliding there would silently serve one arch's
// cycles for another. Every registered backend must digest distinctly, and
// the digest must cover the address map — two archs differing ONLY in
// addr_map are different machines to the DRAM model.
TEST(ConcurrentCacheServe, CrossArchFingerprintsNeverAlias) {
  std::vector<std::pair<std::string, std::uint64_t>> digests;
  for (const std::string& name : ArchRegistry::builtin().names()) {
    digests.emplace_back(
        name, fingerprint(ArchRegistry::builtin().find(name)->arch));
  }
  for (std::size_t i = 0; i < digests.size(); ++i)
    for (std::size_t j = i + 1; j < digests.size(); ++j)
      EXPECT_NE(digests[i].second, digests[j].second)
          << digests[i].first << " vs " << digests[j].first;

  const GpuArch& base = kepler_arch();
  // Same SMs, latencies, DRAM timing — only the bit roles move.
  GpuArch swizzled = base;
  swizzled.addr_map.bank_xor_bits = {18, 19, 20, 21, 22, 23, 24};
  ASSERT_TRUE(validate(swizzled).ok());
  EXPECT_NE(fingerprint(swizzled), fingerprint(base));

  GpuArch swapped = base;
  std::swap(swapped.addr_map.column_bits.front(),
            swapped.addr_map.row_bits.front());
  ASSERT_TRUE(validate(swapped).ok());
  EXPECT_NE(fingerprint(swapped), fingerprint(base));

  // Same positions, different role order: extract_bits is order-sensitive,
  // so the digest must be too.
  GpuArch reordered = base;
  std::reverse(reordered.addr_map.bank_bits.begin(),
               reordered.addr_map.bank_bits.end());
  ASSERT_TRUE(validate(reordered).ok());
  EXPECT_NE(fingerprint(reordered), fingerprint(base));
}

// Concurrent clients mixing arch-tagged and untagged requests against ONE
// service must each read exactly the bytes the quiet sequential service
// produces — per-arch kernel entries and cache keys may never bleed across
// threads. Also runs inside the TSan binary.
TEST(ConcurrentCacheServe, ConcurrentArchTaggedRequestsAreByteIdentical) {
  std::vector<std::string> lines;
  for (const char* arch : {"", "kepler", "maxwell", "hbm2"}) {
    for (const char* placement : {"G,G,G", "T,G,G", "G,S,G"}) {
      std::string line = "{\"id\":0,\"op\":\"predict\",\"benchmark\":"
                         "\"triad\",\"placement\":\"" +
                         std::string(placement) + "\"";
      if (arch[0] != '\0') line += ",\"arch\":\"" + std::string(arch) + "\"";
      line += "}";
      lines.push_back(std::move(line));
    }
  }
  std::vector<std::string> expected;
  {
    serve::PredictionService reference{serve::ServeOptions{}};
    for (const std::string& line : lines)
      expected.push_back(reference.handle_line(line));
  }
  serve::PredictionService service{serve::ServeOptions{}};
  constexpr int kThreads = 8;
  std::atomic<bool> failed{false};
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int rep = 0; rep < 3 && !failed.load(); ++rep) {
        for (std::size_t i = 0; i < lines.size(); ++i) {
          // Each thread walks the lines at its own rotation, so builds of
          // different (benchmark, arch) entries race for real.
          const std::size_t at =
              (i + static_cast<std::size_t>(t)) % lines.size();
          const std::string got = service.handle_line(lines[at]);
          if (got != expected[at]) {
            ADD_FAILURE() << "thread " << t << " line " << at
                          << " diverged:\n got: " << got
                          << "\nwant: " << expected[at];
            failed.store(true);
            return;
          }
        }
      }
    });
  }
  for (std::thread& th : threads) th.join();
  ASSERT_FALSE(failed.load());
}

}  // namespace
}  // namespace gpuhms
