// Concurrency soak for the serving layer: many client threads hammer one
// PredictionService with mixed requests and every response must come back
// well-formed, matched to its request id (no lost / duplicated / misrouted
// responses), with the caches never exceeding their bounds. Runs in the
// plain test suite AND — via tests/CMakeLists.txt — inside the
// ThreadSanitizer binary (test_search_parallel_tsan) and any GPUHMS_SANITIZE
// build, which is where a locking mistake in the service would surface.
#include <atomic>
#include <cstdint>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "kernel/placement.hpp"
#include "serve/json.hpp"
#include "serve/service.hpp"
#include "workloads/workloads.hpp"

namespace gpuhms {
namespace {

// TSan instrumentation costs ~10x; keep the per-thread request count high
// enough to churn the caches but bounded for the sanitizer run.
#if defined(__SANITIZE_THREAD__)
constexpr int kRequestsPerThread = 200;
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer)
constexpr int kRequestsPerThread = 200;
#else
constexpr int kRequestsPerThread = 500;
#endif
#else
constexpr int kRequestsPerThread = 500;
#endif
constexpr int kThreads = 8;

std::vector<std::string> legal_placement_strings(const std::string& name,
                                                 std::size_t cap) {
  const workloads::BenchmarkCase bench = workloads::get_benchmark(name);
  std::vector<std::string> out;
  for (const DataPlacement& p :
       enumerate_placements(bench.kernel, kepler_arch(), cap))
    out.push_back(p.to_string());
  return out;
}

TEST(ServeSoak, EightClientsMixedRequestsNoLostOrMisroutedResponses) {
  serve::ServeOptions options;
  options.prediction_cache_capacity = 48;  // << distinct keys: force churn
  options.kernel_cache_capacity = 4;
  serve::PredictionService service(options);

  const std::vector<std::string> benchmarks = {"triad", "spmv"};
  std::vector<std::vector<std::string>> placements;
  for (const std::string& b : benchmarks)
    placements.push_back(legal_placement_strings(b, 48));

  std::atomic<std::uint64_t> responses_checked{0};
  std::atomic<std::uint64_t> ok_responses{0};
  std::atomic<bool> failed{false};
  std::vector<std::thread> clients;
  clients.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    clients.emplace_back([&, t] {
      for (int k = 0; k < kRequestsPerThread && !failed.load(); ++k) {
        const int id = t * 1000000 + k;
        const std::size_t b = static_cast<std::size_t>((t + k) % 2);
        // k has fixed parity per (thread, benchmark); index by k/2 so the
        // walk covers every placement, not just one parity class.
        const std::string& placement =
            placements[b][static_cast<std::size_t>((k / 2) * 7 + t * 3) %
                          placements[b].size()];
        std::string line;
        bool malformed = false;
        if (k % 101 == 50) {
          line = "{\"id\":" + std::to_string(id) +
                 ",\"op\":\"search\",\"benchmark\":\"" + benchmarks[b] +
                 "\",\"algo\":\"exhaustive\",\"cap\":16}";
        } else if (k % 37 == 17) {
          line = "{\"id\":" + std::to_string(id) + ",\"op\":\"metrics\"}";
        } else if (k % 11 == 5) {
          line = "{\"id\":" + std::to_string(id) +
                 ",\"op\":\"predict_batch\",\"benchmark\":\"" + benchmarks[b] +
                 "\",\"placements\":[\"" + placement + "\",\"" +
                 placements[b][0] + "\"]}";
        } else if (k % 29 == 13) {
          line = "this line is not json {{{";  // must degrade, not crash
          malformed = true;
        } else {
          line = "{\"id\":" + std::to_string(id) +
                 ",\"op\":\"predict\",\"benchmark\":\"" + benchmarks[b] +
                 "\",\"placement\":\"" + placement + "\"}";
        }
        const std::string response = service.handle_line(line);

        const StatusOr<serve::Json> parsed = serve::Json::parse(response);
        if (!parsed.ok()) {
          ADD_FAILURE() << "malformed response: " << response;
          failed.store(true);
          return;
        }
        responses_checked.fetch_add(1);
        const serve::Json* rid = parsed->find("id");
        const serve::Json* ok = parsed->find("ok");
        if (rid == nullptr || ok == nullptr || !ok->is_bool()) {
          ADD_FAILURE() << "response missing id/ok: " << response;
          failed.store(true);
          return;
        }
        if (malformed) {
          // The malformed line can't echo an id; everything else must echo
          // exactly the id this thread sent — a cross-thread mixup would
          // surface here as a misrouted response.
          if (!rid->is_null()) {
            ADD_FAILURE() << "unparseable request grew an id: " << response;
            failed.store(true);
            return;
          }
        } else if (!rid->is_number() ||
                   rid->as_number() != static_cast<double>(id)) {
          ADD_FAILURE() << "misrouted response for id " << id << ": "
                        << response;
          failed.store(true);
          return;
        }
        if (ok->as_bool()) ok_responses.fetch_add(1);

        // The cache bound must hold at every observation point.
        const serve::ServeStats stats = service.stats();
        if (stats.prediction_cache.size > stats.prediction_cache.capacity ||
            stats.kernel_cache.size > stats.kernel_cache.capacity) {
          ADD_FAILURE() << "cache exceeded its bound: prediction "
                        << stats.prediction_cache.size << "/"
                        << stats.prediction_cache.capacity << ", kernel "
                        << stats.kernel_cache.size << "/"
                        << stats.kernel_cache.capacity;
          failed.store(true);
          return;
        }
      }
    });
  }
  for (std::thread& c : clients) c.join();
  ASSERT_FALSE(failed.load());

  // No lost or duplicated responses: handle_line returned exactly once per
  // request, and the counters agree.
  const std::uint64_t total =
      static_cast<std::uint64_t>(kThreads) * kRequestsPerThread;
  EXPECT_EQ(responses_checked.load(), total);
  const serve::ServeStats stats = service.stats();
  EXPECT_EQ(stats.requests, total);
  EXPECT_EQ(stats.responses, total);
  // Only the deliberately-malformed lines error; everything else succeeds.
  EXPECT_EQ(stats.errors, total - ok_responses.load());
  EXPECT_GT(ok_responses.load(), total * 8 / 10);
  EXPECT_GT(stats.prediction_cache.hits, 0u);
  EXPECT_GT(stats.prediction_cache.evictions, 0u);  // churn really happened
  EXPECT_LE(stats.prediction_cache.size, stats.prediction_cache.capacity);
  EXPECT_EQ(stats.rejected, 0u);  // default admission limits never tripped
}

TEST(ServeSoak, TinyInflightLimitShedsLoadWithStructuredRejections) {
  serve::ServeOptions options;
  options.max_inflight = 1;  // every concurrent second request is shed
  serve::PredictionService service(options);
  // Warm the kernel + prediction caches so the hammering below is hit-path.
  ASSERT_NE(service
                .handle_line(R"({"op":"predict","benchmark":"triad",)"
                             R"("placement":"G,G,G"})")
                .find("\"ok\":true"),
            std::string::npos);

  std::atomic<std::uint64_t> ok_count{0}, rejected_count{0};
  std::atomic<bool> failed{false};
  std::vector<std::thread> clients;
  for (int t = 0; t < kThreads; ++t) {
    clients.emplace_back([&] {
      for (int k = 0; k < 200 && !failed.load(); ++k) {
        const std::string response = service.handle_line(
            R"({"id":1,"op":"predict","benchmark":"triad",)"
            R"("placement":"G,G,G"})");
        const StatusOr<serve::Json> parsed = serve::Json::parse(response);
        if (!parsed.ok()) {
          ADD_FAILURE() << "malformed response: " << response;
          failed.store(true);
          return;
        }
        if (parsed->find("ok")->as_bool()) {
          ok_count.fetch_add(1);
        } else {
          const serve::Json* error = parsed->find("error");
          if (error == nullptr ||
              error->find("code")->as_string() != "RESOURCE_EXHAUSTED") {
            ADD_FAILURE() << "unexpected failure: " << response;
            failed.store(true);
            return;
          }
          rejected_count.fetch_add(1);
        }
      }
    });
  }
  for (std::thread& c : clients) c.join();
  ASSERT_FALSE(failed.load());
  EXPECT_EQ(ok_count.load() + rejected_count.load(),
            static_cast<std::uint64_t>(kThreads) * 200);
  EXPECT_GT(ok_count.load(), 0u);  // admission never deadlocks into 100% shed
  EXPECT_EQ(service.stats().rejected, rejected_count.load());
}

// The supervision story under load: a drain begins while eight clients are
// mid-hammer. Every request still gets exactly one response — ok before the
// drain, a structured UNAVAILABLE shed after — none lost, none misrouted,
// and the service settles into drained() (zero inflight) once the clients
// stop. This is the in-process half of the gpuhms_serve SIGTERM contract.
TEST(ServeSoak, DrainMidSoakLosesNoResponses) {
  serve::ServeOptions options;
  options.prediction_cache_capacity = 48;
  options.kernel_cache_capacity = 4;
  serve::PredictionService service(options);

  constexpr int kPerThread = 200;
  std::atomic<std::uint64_t> sent{0}, ok_count{0}, shed_count{0};
  std::atomic<bool> failed{false};
  std::vector<std::thread> clients;
  for (int t = 0; t < kThreads; ++t) {
    clients.emplace_back([&, t] {
      for (int k = 0; k < kPerThread && !failed.load(); ++k) {
        const std::uint64_t seq = sent.fetch_add(1);
        // One thread flips the drain switch mid-stream; traffic continues.
        if (seq == static_cast<std::uint64_t>(kThreads) * kPerThread / 2)
          service.begin_drain();
        const int id = t * 1000000 + k;
        const std::string response = service.handle_line(
            "{\"id\":" + std::to_string(id) +
            ",\"op\":\"predict\",\"benchmark\":\"triad\"," +
            "\"placement\":\"G,G,G\"}");
        const StatusOr<serve::Json> parsed = serve::Json::parse(response);
        if (!parsed.ok()) {
          ADD_FAILURE() << "malformed response: " << response;
          failed.store(true);
          return;
        }
        const serve::Json* rid = parsed->find("id");
        if (rid == nullptr || !rid->is_number() ||
            rid->as_number() != static_cast<double>(id)) {
          ADD_FAILURE() << "misrouted response for id " << id << ": "
                        << response;
          failed.store(true);
          return;
        }
        if (parsed->find("ok")->as_bool()) {
          ok_count.fetch_add(1);
        } else {
          const serve::Json* error = parsed->find("error");
          if (error == nullptr ||
              error->find("code")->as_string() != "UNAVAILABLE") {
            ADD_FAILURE() << "unexpected failure: " << response;
            failed.store(true);
            return;
          }
          shed_count.fetch_add(1);
        }
      }
    });
  }
  for (std::thread& c : clients) c.join();
  ASSERT_FALSE(failed.load());

  const std::uint64_t total =
      static_cast<std::uint64_t>(kThreads) * kPerThread;
  EXPECT_EQ(ok_count.load() + shed_count.load(), total);
  EXPECT_GT(ok_count.load(), 0u);    // pre-drain traffic was served
  EXPECT_GT(shed_count.load(), 0u);  // the drain actually shed traffic
  const serve::ServeStats stats = service.stats();
  EXPECT_EQ(stats.requests, total);
  EXPECT_EQ(stats.responses, total);  // exactly one response per request
  EXPECT_TRUE(stats.draining);
  EXPECT_EQ(stats.shed_draining, shed_count.load());
  EXPECT_EQ(stats.inflight, 0u);
  EXPECT_TRUE(service.drained());
  // Supervisors can still probe a draining instance.
  const std::string health = service.handle_line(R"({"op":"health"})");
  EXPECT_NE(health.find("\"status\":\"draining\""), std::string::npos)
      << health;
}

// Regression for the cache-counter snapshot race (DESIGN §14): every
// serve.cache.* total must be monotone non-decreasing across successive
// snapshots taken WHILE traffic runs. Before the sharded cache, a snapshot
// could interleave with an update and read a mix of old and new counters;
// reading each shard's counters under its lock now guarantees each counter
// never appears to go backwards. Observer threads hammer both the stats()
// accessor and the metrics verb against concurrent predict traffic.
TEST(ServeSoak, MetricsTotalsMonotoneDuringSoak) {
  serve::ServeOptions options;
  options.prediction_cache_capacity = 12;  // << triad's placement count:
  options.kernel_cache_capacity = 4;       // eviction counters move too
  serve::PredictionService service(options);

  const std::vector<std::string> placements =
      legal_placement_strings("triad", 48);
  std::atomic<bool> stop{false};
  std::atomic<bool> failed{false};

  std::vector<std::thread> clients;
  for (int t = 0; t < 4; ++t) {
    clients.emplace_back([&, t] {
      for (int k = 0; k < kRequestsPerThread && !stop.load(); ++k) {
        service.handle_line(
            "{\"id\":" + std::to_string(t * 1000000 + k) +
            ",\"op\":\"predict\",\"benchmark\":\"triad\",\"placement\":\"" +
            placements[static_cast<std::size_t>(k * 7 + t * 3) %
                       placements.size()] +
            "\"}");
      }
    });
  }

  auto cache_monotone = [](const serve::ServeStats::CacheStats& prev,
                           const serve::ServeStats::CacheStats& now) {
    return now.hits >= prev.hits && now.misses >= prev.misses &&
           now.inserts >= prev.inserts && now.updates >= prev.updates &&
           now.evictions >= prev.evictions;
  };
  std::vector<std::thread> observers;
  for (int o = 0; o < 2; ++o) {
    observers.emplace_back([&] {
      serve::ServeStats prev;
      while (!stop.load()) {
        // Exercise the metrics verb too (same snapshot path, plus the JSON
        // dump), then compare structured snapshots for monotonicity.
        service.handle_line(R"({"op":"metrics"})");
        const serve::ServeStats now = service.stats();
        if (!cache_monotone(prev.prediction_cache, now.prediction_cache) ||
            !cache_monotone(prev.kernel_cache, now.kernel_cache) ||
            !cache_monotone(prev.idem_cache, now.idem_cache) ||
            now.requests < prev.requests || now.responses < prev.responses) {
          ADD_FAILURE() << "a serve.cache.* total went backwards between "
                           "snapshots (prediction hits "
                        << prev.prediction_cache.hits << " -> "
                        << now.prediction_cache.hits << ", misses "
                        << prev.prediction_cache.misses << " -> "
                        << now.prediction_cache.misses << ")";
          failed.store(true);
          return;
        }
        prev = now;
      }
    });
  }

  for (std::thread& c : clients) c.join();
  stop.store(true);
  for (std::thread& o : observers) o.join();
  ASSERT_FALSE(failed.load());
  const serve::ServeStats stats = service.stats();
  EXPECT_GT(stats.prediction_cache.hits + stats.prediction_cache.misses, 0u);
  EXPECT_GT(stats.prediction_cache.evictions, 0u);  // churn really happened
}

}  // namespace
}  // namespace gpuhms
