// Sharded, open-addressing concurrent cache with wait-free reads.
//
// The serve warm path is where most traffic lives, and a mutex-guarded LRU
// would serialize every one of those requests on a single lock — at high hit
// rates the lock, not the model, would be the bottleneck. This cache removes
// the reader lock entirely:
//
//   * The key space is split across up to kMaxShards power-of-two shards by
//     the high bits of the key hash (the serving layer's keys are already
//     FNV-1a fingerprint strings, so the hash is cheap and well mixed; a
//     final splitmix64 step protects weak std::hash specializations).
//   * Each shard is a fixed open-addressing table of atomic<Node*> slots at
//     <= 50% load. get() probes linearly with acquire loads, compares the
//     stored 64-bit hash then the key, and copies the value out — no lock,
//     no CAS, no retry loop: a bounded probe, wait-free.
//   * Writers (put) take one per-shard mutex, so two shards never contend
//     and readers never wait for a writer. Replaced and evicted nodes are
//     retired to a per-cache epoch::Domain (common/epoch.hpp) instead of
//     freed, so a reader mid-copy never sees its node die.
//   * Eviction is CLOCK (second-chance): every node carries a reference bit
//     that get() sets; the shard's clock hand clears bits until it finds a
//     node with the bit already clear and evicts that. This approximates
//     LRU without a recency list, which would force a lock on *reads*.
//     Evicted slots become tombstones (probe chains stay intact); inserts
//     reuse the first tombstone on their probe path, so tombstones never
//     exceed the table and probes stay bounded.
//
// Contract (test_concurrent_cache.cpp diffs it against a strict-LRU
// reference model): capacity is a hard bound enforced per shard (the
// per-shard caps sum to exactly `capacity`, so the global bound holds at
// every observation point); capacity 0 disables the cache; put() of an
// existing key replaces the value (an update, not an insert); get() returns
// a copy. Only the eviction *choice* may differ from strict LRU — CLOCK may
// keep a different entry. The serving layer's responses are derived from
// deterministic predictions, so a different eviction victim can change hit
// counts but never a single response byte (DESIGN §14).
//
// Stats are per-shard atomics, with the reader-hot hit/miss pair and the
// writer-side insert/update/eviction group each padded onto their own
// cache line; stats() sums them with a per-counter atomic read, so every
// counter in a snapshot is monotone across repeated snapshots (C++
// read-read coherence) — the property the serve metrics verb promises and
// test_serve_soak's monotonicity regression locks.
#pragma once

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <utility>
#include <vector>

#include "common/epoch.hpp"

namespace gpuhms {

// Counter snapshot returned by ConcurrentCache::stats().
struct CacheCounters {
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  std::uint64_t inserts = 0;
  std::uint64_t updates = 0;
  std::uint64_t evictions = 0;
};

// Shard-count / table-geometry policy, exposed for tests and DESIGN §14:
// the largest power of two <= min(kMaxShards, capacity / kMinShardCap), at
// least 1 — so a shard always owns >= kMinShardCap entries (8) and the
// CLOCK approximation has room to breathe before sharding fans out.
std::size_t concurrent_cache_shards(std::size_t capacity);

// Final mixing step applied to the Hash functor's result; splitmix64's
// finalizer, so identity std::hash<int> still spreads across shards.
std::uint64_t concurrent_cache_mix(std::uint64_t h);

// One-value selector behind serve::ServeOptions::cache_backend (see there).
enum class CacheBackend { kSharded };

template <typename K, typename V, typename Hash = std::hash<K>>
class ConcurrentCache {
 public:
  explicit ConcurrentCache(std::size_t capacity)
      : capacity_(capacity),
        shards_(concurrent_cache_shards(capacity)),
        collect_batch_(std::clamp<std::size_t>(capacity / 8, 1,
                                               kCollectBatch)) {
    shard_storage_.reserve(shards_);
    for (std::size_t s = 0; s < shards_; ++s) {
      const std::size_t cap =
          capacity / shards_ + (s < capacity % shards_ ? 1 : 0);
      shard_storage_.push_back(std::make_unique<Shard>(cap));
    }
  }

  ~ConcurrentCache() {
    // Precondition (same as any destructor): no concurrent access. Nodes
    // still in the tables are freed directly; limbo drains via ~Domain.
    for (auto& shard : shard_storage_)
      for (auto& slot : shard->slots) {
        Node* n = slot.load(std::memory_order_relaxed);
        if (is_node(n)) delete n;
      }
  }

  ConcurrentCache(const ConcurrentCache&) = delete;
  ConcurrentCache& operator=(const ConcurrentCache&) = delete;

  std::size_t capacity() const { return capacity_; }
  std::size_t num_shards() const { return shards_; }

  std::size_t size() const {
    std::size_t total = 0;
    for (const auto& shard : shard_storage_)
      total += shard->count.load(std::memory_order_acquire);
    return total;
  }

  // Wait-free: one bounded probe of the key's shard, no lock, no retry.
  std::optional<V> get(const K& key) {
    if (capacity_ == 0) {
      shard_storage_[0]->reads.hits_misses[1].fetch_add(1,
                                                  std::memory_order_relaxed);
      return std::nullopt;
    }
    const std::uint64_t h = mixed_hash(key);
    Shard& shard = *shard_storage_[shard_index(h)];
    const std::size_t mask = shard.slots.size() - 1;
    epoch::Domain::Guard guard = epoch_.pin();
    std::size_t i = probe_start(h, mask);
    for (std::size_t step = 0; step < shard.slots.size(); ++step) {
      Node* n = shard.slots[i].load(std::memory_order_acquire);
      if (n == nullptr) break;  // end of probe chain
      if (is_node(n) && n->hash == h && n->key == key) {
        n->referenced.store(1, std::memory_order_relaxed);  // CLOCK touch
        V value = n->value;  // copied under the epoch guard; node immutable
        shard.reads.hits_misses[0].fetch_add(1, std::memory_order_relaxed);
        return value;
      }
      i = (i + 1) & mask;
    }
    shard.reads.hits_misses[1].fetch_add(1, std::memory_order_relaxed);
    return std::nullopt;
  }

  // Insert or replace; evicts one CLOCK victim when the shard is full. Only
  // writers take the (per-shard) lock — a put never delays a get.
  void put(const K& key, V value) {
    if (capacity_ == 0) return;
    const std::uint64_t h = mixed_hash(key);
    Shard& shard = *shard_storage_[shard_index(h)];
    if (shard.cap == 0) return;  // unreachable under the sharding policy
    const std::size_t mask = shard.slots.size() - 1;
    {
      std::lock_guard<std::mutex> lock(shard.write_mu);
      // Pin across unlink + retire (epoch.hpp's retire() contract): the
      // pin caps the global epoch for the duration, so the retire tag can
      // never lag the unlink's visibility — the three-epoch grace argument
      // leans on exactly this.
      epoch::Domain::Guard guard = epoch_.pin();
      // Probe for the key, remembering the first tombstone for reuse.
      std::size_t insert_at = shard.slots.size();  // sentinel: none yet
      std::size_t i = probe_start(h, mask);
      std::size_t existing = shard.slots.size();
      for (std::size_t step = 0; step < shard.slots.size(); ++step) {
        Node* n = shard.slots[i].load(std::memory_order_relaxed);
        if (n == nullptr) {
          if (insert_at == shard.slots.size()) insert_at = i;
          break;
        }
        if (n == tombstone()) {
          if (insert_at == shard.slots.size()) insert_at = i;
        } else if (n->hash == h && n->key == key) {
          existing = i;
          break;
        }
        i = (i + 1) & mask;
      }
      if (existing != shard.slots.size()) {
        // Replace in place: publish a fresh immutable node, retire the old.
        Node* old = shard.slots[existing].load(std::memory_order_relaxed);
        Node* fresh = new Node{h, key, std::move(value)};
        shard.slots[existing].store(fresh, std::memory_order_release);
        retire_node(old);
        shard.writes.updates.fetch_add(1, std::memory_order_relaxed);
      } else {
        if (shard.count.load(std::memory_order_relaxed) >= shard.cap) {
          const std::size_t freed = evict_clock(shard, mask);
          // The victim's tombstone may sit on our probe path earlier than
          // the slot we found; preferring it keeps chains short.
          if (insert_at == shard.slots.size()) insert_at = freed;
        }
        if (insert_at == shard.slots.size()) {
          // Table saturated with live nodes + tombstones and no eviction
          // ran (cap 0 shard): drop the insert, like the capacity-0 no-op.
          return;
        }
        Node* fresh = new Node{h, key, std::move(value)};
        shard.slots[insert_at].store(fresh, std::memory_order_release);
        shard.count.fetch_add(1, std::memory_order_release);
        shard.writes.inserts.fetch_add(1, std::memory_order_relaxed);
      }
    }
    // Outside the shard lock and the pin: amortized epoch maintenance.
    maybe_collect();
  }

  CacheCounters stats() const {
    CacheCounters c;
    for (const auto& shard : shard_storage_) {
      c.hits += shard->reads.hits_misses[0].load(std::memory_order_relaxed);
      c.misses += shard->reads.hits_misses[1].load(std::memory_order_relaxed);
      c.inserts += shard->writes.inserts.load(std::memory_order_relaxed);
      c.updates += shard->writes.updates.load(std::memory_order_relaxed);
      c.evictions += shard->writes.evictions.load(std::memory_order_relaxed);
    }
    return c;
  }

  void clear() {
    for (auto& shard : shard_storage_) {
      std::lock_guard<std::mutex> lock(shard->write_mu);
      // Same pin-across-unlink+retire contract as put().
      epoch::Domain::Guard guard = epoch_.pin();
      for (auto& slot : shard->slots) {
        Node* n = slot.load(std::memory_order_relaxed);
        if (is_node(n)) retire_node(n);
        slot.store(nullptr, std::memory_order_release);
      }
      shard->count.store(0, std::memory_order_release);
    }
    epoch_.collect();
  }

  // Test hooks.
  epoch::Domain& epoch_domain() { return epoch_; }
  std::size_t shard_capacity(std::size_t s) const {
    return shard_storage_[s]->cap;
  }

 private:
  struct Node {
    const std::uint64_t hash;
    const K key;
    const V value;
    // CLOCK reference bit: set on every hit, cleared by the sweeping hand.
    std::atomic<std::uint32_t> referenced{1};
  };

  struct Shard {
    explicit Shard(std::size_t cap_in) : cap(cap_in) {
      std::size_t table = 8;
      while (table < cap_in * 2) table <<= 1;  // <= 50% load factor
      slots = std::vector<std::atomic<Node*>>(table);
    }
    std::size_t cap;
    std::vector<std::atomic<Node*>> slots;
    std::mutex write_mu;
    std::size_t hand = 0;  // CLOCK position, guarded by write_mu
    std::atomic<std::size_t> count{0};
    // The reader-hot hit/miss pair and the writer-side counter group each
    // get their own cache line (both structs are 64-byte aligned AND
    // 64-byte sized), so a reader's hit update never false-shares with
    // put()'s bookkeeping — or with another shard's counters.
    struct alignas(64) ReadCounters {
      std::atomic<std::uint64_t> hits_misses[2] = {};
    };
    struct alignas(64) WriteCounters {
      std::atomic<std::uint64_t> inserts{0};
      std::atomic<std::uint64_t> updates{0};
      std::atomic<std::uint64_t> evictions{0};
    };
    ReadCounters reads;
    WriteCounters writes;
  };

  static Node* tombstone() {
    return reinterpret_cast<Node*>(static_cast<std::uintptr_t>(1));
  }
  static bool is_node(Node* n) { return n != nullptr && n != tombstone(); }

  std::uint64_t mixed_hash(const K& key) const {
    return concurrent_cache_mix(static_cast<std::uint64_t>(Hash{}(key)));
  }
  std::size_t shard_index(std::uint64_t h) const {
    // High bits pick the shard so the low-ish probe bits stay independent.
    return static_cast<std::size_t>(h >> 48) & (shards_ - 1);
  }
  static std::size_t probe_start(std::uint64_t h, std::size_t mask) {
    return static_cast<std::size_t>(h) & mask;
  }

  void retire_node(Node* n) {
    epoch_.retire(n, [](void* p) { delete static_cast<Node*>(p); });
  }

  // Amortized reclamation: collect() serializes every shard's writers on
  // the domain-wide limbo mutex, so rather than paying that on each put,
  // only the put that sees a full batch of retired nodes collects. The
  // batch is an eighth of the capacity, capped at kCollectBatch: limbo then
  // holds a small fraction of the live entries (a 16-entry cache of large
  // values keeps ~2 evicted ones alive, not 64), while a large cache's
  // common put still touches no global state.
  static constexpr std::size_t kCollectBatch = 64;
  void maybe_collect() {
    if (epoch_.limbo_size() >= collect_batch_) epoch_.collect();
  }

  // CLOCK sweep under the shard lock: clear reference bits until a node
  // with the bit already clear appears; evict it, leaving a tombstone.
  // Returns the freed slot index. Terminates within two sweeps: the first
  // pass clears every bit it crosses, so the second pass finds a victim.
  std::size_t evict_clock(Shard& shard, std::size_t mask) {
    for (std::size_t step = 0; step <= 2 * shard.slots.size(); ++step) {
      const std::size_t i = shard.hand;
      shard.hand = (shard.hand + 1) & mask;
      Node* n = shard.slots[i].load(std::memory_order_relaxed);
      if (!is_node(n)) continue;
      if (n->referenced.exchange(0, std::memory_order_relaxed) == 0) {
        shard.slots[i].store(tombstone(), std::memory_order_release);
        shard.count.fetch_sub(1, std::memory_order_release);
        shard.writes.evictions.fetch_add(1, std::memory_order_relaxed);
        retire_node(n);
        return i;
      }
    }
    return shard.slots.size();  // unreachable while count > 0
  }

  const std::size_t capacity_;
  const std::size_t shards_;
  const std::size_t collect_batch_;
  std::vector<std::unique_ptr<Shard>> shard_storage_;
  epoch::Domain epoch_;
};

}  // namespace gpuhms
