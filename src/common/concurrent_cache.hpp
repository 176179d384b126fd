// Sharded, mutex-guarded LRU cache.
//
// The serving layer keeps three of these: profiled kernel entries, memoized
// predictions and idempotency replays. The design is the plainest one that
// still scales with client threads:
//
//   * The key space is split across up to 16 power-of-two shards by the
//     high bits of the key hash (the serving layer's keys are already
//     FNV-1a fingerprint strings; a final splitmix64 step protects weak
//     std::hash specializations). Sharding stays because one global mutex
//     lets 16 threads fall below one thread's warm-hit throughput
//     (DESIGN §14 has the numbers).
//   * Each shard is one std::mutex over a strict LRU: a most-recently-used-
//     first std::list of entries plus an std::unordered_map from key to
//     list position. get() splices a hit to the front; put() updates a key
//     in place or inserts it, evicting the list's back when the shard is
//     full.
//   * Evicted and replaced values are destroyed after the shard lock is
//     released, so freeing a large value (a profiled Predictor plus its
//     skeleton) never blocks that shard's readers, and a value destructor
//     may itself call back into the cache.
//
// Contract (test_concurrent_cache.cpp diffs it against a strict-LRU
// reference model): capacity is a hard bound enforced per shard (the
// per-shard caps sum to exactly `capacity`, so the global bound holds at
// every observation point); capacity 0 disables the cache; put() of an
// existing key replaces the value (an update, not an insert); get() returns
// a copy. A single-shard cache evicts exactly like strict LRU.
//
// Stats are plain per-shard counters updated under the shard lock; stats()
// locks each shard in turn and sums them, so every counter in a snapshot is
// monotone across repeated snapshots — the property the serve metrics verb
// promises and test_serve_soak's monotonicity regression locks.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <iterator>
#include <list>
#include <mutex>
#include <optional>
#include <unordered_map>
#include <utility>
#include <vector>

namespace gpuhms {

// Counter snapshot returned by ConcurrentCache::stats().
struct CacheCounters {
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  std::uint64_t inserts = 0;
  std::uint64_t updates = 0;
  std::uint64_t evictions = 0;
};

// Shard-count policy, exposed for tests and DESIGN §14: the largest power
// of two <= min(kMaxShards, capacity / kMinShardCap), at least 1 — so a
// shard always owns >= kMinShardCap entries (8) before sharding fans out.
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
      : capacity_(capacity), shards_(concurrent_cache_shards(capacity)) {
    for (std::size_t s = 0; s < shards_.size(); ++s)
      shards_[s].cap = capacity / shards_.size() +
                       (s < capacity % shards_.size() ? 1 : 0);
  }

  ConcurrentCache(const ConcurrentCache&) = delete;
  ConcurrentCache& operator=(const ConcurrentCache&) = delete;

  std::size_t capacity() const { return capacity_; }
  std::size_t num_shards() const { return shards_.size(); }

  std::size_t size() const {
    std::size_t total = 0;
    for (const Shard& shard : shards_) {
      std::lock_guard<std::mutex> lock(shard.mu);
      total += shard.lru.size();
    }
    return total;
  }

  std::optional<V> get(const K& key) {
    Shard& shard = shard_for(key);
    std::lock_guard<std::mutex> lock(shard.mu);
    const auto it = shard.index.find(key);
    if (it == shard.index.end()) {
      ++shard.counters.misses;
      return std::nullopt;
    }
    ++shard.counters.hits;
    shard.lru.splice(shard.lru.begin(), shard.lru, it->second);
    return it->second->second;
  }

  // Insert or replace; evicts the shard's least recently used entry when
  // the shard is full. The displaced value ends up in `value`, which is
  // destroyed on return, after the lock is released.
  void put(const K& key, V value) {
    Shard& shard = shard_for(key);
    std::lock_guard<std::mutex> lock(shard.mu);
    if (shard.cap == 0) return;  // capacity 0 disables the cache
    const auto it = shard.index.find(key);
    if (it != shard.index.end()) {
      std::swap(it->second->second, value);
      shard.lru.splice(shard.lru.begin(), shard.lru, it->second);
      ++shard.counters.updates;
      return;
    }
    if (shard.lru.size() >= shard.cap) {
      // Recycle the LRU node for the new key: no allocation, and its value
      // swaps out into `value`.
      const auto victim = std::prev(shard.lru.end());
      shard.index.erase(victim->first);
      victim->first = key;
      std::swap(victim->second, value);
      shard.lru.splice(shard.lru.begin(), shard.lru, victim);
      ++shard.counters.evictions;
    } else {
      shard.lru.emplace_front(key, std::move(value));
    }
    shard.index.emplace(key, shard.lru.begin());
    ++shard.counters.inserts;
  }

  CacheCounters stats() const {
    CacheCounters c;
    for (const Shard& shard : shards_) {
      std::lock_guard<std::mutex> lock(shard.mu);
      c.hits += shard.counters.hits;
      c.misses += shard.counters.misses;
      c.inserts += shard.counters.inserts;
      c.updates += shard.counters.updates;
      c.evictions += shard.counters.evictions;
    }
    return c;
  }

  // Test hook.
  std::size_t shard_capacity(std::size_t s) const { return shards_[s].cap; }

 private:
  using Entry = std::pair<K, V>;
  struct Shard {
    std::size_t cap = 0;
    mutable std::mutex mu;
    std::list<Entry> lru;  // most recently used first
    std::unordered_map<K, typename std::list<Entry>::iterator, Hash> index;
    CacheCounters counters;
  };

  Shard& shard_for(const K& key) {
    const std::uint64_t h =
        concurrent_cache_mix(static_cast<std::uint64_t>(Hash{}(key)));
    return shards_[static_cast<std::size_t>(h >> 48) & (shards_.size() - 1)];
  }

  const std::size_t capacity_;
  std::vector<Shard> shards_;
};

}  // namespace gpuhms
