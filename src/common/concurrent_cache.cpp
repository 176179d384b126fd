#include "common/concurrent_cache.hpp"

#include <algorithm>

namespace gpuhms {

// Largest power of two <= min(kMaxShards, capacity / kMinShardCap), floor 1:
// every shard owns at least kMinShardCap entries before the cache fans out
// to another shard, so per-shard LRU never degenerates into per-shard
// capacity 1 (where a hash collision would evict a hot entry even with the
// rest of the cache empty). 16 shards saturate the design point — the serve
// prediction cache (4096) gets 16 x 256, the kernel cache (16) gets 2 x 8.
std::size_t concurrent_cache_shards(std::size_t capacity) {
  constexpr std::size_t kMaxShards = 16;
  constexpr std::size_t kMinShardCap = 8;
  const std::size_t ceiling =
      std::min(kMaxShards, std::max<std::size_t>(1, capacity / kMinShardCap));
  std::size_t shards = 1;
  while (shards * 2 <= ceiling) shards *= 2;
  return shards;
}

// splitmix64 finalizer: full-avalanche mix so shard selection (high bits)
// spreads keys even for identity std::hash.
std::uint64_t concurrent_cache_mix(std::uint64_t h) {
  h += 0x9e3779b97f4a7c15ull;
  h = (h ^ (h >> 30)) * 0xbf58476d1ce4e5b9ull;
  h = (h ^ (h >> 27)) * 0x94d049bb133111ebull;
  return h ^ (h >> 31);
}

}  // namespace gpuhms
