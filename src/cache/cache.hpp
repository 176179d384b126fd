// Set-associative LRU cache, the GPGPU-Sim-style cache model the paper's
// framework builds on (Sec. IV). The same class backs both the timing
// simulator's caches and the analytical model's trace-order cache analysis.
#pragma once

#include <cstdint>
#include <vector>

#include "arch/gpu_arch.hpp"

namespace gpuhms {

struct CacheConfig {
  std::size_t capacity = 128 * 1024;
  std::size_t line_size = 128;
  int ways = 8;

  std::size_t num_sets() const {
    return capacity / (line_size * static_cast<std::size_t>(ways));
  }
};

struct CacheStats {
  std::uint64_t accesses = 0;
  std::uint64_t misses = 0;
  std::uint64_t writebacks = 0;

  std::uint64_t hits() const { return accesses - misses; }
  double miss_ratio() const {
    return accesses ? static_cast<double>(misses) / static_cast<double>(accesses)
                    : 0.0;
  }
};

// Each set keeps its tags in most-recently-used order, so a hit moves its
// tag to the front and a miss into a full set evicts the last one. Lines are
// never invalidated, so a set's valid tags always occupy its first `fill`
// ways; bit w of the set's dirty mask belongs to the tag at position w.
class SetAssocCache {
 public:
  // CHECKs a power-of-two line size, 1 to kMaxCacheWays ways and a whole,
  // positive number of sets below 2^32.
  explicit SetAssocCache(const CacheConfig& cfg);

  // Access a byte address; returns true on hit. On a write miss the line is
  // allocated (write-allocate, write-back).
  bool access(std::uint64_t addr, bool is_write = false);
  // Hit check without state change (used in tests).
  bool probe(std::uint64_t addr) const;
  void reset();

  const CacheStats& stats() const { return stats_; }
  const CacheConfig& config() const { return cfg_; }

 private:
  // line_addr % num_sets_: Lemire's fastmod, exact for 32-bit dividends
  // and divisors, with `%` for the rare line address past 2^32.
  std::size_t set_of(std::uint64_t line_addr) const {
    if (line_addr >> 32 != 0)
      return static_cast<std::size_t>(line_addr % num_sets_);
    const std::uint64_t low = set_magic_ * line_addr;
    return static_cast<std::size_t>(
        (static_cast<unsigned __int128>(low) * num_sets_) >> 64);
  }

  CacheConfig cfg_;
  std::uint64_t num_sets_;
  std::uint64_t set_magic_;  // 2^64 / num_sets_, rounded up
  unsigned line_shift_;      // log2(line_size)
  std::size_t ways_;
  std::vector<std::uint64_t> tags_;  // num_sets * ways, set-major, MRU first
  std::vector<std::uint8_t> fill_;   // valid tags per set
  std::vector<std::uint64_t> dirty_;  // per set, by MRU position
  CacheStats stats_;
};

// Cache configurations derived from the architecture description.
CacheConfig l2_config(const GpuArch& a);
CacheConfig const_cache_config(const GpuArch& a);
CacheConfig tex_cache_config(const GpuArch& a);

}  // namespace gpuhms
