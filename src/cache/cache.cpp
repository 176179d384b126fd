#include "cache/cache.hpp"

#include <bit>
#include <limits>

#include "common/check.hpp"

namespace gpuhms {

SetAssocCache::SetAssocCache(const CacheConfig& cfg)
    : cfg_(cfg), num_sets_(0), set_magic_(0),
      line_shift_(static_cast<unsigned>(std::countr_zero(cfg.line_size))),
      ways_(static_cast<std::size_t>(cfg.ways)) {
  GPUHMS_CHECK(cfg.line_size > 0 && (cfg.line_size & (cfg.line_size - 1)) == 0);
  GPUHMS_CHECK_MSG(cfg.ways >= 1 && cfg.ways <= kMaxCacheWays,
                   "cache associativity outside [1, kMaxCacheWays]");
  num_sets_ = cfg.num_sets();
  GPUHMS_CHECK_MSG(num_sets_ > 0, "cache too small for its associativity");
  GPUHMS_CHECK_MSG(num_sets_ <= std::numeric_limits<std::uint32_t>::max(),
                   "cache has 2^32 sets or more");
  set_magic_ = std::numeric_limits<std::uint64_t>::max() / num_sets_ + 1;
  tags_.resize(num_sets_ * ways_);
  fill_.assign(num_sets_, 0);
  dirty_.assign(num_sets_, 0);
}

bool SetAssocCache::access(std::uint64_t addr, bool is_write) {
  ++stats_.accesses;
  const std::uint64_t line_addr = addr >> line_shift_;
  const std::size_t set = set_of(line_addr);
  std::uint64_t* tags = &tags_[set * ways_];
  std::uint64_t& dirty = dirty_[set];
  const std::size_t n = fill_[set];
  const std::uint64_t write = is_write ? 1 : 0;
  // One pass moves each tag it passes back one position, the accessed tag
  // coming in at the front.
  std::uint64_t carry = line_addr;
  for (std::size_t k = 0; k < n; ++k) {
    const std::uint64_t tag = tags[k];
    tags[k] = carry;
    if (tag == line_addr) {  // hit: its dirty bit moves to the front too
      const std::uint64_t below = (std::uint64_t{1} << k) - 1;
      dirty = (dirty & ~(below | (below + 1))) | ((dirty & below) << 1) |
              ((dirty >> k) & 1) | write;
      return true;
    }
    carry = tag;
  }
  ++stats_.misses;
  if (n < ways_) {
    tags[n] = carry;
    fill_[set] = static_cast<std::uint8_t>(n + 1);
    dirty = (dirty << 1) | write;
  } else {
    // Full set: carry is the least recently used tag, evicted.
    const std::uint64_t last = std::uint64_t{1} << (ways_ - 1);
    if ((dirty & last) != 0) ++stats_.writebacks;
    dirty = ((dirty & ~last) << 1) | write;
  }
  return false;
}

bool SetAssocCache::probe(std::uint64_t addr) const {
  const std::uint64_t line_addr = addr >> line_shift_;
  const std::size_t set = set_of(line_addr);
  const std::uint64_t* tags = &tags_[set * ways_];
  for (std::size_t k = 0; k < fill_[set]; ++k) {
    if (tags[k] == line_addr) return true;
  }
  return false;
}

void SetAssocCache::reset() {
  fill_.assign(fill_.size(), 0);
  dirty_.assign(dirty_.size(), 0);
  stats_ = CacheStats{};
}

CacheConfig l2_config(const GpuArch& a) {
  return CacheConfig{a.l2_capacity, a.cache_line, a.l2_ways};
}

CacheConfig const_cache_config(const GpuArch& a) {
  return CacheConfig{a.const_cache_capacity, a.cache_line, a.const_cache_ways};
}

CacheConfig tex_cache_config(const GpuArch& a) {
  return CacheConfig{a.tex_cache_capacity, a.cache_line, a.tex_cache_ways};
}

}  // namespace gpuhms
