#include "cache/cache.hpp"

#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "arch/arch_registry.hpp"
#include "common/rng.hpp"

namespace gpuhms {
namespace {

CacheConfig small_cache(int ways = 2, std::size_t lines_total = 8) {
  return CacheConfig{lines_total * 128, 128, ways};
}

TEST(Cache, ColdMissThenHit) {
  SetAssocCache c(small_cache());
  EXPECT_FALSE(c.access(0x1000));
  EXPECT_TRUE(c.access(0x1000));
  EXPECT_TRUE(c.access(0x1040));  // same 128 B line
  EXPECT_EQ(c.stats().accesses, 3u);
  EXPECT_EQ(c.stats().misses, 1u);
}

TEST(Cache, LruEvictionOrder) {
  // 2-way cache: fill a set with A, B; touch A; insert C -> B evicted.
  SetAssocCache c(small_cache(2, 8));  // 4 sets
  const std::uint64_t set_stride = 4 * 128;
  const std::uint64_t A = 0, B = set_stride, C = 2 * set_stride;
  EXPECT_FALSE(c.access(A));
  EXPECT_FALSE(c.access(B));
  EXPECT_TRUE(c.access(A));   // A most recent
  EXPECT_FALSE(c.access(C));  // evicts B
  EXPECT_TRUE(c.probe(A));
  EXPECT_FALSE(c.probe(B));
  EXPECT_TRUE(c.probe(C));
}

TEST(Cache, WritebackCountsDirtyEvictions) {
  SetAssocCache c(small_cache(1, 4));  // direct-mapped, 4 sets
  const std::uint64_t set_stride = 4 * 128;
  EXPECT_FALSE(c.access(0, /*is_write=*/true));
  EXPECT_FALSE(c.access(set_stride, false));  // evicts dirty line 0
  EXPECT_EQ(c.stats().writebacks, 1u);
  EXPECT_FALSE(c.access(2 * set_stride, false));  // evicts clean line
  EXPECT_EQ(c.stats().writebacks, 1u);
}

TEST(Cache, WriteHitMarksDirty) {
  SetAssocCache c(small_cache(1, 4));
  const std::uint64_t set_stride = 4 * 128;
  c.access(0, false);
  c.access(0, true);  // hit, dirties
  c.access(set_stride, false);
  EXPECT_EQ(c.stats().writebacks, 1u);
}

TEST(Cache, ResetClearsEverything) {
  SetAssocCache c(small_cache());
  c.access(0x1000);
  c.reset();
  EXPECT_EQ(c.stats().accesses, 0u);
  EXPECT_FALSE(c.probe(0x1000));
}

TEST(Cache, CapacityWorkingSetFullyCached) {
  // A working set exactly the cache size misses once per line and then
  // always hits under LRU with a sequential sweep per set.
  const CacheConfig cfg = small_cache(4, 32);  // 8 sets x 4 ways
  SetAssocCache c(cfg);
  for (int pass = 0; pass < 3; ++pass) {
    for (std::size_t i = 0; i < 32; ++i) c.access(i * cfg.line_size);
  }
  EXPECT_EQ(c.stats().misses, 32u);
  EXPECT_EQ(c.stats().accesses, 96u);
}

TEST(Cache, ThrashingWorkingSetMissesEveryTime) {
  // Working set = ways+1 lines in one set -> LRU thrashes on a cyclic sweep.
  const CacheConfig cfg = small_cache(2, 8);  // 4 sets
  SetAssocCache c(cfg);
  const std::uint64_t set_stride = 4 * 128;
  for (int pass = 0; pass < 5; ++pass) {
    for (std::uint64_t i = 0; i < 3; ++i) c.access(i * set_stride);
  }
  EXPECT_EQ(c.stats().misses, c.stats().accesses);
}

TEST(Cache, MissRatioStats) {
  SetAssocCache c(small_cache());
  EXPECT_DOUBLE_EQ(c.stats().miss_ratio(), 0.0);
  c.access(0);
  c.access(0);
  EXPECT_DOUBLE_EQ(c.stats().miss_ratio(), 0.5);
  EXPECT_EQ(c.stats().hits(), 1u);
}

// Property-style sweep: for random traces, hits+misses == accesses and a
// probe right after an access always hits, across associativities.
class CacheWays : public ::testing::TestWithParam<int> {};

TEST_P(CacheWays, InvariantsUnderRandomTraffic) {
  SetAssocCache c(CacheConfig{16 * 1024, 128, GetParam()});
  Rng rng(99);
  for (int i = 0; i < 5000; ++i) {
    const std::uint64_t addr = rng.next_below(1 << 20);
    c.access(addr, rng.next_bool(0.3));
    EXPECT_TRUE(c.probe(addr));
  }
  EXPECT_EQ(c.stats().hits() + c.stats().misses, c.stats().accesses);
  EXPECT_LE(c.stats().writebacks, c.stats().misses);
}

INSTANTIATE_TEST_SUITE_P(Associativities, CacheWays,
                         ::testing::Values(1, 2, 4, 8, 16));

// Stamp-based reference LRU: every line carries its last-use stamp, a miss
// fills the first invalid way, else evicts the smallest stamp. The model
// keeps its sets in most-recently-used order instead, and must match this
// hit for hit.
class ReferenceLru {
 public:
  explicit ReferenceLru(const CacheConfig& cfg)
      : cfg_(cfg), sets_(cfg.num_sets()),
        lines_(sets_ * static_cast<std::size_t>(cfg.ways)) {}

  bool access(std::uint64_t addr, bool is_write) {
    ++stats_.accesses;
    ++tick_;
    const std::uint64_t tag = addr / cfg_.line_size;
    Line* set = set_of(tag);
    Line* victim = nullptr;
    for (int w = 0; w < cfg_.ways; ++w) {
      Line& ln = set[w];
      if (ln.valid && ln.tag == tag) {
        ln.stamp = tick_;
        ln.dirty = ln.dirty || is_write;
        return true;
      }
      if (victim == nullptr || (victim->valid && (!ln.valid ||
                                                  ln.stamp < victim->stamp)))
        victim = &ln;
    }
    ++stats_.misses;
    if (victim->valid && victim->dirty) ++stats_.writebacks;
    *victim = Line{tag, tick_, true, is_write};
    return false;
  }
  bool probe(std::uint64_t addr) const {
    const std::uint64_t tag = addr / cfg_.line_size;
    const Line* set =
        &lines_[tag % sets_ * static_cast<std::size_t>(cfg_.ways)];
    for (int w = 0; w < cfg_.ways; ++w)
      if (set[w].valid && set[w].tag == tag) return true;
    return false;
  }
  const CacheStats& stats() const { return stats_; }

 private:
  struct Line {
    std::uint64_t tag = 0;
    std::uint64_t stamp = 0;
    bool valid = false;
    bool dirty = false;
  };
  Line* set_of(std::uint64_t tag) {
    return &lines_[tag % sets_ * static_cast<std::size_t>(cfg_.ways)];
  }

  CacheConfig cfg_;
  std::size_t sets_;
  std::vector<Line> lines_;
  std::uint64_t tick_ = 0;
  CacheStats stats_;
};

// Random mixed reads and writes over a pool of lines about three times the
// cache's, so sets fill, hit and evict; a quarter of the pool lies at line
// addresses of 2^32 and above, past the set index's 32-bit fast path.
void expect_matches_reference(const CacheConfig& cfg, std::uint64_t seed) {
  SetAssocCache cache(cfg);
  ReferenceLru ref(cfg);
  Rng rng(seed);
  const std::size_t lines = cfg.capacity / cfg.line_size;
  std::vector<std::uint64_t> pool(3 * lines);
  const std::uint64_t max_line = ~std::uint64_t{0} / cfg.line_size;
  for (std::uint64_t& addr : pool) {
    const std::uint64_t line =
        rng.next_bool(0.25)
            ? (1ull << 32) + rng.next_below(max_line - (1ull << 32))
            : rng.next_below(4 * lines);
    addr = line * cfg.line_size + rng.next_below(cfg.line_size);
  }
  for (int i = 0; i < 40000; ++i) {
    const std::uint64_t addr = pool[rng.next_below(pool.size())];
    const bool write = rng.next_bool(0.3);
    ASSERT_EQ(cache.access(addr, write), ref.access(addr, write))
        << "access " << i << " addr 0x" << std::hex << addr;
  }
  EXPECT_EQ(cache.stats().accesses, ref.stats().accesses);
  EXPECT_EQ(cache.stats().misses, ref.stats().misses);
  EXPECT_EQ(cache.stats().writebacks, ref.stats().writebacks);
  EXPECT_GT(cache.stats().writebacks, 0u);
  EXPECT_GT(cache.stats().hits(), 0u);
  for (const std::uint64_t addr : pool)
    EXPECT_EQ(cache.probe(addr), ref.probe(addr)) << std::hex << addr;
}

TEST(CacheDifferential, EveryRegisteredArchMatchesTheStampReference) {
  std::uint64_t seed = 1;
  for (const std::string& name : ArchRegistry::builtin().names()) {
    const GpuArch& arch = ArchRegistry::builtin().find(name)->arch;
    for (const auto& [what, cfg] :
         {std::pair{"l2", l2_config(arch)},
          std::pair{"const", const_cache_config(arch)},
          std::pair{"tex", tex_cache_config(arch)}}) {
      SCOPED_TRACE(name + " " + what);
      expect_matches_reference(cfg, seed++);
    }
  }
}

// The same over odd set counts and the widest associativity the model
// allows (its dirty mask's 64 ways), one set included.
TEST(CacheDifferential, OddGeometriesMatchTheStampReference) {
  for (const CacheConfig& cfg :
       {CacheConfig{3 * 2 * 128, 128, 2}, CacheConfig{7 * 5 * 64, 64, 5},
        CacheConfig{64 * 128, 128, kMaxCacheWays},
        CacheConfig{3 * 64 * 32, 32, kMaxCacheWays},
        CacheConfig{1 * 8 * 128, 128, 8}}) {
    SCOPED_TRACE(std::to_string(cfg.num_sets()) + " sets x " +
                 std::to_string(cfg.ways) + " ways");
    expect_matches_reference(cfg, cfg.num_sets() * 131 + cfg.ways);
  }
}

TEST(CacheConfigs, ArchDerivedConfigsConstruct) {
  const GpuArch& a = kepler_arch();
  SetAssocCache l2(l2_config(a));
  SetAssocCache cc(const_cache_config(a));
  SetAssocCache tc(tex_cache_config(a));
  EXPECT_GT(l2.config().num_sets(), cc.config().num_sets());
}

}  // namespace
}  // namespace gpuhms
