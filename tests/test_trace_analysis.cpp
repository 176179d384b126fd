#include "model/trace_analysis.hpp"

#include <atomic>
#include <cstdlib>
#include <new>

#include <gtest/gtest.h>

#include "sim/simulator.hpp"
#include "workloads/workloads.hpp"

namespace {

// Heap allocations made while armed (SoaLowering.SecondPassAllocatesNothing).
std::atomic<bool> g_count_allocations{false};
std::atomic<std::size_t> g_allocations{0};

}  // namespace

// The replaceable global allocation functions, counting while armed. The
// array and nothrow forms forward to these. All three stay out of line:
// inlined, GCC's -Wmismatched-new-delete pairs malloc() or free() with the
// operator at the other end.
[[gnu::noinline]] void* operator new(std::size_t n) {
  if (g_count_allocations.load(std::memory_order_relaxed))
    g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(n == 0 ? 1 : n)) return p;
  throw std::bad_alloc();
}
[[gnu::noinline]] void operator delete(void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete(void* p, std::size_t) noexcept {
  std::free(p);
}

namespace gpuhms {
namespace {

TEST(TraceAnalysis, CountsMatchSimulatorForDefaultVecadd) {
  // The analysis shares the coalescer and cache classes with the simulator;
  // its order-insensitive counts (executed instructions, transactions,
  // replay causes 1-4) must agree with the simulator's measured counters.
  const KernelInfo k = workloads::make_vecadd(1 << 13);
  const auto p = DataPlacement::defaults(k);
  const auto sim = simulate(k, p);
  const auto ev = analyze_trace(k, p, kepler_arch());
  EXPECT_EQ(ev.insts_executed, sim.counters.inst_executed);
  EXPECT_EQ(ev.global_transactions, sim.counters.global_transactions);
  EXPECT_EQ(ev.replay_global_divergence,
            sim.counters.replay_global_divergence);
  EXPECT_EQ(ev.shared_requests, sim.counters.shared_requests);
  EXPECT_EQ(ev.mem_insts, sim.counters.ldst_executed);
}

TEST(TraceAnalysis, RowOutcomesSumToDramRequests) {
  const KernelInfo k = workloads::make_vecadd(1 << 13);
  const auto ev = analyze_trace(k, DataPlacement::defaults(k), kepler_arch());
  EXPECT_EQ(ev.row_hits + ev.row_misses + ev.row_conflicts, ev.dram_requests);
  EXPECT_GT(ev.dram_requests, 0u);
}

TEST(TraceAnalysis, BankStreamsCoverAllRequests) {
  const KernelInfo k = workloads::make_vecadd(1 << 13);
  const auto ev = analyze_trace(k, DataPlacement::defaults(k), kepler_arch());
  std::uint64_t total = 0;
  for (const auto& b : ev.banks) total += b.count;
  EXPECT_EQ(total, ev.dram_requests);
}

TEST(TraceAnalysis, EvenDistributionSpreadsUniformly) {
  const KernelInfo k = workloads::make_vecadd(1 << 13);
  ModelOptions opts;
  opts.address_mapping = false;
  const auto ev = analyze_trace(k, DataPlacement::defaults(k), kepler_arch(),
                                opts);
  std::uint64_t lo = ~0ull, hi = 0;
  for (const auto& b : ev.banks) {
    lo = std::min(lo, b.count);
    hi = std::max(hi, b.count);
  }
  EXPECT_LE(hi - lo, 1u);  // round-robin is perfectly even
}

TEST(TraceAnalysis, PlacementChangesEventMix) {
  const KernelInfo k = workloads::make_vecadd(1 << 13);
  const auto base = DataPlacement::defaults(k);
  const auto ev_g = analyze_trace(k, base, kepler_arch());
  const auto ev_t = analyze_trace(
      k, base.with(k.array_index("a"), MemSpace::Texture1D), kepler_arch());
  const auto ev_c = analyze_trace(
      k, base.with(k.array_index("a"), MemSpace::Constant), kepler_arch());
  EXPECT_GT(ev_t.tex_requests, 0u);
  EXPECT_EQ(ev_g.tex_requests, 0u);
  EXPECT_GT(ev_c.const_requests, 0u);
  EXPECT_LT(ev_t.global_transactions, ev_g.global_transactions);
  // Texture addressing saves integer instructions (2 -> 0 per reference).
  EXPECT_LT(ev_t.insts_executed, ev_g.insts_executed);
  EXPECT_LT(ev_t.addr_calc_insts, ev_g.addr_calc_insts);
}

TEST(TraceAnalysis, SharedPlacementAddsStagingWork) {
  const KernelInfo k = workloads::make_vecadd(1 << 13);
  const auto base = DataPlacement::defaults(k);
  const auto ev_g = analyze_trace(k, base, kepler_arch());
  const auto ev_s = analyze_trace(
      k, base.with(k.array_index("a"), MemSpace::Shared), kepler_arch());
  EXPECT_GT(ev_s.shared_requests, 0u);
  EXPECT_GT(ev_s.insts_executed, ev_g.insts_executed);
  EXPECT_GT(ev_s.sync_insts, 0u);
}

TEST(TraceAnalysis, IlpAndMlpWithinBounds) {
  for (const char* name : {"vecadd", "md", "spmv"}) {
    const auto bench = workloads::get_benchmark(
        name == std::string("vecadd") ? "md" : name);
    const auto ev =
        analyze_trace(bench.kernel, bench.sample, kepler_arch());
    EXPECT_GE(ev.ilp, 1.0);
    EXPECT_LE(ev.ilp, 16.0);
    EXPECT_GE(ev.mlp, 1.0);
    EXPECT_LE(ev.mlp, 8.0);
  }
}

TEST(TraceAnalysis, TickCountEqualsInstructions) {
  const KernelInfo k = workloads::make_vecadd(1 << 12);
  const auto ev = analyze_trace(k, DataPlacement::defaults(k), kepler_arch());
  EXPECT_EQ(ev.trace_ticks, ev.insts_executed);
}

TEST(TraceAnalysis, DeterministicAcrossCalls) {
  const auto bench = workloads::get_benchmark("spmv");
  const auto e1 = analyze_trace(bench.kernel, bench.sample, kepler_arch());
  const auto e2 = analyze_trace(bench.kernel, bench.sample, kepler_arch());
  EXPECT_EQ(e1.dram_requests, e2.dram_requests);
  EXPECT_EQ(e1.row_conflicts, e2.row_conflicts);
  EXPECT_EQ(e1.insts_executed, e2.insts_executed);
}

// The SoA path reads a skeleton's per-array tables by the kernel's array
// ids and ordinals: another kernel's skeleton must abort, not index past
// its tables.
TEST(TraceAnalysisDeathTest, AnotherKernelsSkeletonAborts) {
  testing::GTEST_FLAG(death_test_style) = "threadsafe";
  const auto matrixmul = workloads::get_benchmark("matrixmul");
  const auto triad = workloads::get_benchmark("triad");
  const TraceSkeleton triad_skeleton(triad.kernel, kepler_arch());
  EXPECT_DEATH(analyze_trace(matrixmul.kernel, matrixmul.sample,
                             kepler_arch(), {}, &triad_skeleton),
               "skeleton recorded from a different kernel");
}

// Lowering keeps every wave's scratch for the next wave and the next
// candidate, so once it has lowered its largest wave it allocates nothing:
// a second pass over every wave of matrixmul's sample and test placements,
// through the same SoaLowering, makes no heap allocation in lower_wave.
TEST(SoaLowering, SecondPassAllocatesNothing) {
  const auto bench = workloads::get_benchmark("matrixmul");
  const GpuArch& arch = kepler_arch();
  const TraceSkeleton skeleton(bench.kernel, arch);
  std::vector<DataPlacement> placements = {bench.sample};
  for (const workloads::PlacementTest& t : bench.tests)
    placements.push_back(t.placement);
  SoaLowering soa;
  for (int pass = 0; pass < 2; ++pass) {
    std::size_t waves = 0, records = 0, allocations = 0;
    for (const DataPlacement& p : placements) {
      const TraceMaterializer mat(bench.kernel, p, arch);
      soa.bind(mat, skeleton, arch);
      const std::int64_t wave_blocks =
          static_cast<std::int64_t>(arch.num_sms) *
          mat.layout().blocks_per_sm(arch);
      for (std::int64_t b0 = 0; b0 < bench.kernel.num_blocks;
           b0 += wave_blocks) {
        g_allocations = 0;
        g_count_allocations = true;
        const SoaWave wave = soa.lower_wave(
            b0, std::min(bench.kernel.num_blocks, b0 + wave_blocks));
        g_count_allocations = false;
        allocations += g_allocations;
        ++waves;
        records += wave.mem_n;
      }
    }
    SCOPED_TRACE(pass);
    EXPECT_GE(waves, placements.size());
    EXPECT_GT(records, 0u);
    // The first pass grows the scratch, which shows the counter sees
    // lower_wave's allocations; the second must make none.
    if (pass == 0) {
      EXPECT_GT(allocations, 0u);
    } else {
      EXPECT_EQ(allocations, 0u);
    }
  }
}

}  // namespace
}  // namespace gpuhms
