#include "sim/simulator.hpp"

#include <gtest/gtest.h>

#include "arch/arch_registry.hpp"
#include "common/hashing.hpp"
#include "model/trace_analysis.hpp"
#include "sim_compare.hpp"
#include "workloads/workloads.hpp"

namespace gpuhms {
namespace {

KernelInfo compute_only(std::int64_t blocks, int insts) {
  KernelInfo k;
  k.name = "compute";
  k.num_blocks = blocks;
  k.threads_per_block = 64;
  k.fn = [insts](WarpEmitter& em, const WarpCtx&) { em.ialu(insts); };
  return k;
}

TEST(Simulator, ComputeOnlyCounters) {
  const KernelInfo k = compute_only(13, 10);
  const auto r = simulate(k, DataPlacement::defaults(k));
  // 13 blocks x 2 warps x 10 IALU.
  EXPECT_EQ(r.counters.inst_executed, 260u);
  EXPECT_EQ(r.counters.inst_integer, 260u);
  EXPECT_EQ(r.counters.inst_issued, 260u);  // no replays
  EXPECT_EQ(r.counters.ldst_executed, 0u);
  EXPECT_EQ(r.dram.total_requests, 0u);
  EXPECT_GT(r.cycles, 0u);
}

TEST(Simulator, DeterministicAcrossRuns) {
  const KernelInfo k = workloads::make_vecadd(1 << 12);
  const auto p = DataPlacement::defaults(k);
  const auto r1 = simulate(k, p);
  const auto r2 = simulate(k, p);
  EXPECT_EQ(r1.cycles, r2.cycles);
  EXPECT_EQ(r1.counters.inst_issued, r2.counters.inst_issued);
  EXPECT_EQ(r1.dram.row_conflicts(), r2.dram.row_conflicts());
}

TEST(Simulator, DoublePrecisionCausesIssueReplays) {
  KernelInfo k = compute_only(1, 1);
  k.fn = [](WarpEmitter& em, const WarpCtx&) { em.dalu(5); };
  const auto r = simulate(k, DataPlacement::defaults(k));
  EXPECT_EQ(r.counters.replay_double_issue, 2u * 5u);  // 2 warps x 5 DAlu
  EXPECT_EQ(r.counters.inst_issued, r.counters.inst_executed +
                                        r.counters.replays_total());
}

TEST(Simulator, GlobalDivergenceReplays) {
  KernelInfo k = compute_only(1, 1);
  k.arrays = {ArrayDecl{.name = "x", .dtype = DType::F32, .elems = 1 << 16}};
  k.fn = [](WarpEmitter& em, const WarpCtx&) {
    em.load(0, em.by_lane([](int l) { return std::int64_t{l} * 64; }));
  };
  const auto r = simulate(k, DataPlacement::defaults(k));
  // 64-element (256 B) stride: every lane its own line -> 32 transactions.
  EXPECT_EQ(r.counters.global_transactions, 2u * 32u);
  EXPECT_EQ(r.counters.replay_global_divergence, 2u * 31u);
}

TEST(Simulator, SharedBankConflictsDetected) {
  KernelInfo k = compute_only(1, 1);
  k.arrays = {ArrayDecl{.name = "s", .dtype = DType::F32, .elems = 8192,
                        .written = true, .shared_slice_elems = 8192,
                        .default_space = MemSpace::Shared}};
  k.fn = [](WarpEmitter& em, const WarpCtx&) {
    em.load(0, em.by_lane([](int l) { return std::int64_t{l} * 32; }));
  };
  const auto r = simulate(k, DataPlacement::defaults(k));
  // Stride 32 words: all lanes in one bank -> 31 conflicts per warp access.
  EXPECT_EQ(r.counters.shared_bank_conflicts, 2u * 31u);
  EXPECT_EQ(r.counters.replay_shared_conflict, 2u * 31u);
  EXPECT_EQ(r.counters.shared_requests, 2u);
}

TEST(Simulator, ConstantBroadcastVsDivergent) {
  KernelInfo k = compute_only(1, 1);
  k.arrays = {ArrayDecl{.name = "c", .dtype = DType::F32, .elems = 1024,
                        .default_space = MemSpace::Constant}};
  k.fn = [](WarpEmitter& em, const WarpCtx&) {
    em.load(0, em.bcast(3));                                   // broadcast
    em.load(0, em.by_lane([](int l) { return std::int64_t{l}; }));  // divergent
  };
  const auto r = simulate(k, DataPlacement::defaults(k));
  EXPECT_EQ(r.counters.const_requests, 4u);  // 2 warps x 2 loads
  // Divergent load: 32 distinct words -> 31 replays per warp.
  EXPECT_EQ(r.counters.replay_const_divergence, 2u * 31u);
  EXPECT_GE(r.counters.replay_const_miss, 1u);  // first touch misses
}

TEST(Simulator, CyclesScaleWithWork) {
  const KernelInfo small = workloads::make_vecadd(1 << 12);
  const KernelInfo large = workloads::make_vecadd(1 << 15);
  const auto rs = simulate(small, DataPlacement::defaults(small));
  const auto rl = simulate(large, DataPlacement::defaults(large));
  EXPECT_GT(rl.cycles, rs.cycles * 4);  // ~8x the work
}

TEST(Simulator, MoreSmsRunFaster) {
  GpuArch one_sm = kepler_arch();
  one_sm.num_sms = 1;
  const KernelInfo k = workloads::make_vecadd(1 << 13);
  const auto p = DataPlacement::defaults(k);
  const auto r13 = simulate(k, p, kepler_arch());
  const auto r1 = simulate(k, p, one_sm);
  EXPECT_GT(r1.cycles, r13.cycles * 3);
}

TEST(Simulator, SyncBarriersEnforced) {
  // One warp writes shared, all warps read after a barrier; no deadlock and
  // the barrier must show up as serialization versus the no-sync version.
  KernelInfo k = compute_only(4, 1);
  k.threads_per_block = 128;
  k.arrays = {ArrayDecl{.name = "s", .dtype = DType::F32, .elems = 128,
                        .written = true, .shared_slice_elems = 128,
                        .default_space = MemSpace::Shared}};
  k.fn = [](WarpEmitter& em, const WarpCtx& ctx) {
    if (ctx.warp_in_block == 0) {
      em.store(0, em.linear(0));
    } else {
      em.ialu(1);
    }
    em.sync();
    em.load(0, em.linear(0));
    em.falu(3, true);
  };
  const auto r = simulate(k, DataPlacement::defaults(k));
  EXPECT_GT(r.cycles, 0u);
  // Warp 0: SHL+ST, sync, SHL+LD, 3 falu = 8 lowered ops; warps 1-3:
  // ialu, sync, SHL+LD, 3 falu = 7 -> 29 per block.
  EXPECT_EQ(r.counters.inst_executed, 4u * 29u);
}

TEST(Simulator, BlocksWithoutWorkDoNotIdleTheirSlot) {
  // 32-warp blocks fill both slots of every kepler SM, and the first two
  // blocks each SM is dealt record no ops. The SM must move on to its next
  // blocks rather than drain with them unsimulated.
  KernelInfo k = compute_only(39, 1);
  k.threads_per_block = 1024;
  k.fn = [](WarpEmitter& em, const WarpCtx& ctx) {
    if (ctx.block >= 26) em.ialu(3);
  };
  const auto r = simulate(k, DataPlacement::defaults(k));
  EXPECT_EQ(r.counters.inst_executed, 13u * 32u * 3u);
  EXPECT_GT(r.cycles, 0u);
}

TEST(Simulator, L2SharedAcrossSms) {
  // All blocks read the same small array: after the cold misses, L2 serves
  // everything, so DRAM requests stay equal to the distinct line count.
  KernelInfo k = compute_only(64, 1);
  k.arrays = {ArrayDecl{.name = "x", .dtype = DType::F32, .elems = 1024}};
  k.fn = [](WarpEmitter& em, const WarpCtx&) {
    em.load(0, em.linear(0));
    em.load(0, em.linear(32));
  };
  const auto r = simulate(k, DataPlacement::defaults(k));
  EXPECT_EQ(r.dram.total_requests, 2u);
  EXPECT_GT(r.counters.l2_transactions, 2u);
}

TEST(Simulator, TextureUsesPerSmCache) {
  KernelInfo k = compute_only(13, 1);
  k.arrays = {ArrayDecl{.name = "t", .dtype = DType::F32, .elems = 1024,
                        .default_space = MemSpace::Texture1D}};
  k.fn = [](WarpEmitter& em, const WarpCtx&) {
    em.load(0, em.linear(0));
    em.load(0, em.linear(0));  // second access hits the tex cache
  };
  const auto r = simulate(k, DataPlacement::defaults(k));
  EXPECT_EQ(r.counters.tex_requests, 13u * 2u * 2u);
  // One cold miss per SM's tex cache; the rest hit.
  EXPECT_EQ(r.counters.tex_cache_misses, 13u);
}

TEST(Simulator, StallAccountingNonzeroForMemoryBound) {
  const KernelInfo k = workloads::make_vecadd(1 << 14);
  const auto r = simulate(k, DataPlacement::defaults(k));
  EXPECT_GT(r.counters.mem_stall_cycles, 0u);
}

TEST(Simulator, InterarrivalRecordingOptIn) {
  const KernelInfo k = workloads::make_vecadd(1 << 12);
  const auto p = DataPlacement::defaults(k);
  GpuSimulator off(kepler_arch());
  off.run(k, p);
  EXPECT_TRUE(off.interarrival_samples().empty());
  GpuSimulator on(kepler_arch(), SimOptions{.record_interarrivals = true});
  on.run(k, p);
  std::size_t total = 0;
  for (const auto& b : on.interarrival_samples()) total += b.size();
  EXPECT_GT(total, 0u);
}

TEST(Simulator, PartialTailBlockHandled) {
  const KernelInfo k = workloads::make_vecadd((1 << 12) + 17);
  const auto r = simulate(k, DataPlacement::defaults(k));
  EXPECT_GT(r.cycles, 0u);
}

// --- SimResult golden ---------------------------------------------------------
// FNV-1a over every SimResult field (testutil::mix_result) for every Table
// IV placement (training and evaluation suites, samples and tests) legal on
// every registered arch, under both warp schedulers. The pinned digests were
// computed with the engine that lowered every block into materialized
// TraceOp vectors and coalesced every access from its lane addresses; the
// cursor engine, which reads a body access's requests from the skeleton's
// memoized tables, must reproduce them bit for bit.

using testutil::mix_result;

struct GoldenCase {
  const KernelInfo* kernel;
  DataPlacement placement;
};

std::vector<GoldenCase> table_iv_cases(
    const std::vector<workloads::BenchmarkCase>& suite) {
  std::vector<GoldenCase> out;
  for (const auto& c : suite) {
    out.push_back({&c.kernel, c.sample});
    for (const auto& t : c.tests) out.push_back({&c.kernel, t.placement});
  }
  return out;
}

// Folds the per-run digests arch-major, in suite order. Each case runs twice:
// "plain" (no skeleton passed, so the run records a fresh one and builds its
// tables itself) and "fed" (one skeleton per (kernel, arch), shared by all of
// the kernel's cases on that arch, its tables built on the first case that
// reads them); both must agree.
std::uint64_t sweep_digest(WarpScheduler scheduler, std::size_t* runs) {
  const auto training = workloads::training_suite();
  const auto evaluation = workloads::evaluation_suite();
  std::vector<GoldenCase> cases = table_iv_cases(training);
  for (GoldenCase& c : table_iv_cases(evaluation)) cases.push_back(c);
  const ArchRegistry& reg = ArchRegistry::builtin();
  const std::vector<std::string> archs = reg.names();
  const SimOptions opts{.record_interarrivals = true, .scheduler = scheduler};
  // digests[arch][case]; 0 marks a placement illegal on that arch.
  std::vector<std::vector<std::uint64_t>> digests(
      archs.size(), std::vector<std::uint64_t>(cases.size(), 0));
  for (std::size_t first = 0; first < cases.size();) {
    const KernelInfo& kernel = *cases[first].kernel;
    std::size_t last = first;
    while (last < cases.size() && cases[last].kernel == &kernel) ++last;
    for (std::size_t a = 0; a < archs.size(); ++a) {
      const GpuArch& arch = reg.find(archs[a])->arch;
      const TraceSkeleton skeleton(kernel, arch);
      for (std::size_t i = first; i < last; ++i) {
        if (validate_placement(kernel, cases[i].placement, arch)) continue;
        GpuSimulator sim(arch, opts);
        Fnv1a plain;
        mix_result(plain, sim.run(kernel, cases[i].placement),
                   sim.interarrival_samples());
        Fnv1a fed;
        mix_result(fed, sim.run(kernel, cases[i].placement, &skeleton),
                   sim.interarrival_samples());
        EXPECT_EQ(plain.digest(), fed.digest())
            << kernel.name << " " << cases[i].placement.to_string() << " on "
            << archs[a];
        digests[a][i] = plain.digest();
      }
    }
    first = last;
  }
  Fnv1a h;
  for (const auto& per_arch : digests) {
    for (std::uint64_t d : per_arch) {
      if (d == 0) continue;
      h.mix(d);
      ++*runs;
    }
  }
  return h.digest();
}

// A staging copy takes its lines and bank-conflict degree from the
// skeleton's copy-in tables: a run fed a skeleton shared by every placement
// (its tables built once, on the first placement that stages each array)
// must match a run that records its own, on every placement of matrixmul
// that stages an array. Its order-free request counters must also equal
// the model's SoA analysis of the placement, which test_soa_replay holds
// to the full walk; the SimGolden digests below pin the lines themselves.
TEST(Simulator, SkeletonFedMatchesPlainOnStagedMatrixmul) {
  const workloads::BenchmarkCase c = workloads::get_benchmark("matrixmul");
  const KernelInfo& k = c.kernel;
  const GpuArch& arch = kepler_arch();
  const TraceSkeleton skeleton(k, arch);
  TraceAnalyzer analyzer(k, arch);
  const SimOptions opts{.record_interarrivals = true};
  std::size_t staged = 0;
  for (const DataPlacement& p : enumerate_placements(k, arch)) {
    if (TraceMaterializer(k, p, arch).staged_arrays().empty()) continue;
    SCOPED_TRACE(p.to_string());
    ++staged;
    GpuSimulator sim(arch, opts);
    const SimResult r = sim.run(k, p);
    Fnv1a plain;
    mix_result(plain, r, sim.interarrival_samples());
    Fnv1a fed;
    mix_result(fed, sim.run(k, p, &skeleton), sim.interarrival_samples());
    EXPECT_EQ(plain.digest(), fed.digest());

    const PlacementEvents ev = analyzer.analyze(p, &skeleton);
    const ProfileCounters& rc = r.counters;
    EXPECT_EQ(rc.inst_executed, ev.insts_executed);
    EXPECT_EQ(rc.ldst_executed, ev.mem_insts);
    EXPECT_EQ(rc.global_requests, ev.global_requests);
    EXPECT_EQ(rc.global_transactions, ev.global_transactions);
    EXPECT_EQ(rc.replay_global_divergence, ev.replay_global_divergence);
    EXPECT_EQ(rc.tex_requests, ev.tex_requests);
    EXPECT_EQ(rc.tex_transactions, ev.tex_transactions);
    EXPECT_EQ(rc.const_requests, ev.const_requests);
    EXPECT_EQ(rc.replay_const_divergence, ev.replay_const_divergence);
    EXPECT_EQ(rc.shared_requests, ev.shared_requests);
    EXPECT_EQ(rc.shared_bank_conflicts, ev.shared_conflicts);
  }
  EXPECT_GT(staged, 0u);
}

TEST(SimGolden, TableIvEveryArchRoundRobin) {
  std::size_t runs = 0;
  const std::uint64_t d = sweep_digest(WarpScheduler::RoundRobin, &runs);
  EXPECT_EQ(runs, 244u);
  EXPECT_EQ(d, 0xf77db7d847dadc70ull);
}

TEST(SimGolden, TableIvEveryArchGto) {
  std::size_t runs = 0;
  const std::uint64_t d = sweep_digest(WarpScheduler::Gto, &runs);
  EXPECT_EQ(runs, 244u);
  EXPECT_EQ(d, 0x4469844b340c0694ull);
}

}  // namespace
}  // namespace gpuhms
