#include "baselines/hong_kim.hpp"
#include "baselines/porple.hpp"
#include "baselines/sim2012.hpp"

#include <gtest/gtest.h>

#include "workloads/workloads.hpp"

namespace gpuhms {
namespace {

TEST(HongKim, PureComputeScalesWithWarps) {
  HongKimInputs in;
  in.comp_cycles_per_warp = 100.0;
  in.mem_insts_per_warp = 0.0;
  in.n_warps = 8.0;
  EXPECT_DOUBLE_EQ(hong_kim_cycles(in), 800.0);
}

TEST(HongKim, MemoryBoundDominatedByLatencyOverMwp) {
  HongKimInputs in;
  in.comp_cycles_per_warp = 10.0;
  in.mem_insts_per_warp = 10.0;
  in.mem_lat = 400.0;
  in.n_warps = 32.0;
  in.mwp = 4.0;
  in.cwp = 32.0;  // CWP >= MWP: memory bound
  const double t = hong_kim_cycles(in);
  EXPECT_NEAR(t, 10.0 * 400.0 * 32.0 / 4.0, 10.0);
}

TEST(HongKim, ComputeBoundHidesMemory) {
  HongKimInputs in;
  in.comp_cycles_per_warp = 1000.0;
  in.mem_insts_per_warp = 2.0;
  in.mem_lat = 100.0;
  in.n_warps = 16.0;
  in.mwp = 16.0;
  in.cwp = 2.0;  // MWP > CWP: compute bound
  EXPECT_DOUBLE_EQ(hong_kim_cycles(in), 1000.0 * 16.0 + 100.0);
}

TEST(HongKim, FewWarpsExposeLatency) {
  HongKimInputs in;
  in.comp_cycles_per_warp = 10.0;
  in.mem_insts_per_warp = 5.0;
  in.mem_lat = 400.0;
  in.n_warps = 2.0;
  in.mwp = 8.0;
  in.cwp = 16.0;
  // N < MWP and N < CWP: latency exposed each period.
  EXPECT_DOUBLE_EQ(hong_kim_cycles(in), 5.0 * (400.0 + 2.0 * 2.0));
}

TEST(HongKim, MoreWarpsNeverSlower) {
  for (double mem_lat : {100.0, 400.0, 800.0}) {
    HongKimInputs in;
    in.comp_cycles_per_warp = 50.0;
    in.mem_insts_per_warp = 5.0;
    in.mem_lat = mem_lat;
    in.mwp = 4.0;
    in.cwp = 6.0;
    double per_warp_prev = 1e18;
    for (double n : {2.0, 8.0, 32.0}) {
      in.n_warps = n;
      const double per_warp = hong_kim_cycles(in) / n;
      EXPECT_LE(per_warp, per_warp_prev * 1.01);
      per_warp_prev = per_warp;
    }
  }
}

TEST(Sim2012, SelfPredictionAnchorsExactly) {
  const KernelInfo k = workloads::make_vecadd(1 << 13);
  const auto sample = DataPlacement::defaults(k);
  Sim2012Predictor pred(k, kepler_arch());
  pred.profile_sample(sample);
  EXPECT_NEAR(pred.predict(sample).total_cycles,
              static_cast<double>(pred.sample_result().cycles), 1.0);
}

TEST(Sim2012, IssuedEqualsExecuted) {
  // The defining simplification: no replay accounting.
  const KernelInfo k = workloads::make_vecadd(1 << 13);
  const auto sample = DataPlacement::defaults(k);
  Sim2012Predictor pred(k, kepler_arch());
  pred.profile_sample(sample);
  const auto p = pred.predict(sample.with(0, MemSpace::Constant));
  EXPECT_DOUBLE_EQ(p.inst.replays_total, 0.0);
  EXPECT_DOUBLE_EQ(p.inst.issued_total, p.inst.executed_total);
}

TEST(Sim2012, InstructionsFrozenAcrossPlacements) {
  const KernelInfo k = workloads::make_vecadd(1 << 13);
  const auto sample = DataPlacement::defaults(k);
  Sim2012Predictor pred(k, kepler_arch());
  pred.profile_sample(sample);
  const auto p1 = pred.predict(sample.with(0, MemSpace::Texture1D));
  const auto p2 = pred.predict(sample.with(0, MemSpace::Shared));
  EXPECT_DOUBLE_EQ(p1.inst.issued_total, p2.inst.issued_total);
}

TEST(Porple, CostPositiveAndPlacementSensitive) {
  const KernelInfo k = workloads::make_vecadd(1 << 13);
  const TraceSkeleton skel(k, kepler_arch());
  const auto base = DataPlacement::defaults(k);
  const double cg = porple_cost(skel, base, kepler_arch());
  const double ct =
      porple_cost(skel, base.with(0, MemSpace::Texture1D), kepler_arch());
  EXPECT_GT(cg, 0.0);
  EXPECT_NE(cg, ct);
}

TEST(Porple, SharedLooksFreeToIt) {
  // PORPLE's blind spot: it prices shared accesses at the flat latency with
  // no staging or conflicts, so moving a hot array to shared always looks
  // attractive.
  const KernelInfo k = workloads::make_neuralnet(32, 64, 64);
  const auto base = DataPlacement::defaults(k);
  const int iw = k.array_index("weights");
  const TraceSkeleton skel(k, kepler_arch());
  const double cg = porple_cost(skel, base, kepler_arch());
  const double cs = porple_cost(skel, base.with(iw, MemSpace::Shared),
                                kepler_arch());
  EXPECT_LT(cs, cg);
}

TEST(Porple, DeterministicScores) {
  const auto bench = workloads::get_benchmark("stencil2d");
  const TraceSkeleton skel(bench.kernel, kepler_arch());
  const double c1 = porple_cost(skel, bench.sample, kepler_arch());
  const double c2 = porple_cost(skel, bench.sample, kepler_arch());
  EXPECT_DOUBLE_EQ(c1, c2);
}

}  // namespace
}  // namespace gpuhms
