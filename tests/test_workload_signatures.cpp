// Per-workload access-pattern signature tests: each Table IV kernel stands
// in for a real CUDA benchmark, so its memory behaviour must carry the
// defining fingerprint of the original (divergence, conflicts, broadcast,
// 2-D locality...). These tests keep a workload edit from silently turning
// md's gathers coalesced or fft's butterflies conflict-free.
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/hashing.hpp"
#include "model/trace_analysis.hpp"
#include "sim/simulator.hpp"
#include "workloads/workloads.hpp"

namespace gpuhms {
namespace {

PlacementEvents events_of(const char* name) {
  const auto c = workloads::get_benchmark(name);
  return analyze_trace(c.kernel, c.sample, kepler_arch());
}

double transactions_per_request(const PlacementEvents& ev) {
  return static_cast<double>(ev.global_transactions) /
         std::max<std::uint64_t>(1, ev.global_requests);
}

TEST(Signatures, VecaddIsPerfectlyCoalesced) {
  const KernelInfo k = workloads::make_vecadd(1 << 13);
  const auto ev = analyze_trace(k, DataPlacement::defaults(k), kepler_arch());
  EXPECT_DOUBLE_EQ(transactions_per_request(ev), 1.0);
  EXPECT_EQ(ev.replays_1_4(), 0u);
}

TEST(Signatures, MdGathersDiverge) {
  // Neighbor-position gathers go through the texture path (d_position
  // defaults to Texture1D): far more transactions than requests there,
  // while the neighbor-list reads stay coalesced on the global path.
  const auto ev = events_of("md");
  const double tex_tpr = static_cast<double>(ev.tex_transactions) /
                         std::max<std::uint64_t>(1, ev.tex_requests);
  EXPECT_GT(tex_tpr, 2.0);
  EXPECT_LT(transactions_per_request(ev), 2.0);
}

TEST(Signatures, MdTextureDefaultUsesTexPath) {
  const auto ev = events_of("md");
  EXPECT_GT(ev.tex_requests, 0u);  // d_position defaults to Texture1D
}

TEST(Signatures, SpmvGatherMissesL2) {
  const auto ev = events_of("spmv");
  EXPECT_GT(ev.dram_requests, 0u);
  EXPECT_GT(ev.tex_requests, 0u);  // d_vec through texture
}

TEST(Signatures, SpmvScalarDivergesWhereVectorCoalesces) {
  // The classic CSR trade-off: the scalar kernel's val/cols reads scatter
  // across rows while the vector kernel streams within a row.
  const KernelInfo vec = workloads::make_spmv(512, 24);
  const KernelInfo sca = workloads::make_spmv_scalar(512, 24);
  const auto ev_v = analyze_trace(vec, DataPlacement::defaults(vec),
                                  kepler_arch());
  const auto ev_s = analyze_trace(sca, DataPlacement::defaults(sca),
                                  kepler_arch());
  const double tpr_v = static_cast<double>(ev_v.global_transactions) /
                       std::max<std::uint64_t>(1, ev_v.global_requests);
  const double tpr_s = static_cast<double>(ev_s.global_transactions) /
                       std::max<std::uint64_t>(1, ev_s.global_requests);
  EXPECT_GT(tpr_s, 2.0 * tpr_v);
}

TEST(Signatures, TransposeStoresFullyDiverge) {
  // Column-major stores: each lane its own line -> 32 transactions/request
  // on the store side; loads stay coalesced.
  const auto c = workloads::get_benchmark("transpose");
  const auto r = simulate(c.kernel, c.sample);
  EXPECT_GT(r.counters.replay_global_divergence, 0u);
  // Half the requests (the stores) produce 32 transactions each:
  // avg transactions/request ~ (1 + 32) / 2.
  const double tpr = static_cast<double>(r.counters.global_transactions) /
                     static_cast<double>(r.counters.global_requests);
  EXPECT_NEAR(tpr, 16.5, 1.5);
}

TEST(Signatures, FftSharedButterfliesConflict) {
  const auto c = workloads::get_benchmark("fft");
  const auto r = simulate(c.kernel, c.sample);
  EXPECT_GT(r.counters.shared_bank_conflicts, 0u);
  EXPECT_GT(r.counters.shared_requests, 0u);
}

TEST(Signatures, ConvolutionTapsBroadcastThroughConstant) {
  const auto c = workloads::get_benchmark("convolution");
  const auto r = simulate(c.kernel, c.sample);
  EXPECT_GT(r.counters.const_requests, 0u);
  // Broadcast taps: no indexed-constant divergence.
  EXPECT_EQ(r.counters.replay_const_divergence, 0u);
}

TEST(Signatures, NeuralnetConstantPlacementDiverges) {
  // The defining NN_C behaviour: weights reads are 32 distinct words.
  const auto c = workloads::get_benchmark("neuralnet");
  const int iw = c.kernel.array_index("weights");
  const auto r =
      simulate(c.kernel, c.sample.with(iw, MemSpace::Constant));
  EXPECT_GT(r.counters.replay_const_divergence,
            r.counters.const_requests * 10);
}

TEST(Signatures, ReductionAlternatesSharedAndSyncs) {
  const auto c = workloads::get_benchmark("reduction");
  const auto ev = analyze_trace(c.kernel, c.sample, kepler_arch());
  // The tree reduction keeps touching shared memory between barriers (the
  // upper tree levels predicate off whole warps, which do not count as
  // requests).
  EXPECT_GT(ev.shared_requests, 1000u);
  EXPECT_GT(ev.sync_insts, 8u * 512u);  // >= 9 barriers x 512 warps
}

TEST(Signatures, Md5hashIsComputeBound) {
  const auto ev = events_of("md5hash");
  EXPECT_LT(static_cast<double>(ev.mem_insts),
            0.01 * static_cast<double>(ev.insts_executed));
}

TEST(Signatures, S3dIssuesDoublePrecision) {
  const auto c = workloads::get_benchmark("s3d");
  const auto r = simulate(c.kernel, c.sample);
  EXPECT_GT(r.counters.inst_fp64, 0u);
  EXPECT_GT(r.counters.replay_double_issue, 0u);
}

TEST(Signatures, CfdGathersNeighborsWithDivergence) {
  const auto ev = events_of("cfd");
  EXPECT_GT(transactions_per_request(ev), 1.5);
}

TEST(Signatures, QtcReadsDistanceMatrixRows) {
  const auto ev = events_of("qtc");
  EXPECT_GT(ev.global_transactions, 0u);
  EXPECT_GT(ev.dram_requests, 0u);
}

TEST(Signatures, Stencil2dBenefitsFromTexture) {
  // The defining stencil property: the 9-point window reuses lines, and the
  // per-SM texture cache captures that reuse, cutting L2 traffic.
  const auto c = workloads::get_benchmark("stencil2d");
  const int idata = c.kernel.array_index("data");
  const auto rg = simulate(c.kernel, c.sample);
  const auto rt = simulate(c.kernel, c.sample.with(idata, MemSpace::Texture1D));
  EXPECT_LT(rt.counters.l2_transactions, rg.counters.l2_transactions);
  EXPECT_LT(rt.cycles, rg.cycles);
}

TEST(Signatures, Texture2DHelpsColumnMajorTraffic) {
  // transpose's strided stores stay, but reading idata via 2-D texture
  // tiles turns the row-major reads + column-major reuse into fewer
  // texture misses than the 1-D (pitch-linear) texture view.
  const auto c = workloads::get_benchmark("qtc");
  const int id = c.kernel.array_index("distance_matrix_txt");
  const auto r1 = simulate(c.kernel, c.sample.with(id, MemSpace::Texture1D));
  const auto r2 = simulate(c.kernel, c.sample.with(id, MemSpace::Texture2D));
  EXPECT_NE(r1.counters.tex_cache_misses, r2.counters.tex_cache_misses);
}

TEST(Signatures, SharedStagingCostsOccupancyOnlyWhenLarge) {
  // triad's 512 B slice must not cost occupancy; neuralnet's 24 KiB must.
  const auto triad = workloads::get_benchmark("triad");
  const int ib = triad.kernel.array_index("B");
  const auto lt = MemoryLayout(triad.kernel,
                               triad.sample.with(ib, MemSpace::Shared),
                               kepler_arch());
  EXPECT_EQ(lt.blocks_per_sm(kepler_arch()), 16);

  const auto nn = workloads::get_benchmark("neuralnet");
  const int iw = nn.kernel.array_index("weights");
  const auto ln = MemoryLayout(nn.kernel, nn.sample.with(iw, MemSpace::Shared),
                               kepler_arch());
  EXPECT_EQ(ln.blocks_per_sm(kepler_arch()), 2);
}

// Every benchmark's sample placement must produce a non-trivial event
// profile (a kernel that stops touching memory is a porting bug).
class SignatureSweep : public ::testing::TestWithParam<std::string> {};

TEST_P(SignatureSweep, NontrivialEventProfile) {
  const auto c = workloads::get_benchmark(GetParam());
  const auto ev = analyze_trace(c.kernel, c.sample, kepler_arch());
  EXPECT_GT(ev.insts_executed, 100u);
  if (GetParam() != "md5hash") {
    EXPECT_GT(ev.total_mem_events(), 10.0);
  }
  EXPECT_GE(ev.warps_per_sm, 1.0);
}

// FNV digest of every warp's recorded DSL stream: each op's class, count,
// array, uses_prev flag and lane indices, warp by warp. A rewritten workload
// DSL must record exactly the stream it replaces, so these are pinned here
// as well as through the simulator's golden digests.
std::uint64_t dsl_digest(const KernelInfo& k) {
  Fnv1a h;
  std::vector<DslOp> ops;
  for (std::int64_t b = 0; b < k.num_blocks; ++b) {
    for (int w = 0; w < k.warps_per_block(); ++w) {
      record_warp(k, b, w, ops);
      h.mix(ops.size());
      for (const DslOp& op : ops) {
        h.mix(op.cls);
        h.mix(op.count);
        h.mix(op.array);
        h.mix(op.uses_prev);
        for (const std::int64_t e : op.idx) h.mix(e);
      }
    }
  }
  return h.digest();
}

TEST_P(SignatureSweep, RecordedDslStreamIsPinned) {
  static const std::map<std::string, std::uint64_t> kPinned = {
      {"bfs", 0x9f9e5aefe66714beull},
      {"fft", 0xd06243300b576f25ull},
      {"neuralnet", 0x4e46f9862adee225ull},
      {"reduction", 0x1927d65142be0725ull},
      {"scan", 0x09fef9d86fd97625ull},
      {"sort", 0x4735bb047c44bbbfull},
      {"stencil2d", 0x4d5a1b96d91245e5ull},
      {"md5hash", 0xc2918ac64721cdadull},
      {"s3d", 0xac9f2064529f9725ull},
      {"convolution", 0x1aab2125196d4625ull},
      {"md", 0x4eb4baa339bbed3bull},
      {"matrixmul", 0xdc34080507b70ba5ull},
      {"spmv", 0x993bbd2da2154d7full},
      {"transpose", 0x713ac517071a64a5ull},
      {"cfd", 0x7718e0187145ac7eull},
      {"triad", 0x65f02c6d94242325ull},
      {"qtc", 0x7d30a22d89cf628dull},
  };
  const auto c = workloads::get_benchmark(GetParam());
  const std::uint64_t d = dsl_digest(c.kernel);
  EXPECT_EQ(d, kPinned.at(GetParam()))
      << GetParam() << ": 0x" << std::hex << d;
}

INSTANTIATE_TEST_SUITE_P(
    Registry, SignatureSweep,
    ::testing::Values("bfs", "fft", "neuralnet", "reduction", "scan", "sort",
                      "stencil2d", "md5hash", "s3d", "convolution", "md",
                      "matrixmul", "spmv", "transpose", "cfd", "triad", "qtc"),
    [](const auto& info) { return info.param; });

}  // namespace
}  // namespace gpuhms
