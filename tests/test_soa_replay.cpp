// Differential lock-in for the data-oriented SoA replay engine
// (src/trace/soa.*): on every registered backend, the skeleton-backed SoA
// analysis must be bit-for-bit identical to the full walk over the lowered
// trace (TraceAnalyzer::analyze without a skeleton) — same counters, same
// per-bank arrival/service statistics (order-sensitive doubles), same
// predictions.
#include <algorithm>
#include <cstdint>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "arch/arch_registry.hpp"
#include "model/predictor.hpp"
#include "model/trace_analysis.hpp"
#include "sim_compare.hpp"
#include "trace/generator.hpp"
#include "workloads/workloads.hpp"

namespace gpuhms {
namespace {

using testutil::expect_events_identical;
using testutil::same_bits;

// Runs `placement` through the SoA engine (against `skel`) and through the
// full walk (no skeleton) on `arch`, and requires bitwise-equal results.
// Placements the arch cannot hold are skipped; returns whether it ran.
bool expect_soa_matches_full_walk(const KernelInfo& k, const DataPlacement& p,
                                  const TraceSkeleton& skel,
                                  const GpuArch& arch) {
  if (validate_placement(k, p, arch).has_value()) return false;
  TraceAnalyzer an(k, arch);
  const PlacementEvents soa = an.analyze(p, &skel);
  const PlacementEvents full = an.analyze(p, nullptr);
  expect_events_identical(soa, full);
  return true;
}

// The full seed-workload sweep: every benchmark of both suites, its sample
// placement plus every figure placement, on every registered backend, from
// one skeleton per (kernel, backend), as serve records one per (benchmark,
// arch) entry. (Suite name carries "EveryWorkload" so sanitizer binaries can
// filter the heavy sweep like the other sweeps.)
TEST(SoaReplayEveryWorkload, MatchesFullWalkBitForBitOnEveryBackend) {
  std::vector<workloads::BenchmarkCase> cases = workloads::training_suite();
  for (workloads::BenchmarkCase& c : workloads::evaluation_suite())
    cases.push_back(std::move(c));
  for (const workloads::BenchmarkCase& c : cases) {
    SCOPED_TRACE(c.name);
    for (const std::string& name : ArchRegistry::builtin().names()) {
      SCOPED_TRACE(name);
      const GpuArch& arch = ArchRegistry::builtin().find(name)->arch;
      const TraceSkeleton skel(c.kernel, arch);
      EXPECT_TRUE(expect_soa_matches_full_walk(c.kernel, c.sample, skel, arch));
      for (const workloads::PlacementTest& t : c.tests) {
        SCOPED_TRACE(t.id);
        expect_soa_matches_full_walk(c.kernel, t.placement, skel, arch);
      }
    }
  }
}

// Every placement that stages an array into shared memory, on every
// backend, from one skeleton per (kernel, backend): the staging preamble's
// copy-in tables (memoized beside the body's) must give exactly the full
// walk's counters. matrixmul stages both slice kinds, a replicated slice (C,
// one block class) and per-block slices (A and B), and some of its
// placements stage two arrays at once. One thread per backend, as in a
// serve process answering for several archs at once.
TEST(SoaReplayEveryWorkload, StagedPlacementsMatchFullWalkOnEveryBackend) {
  std::vector<workloads::BenchmarkCase> cases;
  for (const char* name : {"matrixmul", "spmv", "triad"})
    cases.push_back(workloads::get_benchmark(name));
  // Per case: staged placements run, those staging two or more arrays, and
  // whether a replicated / per-block slice was staged.
  struct Seen {
    std::size_t runs = 0;
    std::size_t multi = 0;
    bool replicated = false;
    bool per_block = false;
  };
  const std::vector<std::string> archs = ArchRegistry::builtin().names();
  std::vector<std::vector<Seen>> seen(archs.size(),
                                      std::vector<Seen>(cases.size()));
  std::vector<std::thread> threads;
  for (std::size_t ai = 0; ai < archs.size(); ++ai) {
    threads.emplace_back([&, ai] {
      SCOPED_TRACE(archs[ai]);
      const GpuArch& arch = ArchRegistry::builtin().find(archs[ai])->arch;
      for (std::size_t ci = 0; ci < cases.size(); ++ci) {
        const KernelInfo& k = cases[ci].kernel;
        SCOPED_TRACE(k.name);
        const TraceSkeleton skel(k, arch);
        Seen& s = seen[ai][ci];
        for (const DataPlacement& p : enumerate_placements(k, arch)) {
          const TraceMaterializer mat(k, p, arch);
          if (mat.staged_arrays().empty()) continue;
          SCOPED_TRACE(p.to_string());
          EXPECT_TRUE(expect_soa_matches_full_walk(k, p, skel, arch));
          ++s.runs;
          if (mat.staged_arrays().size() > 1) ++s.multi;
          for (int a : mat.staged_arrays()) {
            (skel.copy_in_classes(a) == 1 ? s.replicated : s.per_block) =
                true;
          }
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();
  for (std::size_t ai = 0; ai < archs.size(); ++ai) {
    for (std::size_t ci = 0; ci < cases.size(); ++ci) {
      SCOPED_TRACE(archs[ai] + " " + cases[ci].name);
      EXPECT_GT(seen[ai][ci].runs, 0u);
    }
    const Seen& mm = seen[ai][0];  // matrixmul
    EXPECT_TRUE(mm.replicated);
    EXPECT_TRUE(mm.per_block);
    EXPECT_GT(mm.multi, 0u);
  }
}

// Randomized synthetic kernels: irregular masks (including fully
// predicated-off warps), unsorted and duplicate lane indices, random
// dependencies and mixed compute/sync streams — the trace shapes the seed
// workloads are too regular to produce.
KernelInfo make_random_kernel(std::uint64_t seed) {
  std::mt19937_64 setup(seed);
  KernelInfo k;
  k.name = "soa_synth_" + std::to_string(seed);
  const int num_arrays = 3 + static_cast<int>(setup() % 3);
  for (int a = 0; a < num_arrays; ++a) {
    ArrayDecl d;
    d.name = "arr" + std::to_string(a);
    d.dtype = DType::F32;
    d.elems = 512 + setup() % 1024;
    d.width = setup() % 2 == 0 ? 32 : 0;
    d.written = setup() % 3 == 0;
    d.shared_slice_elems = 128;
    d.default_space = MemSpace::Global;
    k.arrays.push_back(d);
  }
  k.num_blocks = 6;
  k.threads_per_block = 64;
  std::vector<std::uint64_t> elems;
  std::vector<bool> written;
  for (const ArrayDecl& d : k.arrays) {
    elems.push_back(d.elems);
    written.push_back(d.written);
  }
  k.fn = [seed, num_arrays, elems, written](WarpEmitter& e,
                                            const WarpCtx& ctx) {
    std::mt19937_64 rng(seed ^ (static_cast<std::uint64_t>(ctx.block) *
                                    0x9e3779b97f4a7c15ull +
                                static_cast<std::uint64_t>(ctx.warp_in_block)));
    const int nops = 8 + static_cast<int>(rng() % 12);
    for (int j = 0; j < nops; ++j) {
      switch (rng() % 6) {
        case 0:
          e.ialu(1 + static_cast<int>(rng() % 3), rng() % 2 == 0);
          break;
        case 1:
          e.falu(1, rng() % 2 == 0);
          break;
        case 2:
          e.sync();
          break;
        default: {
          const int a = static_cast<int>(rng() % num_arrays);
          const bool fully_masked = rng() % 13 == 0;
          const LaneIdx idx = e.by_lane([&](int) -> std::int64_t {
            if (fully_masked || rng() % 8 == 0) return kInactiveLane;
            // Unsorted with duplicates: uniform random over the array.
            return static_cast<std::int64_t>(rng() % elems[a]);
          });
          if (written[a] && rng() % 3 == 0) {
            e.store(a, idx, rng() % 2 == 0);
          } else {
            e.load(a, idx, rng() % 2 == 0);
          }
          break;
        }
      }
    }
  };
  return k;
}

TEST(SoaReplay, RandomizedSyntheticTracesMatchFullWalkOnEveryBackend) {
  for (std::uint64_t seed : {1ull, 2ull, 3ull}) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    const KernelInfo k = make_random_kernel(seed);
    for (const std::string& name : ArchRegistry::builtin().names()) {
      SCOPED_TRACE(name);
      const GpuArch& arch = ArchRegistry::builtin().find(name)->arch;
      const TraceSkeleton skel(k, arch);
      std::mt19937_64 rng(seed * 77ull + 5ull);
      EXPECT_TRUE(
          expect_soa_matches_full_walk(k, DataPlacement::defaults(k), skel,
                                       arch));
      int tried = 0;
      for (int cand = 0; cand < 24 && tried < 8; ++cand) {
        DataPlacement p = DataPlacement::defaults(k);
        for (int a = 0; a < static_cast<int>(k.arrays.size()); ++a) {
          const std::vector<MemSpace> spaces = legal_spaces(k, a, arch);
          p.set(a, spaces[rng() % spaces.size()]);
        }
        SCOPED_TRACE("candidate " + std::to_string(cand));
        if (expect_soa_matches_full_walk(k, p, skel, arch)) ++tried;
      }
      EXPECT_GT(tried, 0);
    }
  }
}

// One wave whose warps end at different rounds, the shortest warp both first
// and last: records issued below every earlier warp's op count take their
// rank as the warp index, later rounds need the count of earlier warps
// already finished. The first warp's one load of "in" issues at round a (its
// addressing inserts) and ends the warp at a + 1, where the next warps, one
// compute op ahead, issue theirs: the round at which the first warp counts
// as finished. Those loads read lines no other warp reads, and every later
// load of "tab" reads 32 fresh lines, so the DRAM banks they share record
// the boundary round's ticks in their interarrival times. Array "in" is read
// inside its block's slice, so placing it in shared memory stages it (every
// warp copies two chunks).
KernelInfo make_ragged_kernel() {
  KernelInfo k;
  k.name = "soa_ragged";
  constexpr std::int64_t kSlice = 256;
  constexpr std::int64_t kMaxSteps = 8;
  ArrayDecl in;
  in.name = "in";
  in.elems = 3 * kSlice;
  in.shared_slice_elems = kSlice;
  ArrayDecl tab;
  tab.name = "tab";
  tab.elems = 12 * kMaxSteps * kWarpSize * kWarpSize;
  ArrayDecl out;
  out.name = "out";
  out.elems = 3 * kSlice;
  out.written = true;
  k.arrays = {in, tab, out};
  k.num_blocks = 3;
  k.threads_per_block = 4 * kWarpSize;
  const std::int64_t last = k.total_warps() - 1;
  k.fn = [last](WarpEmitter& e, const WarpCtx& ctx) {
    const std::int64_t gw = ctx.block * 4 + ctx.warp_in_block;
    const auto in_line = [&](std::int64_t j) {
      return e.linear(ctx.block * kSlice + (j * kWarpSize) % kSlice);
    };
    if (gw == 0 || gw == last) {
      e.load(0, in_line(ctx.warp_in_block));
      return;
    }
    e.falu(1, true);
    e.load(0, in_line(ctx.warp_in_block));
    const std::int64_t steps = 1 + (gw * 5) % 7;
    for (std::int64_t s = 0; s < steps; ++s) {
      e.load(1, e.linear((gw * kMaxSteps + s) * kWarpSize * kWarpSize,
                         kWarpSize));
      e.falu(1, true);
      e.load(0, in_line(ctx.warp_in_block + s + 1));
      if (s % 2 == 1) e.store(2, e.linear(ctx.block * kSlice + s), true);
    }
  };
  return k;
}

TEST(SoaReplay, RaggedWarpsInOneWaveMatchFullWalkOnEveryBackend) {
  const KernelInfo k = make_ragged_kernel();
  const std::size_t last = static_cast<std::size_t>(k.total_warps() - 1);
  for (const std::string& name : ArchRegistry::builtin().names()) {
    SCOPED_TRACE(name);
    const GpuArch& arch = ArchRegistry::builtin().find(name)->arch;
    const TraceSkeleton skel(k, arch);
    std::size_t staged = 0;
    for (const DataPlacement& p : enumerate_placements(k, arch)) {
      SCOPED_TRACE(p.to_string());
      const TraceMaterializer mat(k, p, arch);
      // The shape the case is for: one wave, the first and the last warp
      // equally short and strictly shorter than a warp between them.
      ASSERT_LE(k.num_blocks,
                static_cast<std::int64_t>(arch.num_sms) *
                    mat.layout().blocks_per_sm(arch));
      const std::uint32_t shortest = mat.warp_ops(skel, 0);
      EXPECT_EQ(mat.warp_ops(skel, last), shortest);
      std::uint32_t longest = 0;
      for (std::size_t w = 0; w <= last; ++w) {
        EXPECT_GE(mat.warp_ops(skel, w), shortest);
        longest = std::max(longest, mat.warp_ops(skel, w));
      }
      EXPECT_GT(longest, shortest);
      if (!mat.staged_arrays().empty()) ++staged;
      EXPECT_TRUE(expect_soa_matches_full_walk(k, p, skel, arch));
    }
    EXPECT_GT(staged, 0u);
  }
}

// End-to-end: predictions (the models consume the events wholesale) must be
// bit-identical whether the predictor replays its skeleton (SoA engine) or
// scores the full walk's events through the anchored events overload; the
// events themselves are compared counter by counter first.
void expect_predictions_match_full_walk(
    const KernelInfo& k, const DataPlacement& sample,
    const std::vector<DataPlacement>& placements) {
  Predictor pred(k, kepler_arch());
  pred.profile_sample(sample);
  const TraceSkeleton skel(k, kepler_arch());
  TraceAnalyzer an = pred.make_analyzer();
  for (const DataPlacement& p : placements) {
    SCOPED_TRACE(k.name + " " + p.to_string());
    const PlacementEvents full = an.analyze(p, nullptr);
    expect_events_identical(an.analyze(p, &skel), full);
    const Prediction a = pred.predict(p);
    const Prediction b = pred.predict(full);
    EXPECT_TRUE(same_bits(a.total_cycles, b.total_cycles));
    EXPECT_TRUE(same_bits(a.t_comp, b.t_comp));
    EXPECT_TRUE(same_bits(a.t_mem, b.t_mem));
    EXPECT_TRUE(same_bits(a.t_overlap, b.t_overlap));
    EXPECT_TRUE(same_bits(a.amat, b.amat));
  }
}

// Inputs: matrixmul's Table IV placements, and every candidate of a whole
// placement space — each placement a search could score and return.
TEST(SoaReplay, PredictionsMatchFullWalkBitForBit) {
  const workloads::BenchmarkCase c = workloads::get_benchmark("matrixmul");
  std::vector<DataPlacement> tests;
  for (const workloads::PlacementTest& t : c.tests)
    tests.push_back(t.placement);
  expect_predictions_match_full_walk(c.kernel, c.sample, tests);

  const KernelInfo stencil = workloads::make_stencil2d(128, 64);
  expect_predictions_match_full_walk(
      stencil, DataPlacement::defaults(stencil),
      enumerate_placements(stencil, kepler_arch()));
}

}  // namespace
}  // namespace gpuhms
