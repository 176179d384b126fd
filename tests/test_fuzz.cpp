// Randomized end-to-end robustness: generate random DSL kernels (random op
// mixes, access patterns, divergence, barriers, partial warps) and random
// legal placements, then assert the pipeline-wide invariants that must hold
// for ANY kernel: the simulator terminates with consistent counters, the
// trace analysis agrees with it on order-insensitive counts, and the
// predictor returns finite positive predictions.
#include <cmath>

#include <gtest/gtest.h>

#include "common/rng.hpp"
#include "model/predictor.hpp"

namespace gpuhms {
namespace {

KernelInfo random_kernel(std::uint64_t seed) {
  Rng rng(seed);
  KernelInfo k;
  k.name = "fuzz";
  k.num_blocks = static_cast<std::int64_t>(rng.next_range(1, 24));
  k.threads_per_block = static_cast<int>(rng.next_range(1, 8)) * 32;
  if (rng.next_bool(0.2)) k.threads_per_block += 7;  // partial tail warp

  const int n_arrays = static_cast<int>(rng.next_range(1, 4));
  for (int a = 0; a < n_arrays; ++a) {
    ArrayDecl d;
    d.name = "arr" + std::to_string(a);
    d.dtype = rng.next_bool(0.3) ? DType::F64
              : rng.next_bool(0.5) ? DType::I32
                                   : DType::F32;
    d.elems = 1u << rng.next_range(8, 14);
    d.width = rng.next_bool(0.5) ? 64 : 0;
    d.written = a == 0;  // one writable array
    d.shared_slice_elems =
        rng.next_bool(0.5) ? static_cast<std::size_t>(k.threads_per_block) : 0;
    if (d.shared_slice_elems > d.elems) d.shared_slice_elems = d.elems;
    d.default_space = MemSpace::Global;
    k.arrays.push_back(d);
  }

  // Program: a random recipe, identical across warps (well-formed barriers).
  struct Step {
    int kind;      // 0 compute, 1 load, 2 store, 3 sync
    int array;
    int count;
    std::int64_t stride;
    bool dep;
  };
  std::vector<Step> steps;
  const int n_steps = static_cast<int>(rng.next_range(3, 12));
  bool has_shared_like = false;
  for (int s = 0; s < n_steps; ++s) {
    Step st;
    st.kind = static_cast<int>(rng.next_below(10));
    st.kind = st.kind < 4 ? 0 : st.kind < 8 ? 1 : st.kind < 9 ? 2 : 3;
    st.array = static_cast<int>(rng.next_below(
        static_cast<std::uint64_t>(n_arrays)));
    if (st.kind == 2) st.array = 0;  // stores to the writable array only
    st.count = static_cast<int>(rng.next_range(1, 4));
    st.stride = rng.next_bool(0.3) ? rng.next_range(1, 33) : 1;
    st.dep = rng.next_bool(0.5);
    steps.push_back(st);
    has_shared_like = true;
  }
  (void)has_shared_like;

  k.fn = [steps, arrays = k.arrays](WarpEmitter& em, const WarpCtx& ctx) {
    for (const auto& st : steps) {
      switch (st.kind) {
        case 0:
          em.falu(st.count, st.dep);
          break;
        case 1:
        case 2: {
          const auto& arr = arrays[static_cast<std::size_t>(st.array)];
          const std::int64_t n = static_cast<std::int64_t>(arr.elems);
          const auto idx = em.by_lane([&](int l) {
            const std::int64_t e =
                (ctx.thread_id(l) * st.stride) % n;
            return e;
          });
          if (st.kind == 1) {
            em.load(st.array, idx, st.dep);
          } else {
            em.store(st.array, idx, st.dep);
          }
          break;
        }
        case 3:
          em.sync();
          break;
      }
    }
  };
  return k;
}

DataPlacement random_legal_placement(const KernelInfo& k, Rng& rng) {
  DataPlacement p = DataPlacement::defaults(k);
  for (std::size_t a = 0; a < k.arrays.size(); ++a) {
    const auto legal = legal_spaces(k, static_cast<int>(a), kepler_arch());
    p.set(static_cast<int>(a),
          legal[rng.next_below(legal.size())]);
  }
  // Joint constraints (total shared/constant capacity) may still fail;
  // fall back to defaults in that case.
  if (validate_placement(k, p, kepler_arch())) return DataPlacement::defaults(k);
  return p;
}

class FuzzPipeline : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(FuzzPipeline, InvariantsHoldForRandomKernels) {
  const std::uint64_t seed = GetParam();
  const KernelInfo k = random_kernel(seed);
  Rng rng(seed ^ 0xabcdef);
  const DataPlacement placement = random_legal_placement(k, rng);

  // 1. The simulator terminates and its counters are self-consistent.
  const SimResult r = simulate(k, placement);
  EXPECT_GT(r.cycles, 0u);
  EXPECT_GE(r.counters.inst_issued, r.counters.inst_executed);
  EXPECT_EQ(r.counters.inst_issued,
            r.counters.inst_executed + r.counters.replays_total());
  EXPECT_EQ(r.counters.issue_slots, r.counters.inst_issued);
  EXPECT_LE(r.counters.l2_misses, r.counters.l2_transactions);
  EXPECT_LE(r.counters.dram_requests, r.counters.l2_misses);
  EXPECT_EQ(r.dram.total_requests, r.counters.dram_requests);
  EXPECT_EQ(r.dram.row_hits() + r.dram.row_misses() + r.dram.row_conflicts(),
            r.dram.total_requests);

  // 2. Trace analysis agrees on order-insensitive counts.
  const PlacementEvents ev = analyze_trace(k, placement, kepler_arch());
  EXPECT_EQ(ev.insts_executed, r.counters.inst_executed);
  EXPECT_EQ(ev.global_transactions, r.counters.global_transactions);
  EXPECT_EQ(ev.shared_conflicts, r.counters.shared_bank_conflicts);
  EXPECT_EQ(ev.replay_global_divergence,
            r.counters.replay_global_divergence);
  EXPECT_EQ(ev.mem_insts, r.counters.ldst_executed);
  EXPECT_LE(ev.load_insts, ev.mem_insts);

  // 3. The predictor returns finite, positive, anchored predictions for
  //    another random placement.
  Predictor pred(k, kepler_arch());
  pred.set_sample(placement, r);
  const DataPlacement target = random_legal_placement(k, rng);
  const Prediction p = pred.predict(target);
  EXPECT_TRUE(std::isfinite(p.total_cycles));
  EXPECT_GT(p.total_cycles, 0.0);
  EXPECT_TRUE(std::isfinite(p.amat));
  EXPECT_GE(p.inst.issued_total, 0.0);
}

INSTANTIATE_TEST_SUITE_P(Seeds, FuzzPipeline,
                         ::testing::Range<std::uint64_t>(1, 33));

}  // namespace
}  // namespace gpuhms
