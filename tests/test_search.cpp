#include "model/search.hpp"

#include <gtest/gtest.h>

#include <vector>

#include "workloads/workloads.hpp"

namespace gpuhms {
namespace {

Predictor profiled_predictor(const KernelInfo& k) {
  Predictor pred(k, kepler_arch());
  pred.profile_sample(DataPlacement::defaults(k));
  return pred;
}

TEST(SearchExhaustive, FindsMinimumOfPredictedSpace) {
  const KernelInfo k = workloads::make_stencil2d(128, 64);
  const Predictor pred = profiled_predictor(k);
  const auto r = search_exhaustive(pred);
  // Recompute one plain predict() per candidate: the search's winner must
  // be exactly the first minimum of those predictions, bit for bit.
  const auto space = enumerate_placements(k, kepler_arch());
  std::size_t argmin = 0;
  std::vector<double> plain;
  for (const auto& p : space) {
    plain.push_back(pred.predict(p).total_cycles);
    if (plain.back() < plain[argmin]) argmin = plain.size() - 1;
  }
  EXPECT_EQ(r.placement, space[argmin]);
  EXPECT_EQ(r.predicted_cycles, plain[argmin]);  // bit-identical
  // Every candidate is scored: the enumerator has no pruning.
  EXPECT_EQ(r.evaluated, space.size());
  EXPECT_FALSE(r.space_truncated);
}

TEST(SearchExhaustive, RespectsCap) {
  const KernelInfo k = workloads::make_vecadd(1 << 12);
  const Predictor pred = profiled_predictor(k);
  SearchOptions o;
  o.cap = 5;
  const auto r = search_exhaustive(pred, o);
  EXPECT_EQ(r.evaluated, 5u);
  EXPECT_TRUE(r.space_truncated);
  EXPECT_GT(r.space_skipped, 0u);
}

TEST(SearchOracle, BestNotWorseThanWorst) {
  const KernelInfo k = workloads::make_stencil2d(128, 64);
  const auto r = search_oracle(k, kepler_arch());
  EXPECT_LE(r.best_cycles, r.worst_cycles);
  EXPECT_GT(r.simulated, 1u);
  EXPECT_FALSE(validate_placement(k, r.best, kepler_arch()).has_value());
}

TEST(SearchOracle, BestBeatsOrMatchesDefault) {
  const KernelInfo k = workloads::make_vecadd(1 << 12);
  const auto r = search_oracle(k, kepler_arch());
  const auto dflt = simulate(k, DataPlacement::defaults(k), kepler_arch());
  EXPECT_LE(r.best_cycles, dflt.cycles);
}

}  // namespace
}  // namespace gpuhms
