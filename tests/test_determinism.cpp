// Determinism lock-in: search_exhaustive and predict_batch must return
// byte-identical results regardless of GPUHMS_THREADS (the env-selected
// worker count), across repeated runs, and — the observability guarantee —
// with metrics and tracing enabled. Instrumentation observes, it must never
// participate in model results.
#include "model/search.hpp"

#include <cstring>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/obs.hpp"
#include "test_util.hpp"
#include "workloads/workloads.hpp"

namespace gpuhms {
namespace {

// Bitwise double comparison: "deterministic" here means identical bits, not
// identical within a tolerance.
bool same_bits(double a, double b) {
  return std::memcmp(&a, &b, sizeof a) == 0;
}

Predictor profiled_predictor(const KernelInfo& k) {
  Predictor pred(k, kepler_arch());
  pred.profile_sample(DataPlacement::defaults(k));
  return pred;
}

// Search with the worker count taken from GPUHMS_THREADS (num_threads = 0),
// exactly how an end user steers parallelism.
SearchResult search_with_env_threads(const Predictor& pred,
                                     const char* threads) {
  testutil::ScopedEnv env("GPUHMS_THREADS", threads);
  SearchOptions o;
  o.cap = 64;
  o.num_threads = 0;
  return search_exhaustive(pred, o);
}

std::vector<Prediction> batch_with_env_threads(const Predictor& pred,
                                               const std::vector<DataPlacement>& space,
                                               const char* threads) {
  testutil::ScopedEnv env("GPUHMS_THREADS", threads);
  return pred.predict_batch(space);
}

void expect_identical(const SearchResult& a, const SearchResult& b,
                      const std::string& what) {
  SCOPED_TRACE(what);
  EXPECT_EQ(a.placement, b.placement);
  EXPECT_TRUE(same_bits(a.predicted_cycles, b.predicted_cycles));
  EXPECT_EQ(a.evaluated, b.evaluated);
  EXPECT_EQ(a.space_truncated, b.space_truncated);
  EXPECT_EQ(a.space_skipped, b.space_skipped);
  EXPECT_EQ(a.not_evaluated, b.not_evaluated);
}

void expect_identical(const std::vector<Prediction>& a,
                      const std::vector<Prediction>& b,
                      const std::string& what) {
  SCOPED_TRACE(what);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_TRUE(same_bits(a[i].total_cycles, b[i].total_cycles)) << i;
    EXPECT_TRUE(same_bits(a[i].raw_cycles, b[i].raw_cycles)) << i;
    EXPECT_TRUE(same_bits(a[i].t_comp, b[i].t_comp)) << i;
    EXPECT_TRUE(same_bits(a[i].t_mem, b[i].t_mem)) << i;
    EXPECT_TRUE(same_bits(a[i].t_overlap, b[i].t_overlap)) << i;
    EXPECT_TRUE(same_bits(a[i].amat, b[i].amat)) << i;
    EXPECT_TRUE(same_bits(a[i].dram_lat, b[i].dram_lat)) << i;
    EXPECT_EQ(a[i].queue_saturated, b[i].queue_saturated) << i;
  }
}

TEST(Determinism, SearchIdenticalAcrossThreadCounts) {
  const KernelInfo k = workloads::make_spmv(256, 16);
  const Predictor pred = profiled_predictor(k);
  const SearchResult one = search_with_env_threads(pred, "1");
  for (const char* t : {"4", "16"}) {
    expect_identical(one, search_with_env_threads(pred, t),
                     std::string("GPUHMS_THREADS=") + t);
  }
}

TEST(Determinism, SearchIdenticalAcrossRepeatedRuns) {
  const KernelInfo k = workloads::make_stencil2d(96, 48);
  const Predictor pred = profiled_predictor(k);
  const SearchResult first = search_with_env_threads(pred, "4");
  for (int run = 0; run < 3; ++run) {
    expect_identical(first, search_with_env_threads(pred, "4"),
                     "repeat run " + std::to_string(run));
  }
}

TEST(Determinism, MetricsAndTracingDoNotChangeResults) {
  const KernelInfo k = workloads::make_spmv(256, 16);
  const Predictor pred = profiled_predictor(k);
  const auto space = enumerate_placements(k, kepler_arch(), 32);

  obs::set_enabled(false);
  const SearchResult plain_search = search_with_env_threads(pred, "4");
  const auto plain_batch = batch_with_env_threads(pred, space, "4");

  // Full observability on: every instrumented path now records.
  obs::set_enabled(true);
  obs::reset_all_metrics();
  obs::start_tracing();
  const SearchResult obs_search = search_with_env_threads(pred, "4");
  const auto obs_batch = batch_with_env_threads(pred, space, "4");
  obs::stop_tracing();
  obs::set_enabled(false);

  expect_identical(plain_search, obs_search, "search with metrics+tracing");
  expect_identical(plain_batch, obs_batch, "batch with metrics+tracing");

  // The instrumented run actually observed the search (the comparison
  // above would be vacuous against dead instrumentation).
  const obs::MetricsSnapshot s = obs::snapshot();
  const auto* searches = s.find_counter("search.searches");
  ASSERT_NE(searches, nullptr);
  EXPECT_GE(searches->value, 1u);
  const auto* predictions = s.find_counter("predictor.predictions");
  ASSERT_NE(predictions, nullptr);
  EXPECT_GE(predictions->value, space.size());
  obs::reset_all_metrics();
}

TEST(Determinism, BatchIdenticalAcrossThreadCountsAndRuns) {
  const KernelInfo k = workloads::make_triad(1 << 12);
  Predictor pred(k, kepler_arch());
  pred.profile_sample(DataPlacement::defaults(k));
  const auto space = enumerate_placements(k, kepler_arch(), 24);
  const auto one = batch_with_env_threads(pred, space, "1");
  for (const char* t : {"4", "16"}) {
    expect_identical(one, batch_with_env_threads(pred, space, t),
                     std::string("GPUHMS_THREADS=") + t);
  }
  expect_identical(one, batch_with_env_threads(pred, space, "1"),
                   "repeat run");
}

}  // namespace
}  // namespace gpuhms
