// Parallel search engine: thread-pool correctness, serial/parallel
// bit-identity of the searches, deterministic tie-breaking, batch
// prediction, trace memoization, and cap observability. This test is also
// rebuilt under -fsanitize=thread (test_search_parallel_tsan) to lock in the
// thread-safety of the shared Predictor/TraceSkeleton.
#include "model/search.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <vector>

#include "common/thread_pool.hpp"
#include "workloads/workloads.hpp"

namespace gpuhms {
namespace {

Predictor profiled_predictor(const KernelInfo& k) {
  Predictor pred(k, kepler_arch());
  pred.profile_sample(DataPlacement::defaults(k));
  return pred;
}

SearchOptions options_with_threads(int threads, std::size_t cap = 4096) {
  SearchOptions o;
  o.cap = cap;
  o.num_threads = threads;
  return o;
}

void expect_identical(const SearchResult& a, const SearchResult& b) {
  EXPECT_EQ(a.placement, b.placement);
  EXPECT_EQ(a.predicted_cycles, b.predicted_cycles);  // bit-identical
  EXPECT_EQ(a.evaluated, b.evaluated);
  EXPECT_EQ(a.space_truncated, b.space_truncated);
  EXPECT_EQ(a.space_skipped, b.space_skipped);
}

TEST(ThreadPool, CoversEveryIndexExactlyOnce) {
  ThreadPool pool(4);
  EXPECT_EQ(pool.size(), 4);
  for (std::size_t n : {std::size_t{0}, std::size_t{1}, std::size_t{7},
                        std::size_t{1000}}) {
    std::vector<std::atomic<int>> hits(n);
    pool.parallel_for(n, [&](int worker, std::size_t i) {
      EXPECT_GE(worker, 0);
      EXPECT_LT(worker, 4);
      hits[i].fetch_add(1, std::memory_order_relaxed);
    });
    for (std::size_t i = 0; i < n; ++i) EXPECT_EQ(hits[i].load(), 1) << i;
  }
}

TEST(ThreadPool, ReusableAcrossJobs) {
  ThreadPool pool(3);
  std::atomic<std::size_t> sum{0};
  for (int round = 0; round < 50; ++round) {
    pool.parallel_for(10, [&](int, std::size_t i) {
      sum.fetch_add(i, std::memory_order_relaxed);
    });
  }
  EXPECT_EQ(sum.load(), 50u * 45u);
}

// (a) Parallel exhaustive == serial exhaustive — placement, cycle count and
// all bookkeeping — on every registered workload (both Table IV suites).
TEST(SearchParallel, BitIdenticalToSerialOnEveryWorkload) {
  std::vector<workloads::BenchmarkCase> cases = workloads::evaluation_suite();
  for (auto& c : workloads::training_suite()) cases.push_back(std::move(c));
  ASSERT_FALSE(cases.empty());
  for (const auto& c : cases) {
    SCOPED_TRACE(c.name);
    const Predictor pred = profiled_predictor(c.kernel);
    // Small cap keeps the sweep tractable while still covering every kernel.
    const auto serial = search_exhaustive(pred, options_with_threads(1, 12));
    const auto parallel = search_exhaustive(pred, options_with_threads(4, 12));
    expect_identical(serial, parallel);
  }
}

// (b) Deterministic winner under ties: an array the kernel never touches
// makes every non-shared space for it predict *exactly* the same cycles; the
// search must return the lowest enumeration index (Global, the first space)
// for any thread count.
TEST(SearchParallel, DeterministicWinnerUnderTies) {
  KernelInfo k;
  k.name = "tie";
  k.num_blocks = 16;
  k.threads_per_block = 128;
  ArrayDecl data;
  data.name = "data";
  data.elems = 4096;
  ArrayDecl unused;
  unused.name = "unused";
  unused.elems = 1024;
  k.arrays = {data, unused};
  k.fn = [](WarpEmitter& em, const WarpCtx& ctx) {
    const std::int64_t base = ctx.warp_global_id() * kWarpSize;
    em.load(0, em.linear(base % 4096));
    em.falu(4, true);
  };
  const Predictor pred = profiled_predictor(k);
  const auto serial = search_exhaustive(pred, options_with_threads(1));
  const auto parallel = search_exhaustive(pred, options_with_threads(4));
  expect_identical(serial, parallel);
  // All placements of `unused` except Shared tie exactly; Global enumerates
  // first and must win the tie.
  EXPECT_EQ(serial.placement.of(1), MemSpace::Global);
}

// (c) predict_batch must match per-call predict bit-for-bit, pooled or not.
TEST(SearchParallel, PredictBatchMatchesPredict) {
  const KernelInfo k = workloads::make_spmv(256, 16);
  const Predictor pred = profiled_predictor(k);
  const auto space = enumerate_placements(k, kepler_arch(), 24);
  ThreadPool pool(3);
  const auto batch = pred.predict_batch(space, &pool);
  const auto batch_local = pred.predict_batch(space);  // internal pool
  ASSERT_EQ(batch.size(), space.size());
  for (std::size_t i = 0; i < space.size(); ++i) {
    const Prediction one = pred.predict(space[i]);
    EXPECT_EQ(batch[i].total_cycles, one.total_cycles) << i;
    EXPECT_EQ(batch[i].t_comp, one.t_comp) << i;
    EXPECT_EQ(batch[i].t_mem, one.t_mem) << i;
    EXPECT_EQ(batch[i].t_overlap, one.t_overlap) << i;
    EXPECT_EQ(batch_local[i].total_cycles, one.total_cycles) << i;
  }
}

// A single Predictor shared by many threads (the const-correctness fix):
// concurrent predict() calls must agree with the serial answer. Under the
// TSan build this is the canonical data-race probe.
TEST(SearchParallel, SharedPredictorIsThreadSafe) {
  const KernelInfo k = workloads::make_triad(1 << 12);
  Predictor pred(k, kepler_arch());
  pred.profile_sample(DataPlacement::defaults(k));
  const auto space = enumerate_placements(k, kepler_arch(), 16);
  std::vector<double> expected;
  for (const auto& p : space) expected.push_back(pred.predict(p).total_cycles);
  ThreadPool pool(4);
  std::vector<double> got(space.size());
  pool.parallel_for(space.size(), [&](int, std::size_t i) {
    got[i] = pred.predict(space[i]).total_cycles;
  });
  EXPECT_EQ(expected, got);
}

TEST(SearchParallel, OracleBitIdenticalToSerial) {
  const KernelInfo k = workloads::make_stencil2d(96, 48);
  const auto serial = search_oracle(k, kepler_arch(), options_with_threads(1));
  const auto parallel =
      search_oracle(k, kepler_arch(), options_with_threads(4));
  EXPECT_EQ(serial.best, parallel.best);
  EXPECT_EQ(serial.best_cycles, parallel.best_cycles);
  EXPECT_EQ(serial.worst, parallel.worst);
  EXPECT_EQ(serial.worst_cycles, parallel.worst_cycles);
  EXPECT_EQ(serial.simulated, parallel.simulated);
  EXPECT_EQ(serial.space_truncated, parallel.space_truncated);
  EXPECT_EQ(serial.space_skipped, parallel.space_skipped);
}

TEST(SearchParallel, TruncationIsObservable) {
  const KernelInfo k = workloads::make_spmv(256, 16);
  const auto capped = enumerate_placement_space(k, kepler_arch(), 5);
  EXPECT_EQ(capped.placements.size(), 5u);
  EXPECT_TRUE(capped.truncated);
  EXPECT_GT(capped.skipped_combinations, 0u);
  const auto full = enumerate_placement_space(k, kepler_arch());
  EXPECT_FALSE(full.truncated);
  EXPECT_EQ(full.skipped_combinations, 0u);
  EXPECT_GT(full.placements.size(), 5u);

  const Predictor pred = profiled_predictor(k);
  const auto r = search_exhaustive(pred, options_with_threads(2, 5));
  EXPECT_TRUE(r.space_truncated);
  EXPECT_EQ(r.space_skipped, capped.skipped_combinations);
  EXPECT_EQ(r.evaluated, 5u);
}

// --- deadlines and cancellation ---------------------------------------------

// An already-expired deadline returns immediately, but still with a valid,
// *scored* best-so-far placement and the deadline observable on the result.
TEST(SearchDeadline, ZeroDeadlineReturnsScoredBestSoFar) {
  const KernelInfo k = workloads::make_spmv(256, 16);
  const Predictor pred = profiled_predictor(k);
  SearchOptions o = options_with_threads(4);
  o.deadline = std::chrono::milliseconds(0);
  const SearchResult r = search_exhaustive(pred, o);
  EXPECT_TRUE(r.deadline_hit);
  EXPECT_FALSE(r.cancelled);
  EXPECT_EQ(r.evaluated, 1u);  // the first candidate is always scored
  EXPECT_GT(r.not_evaluated, 0u);
  EXPECT_GT(r.predicted_cycles, 0.0);
  // The returned placement is a real scored candidate: re-predicting it
  // reproduces the reported cycles bit-for-bit.
  EXPECT_EQ(pred.predict(r.placement).total_cycles, r.predicted_cycles);
}

// A generous deadline must not change anything: same winner, same
// bookkeeping, no flags.
TEST(SearchDeadline, FarFutureDeadlineIsIdentityOperation) {
  const KernelInfo k = workloads::make_stencil2d(96, 48);
  const Predictor pred = profiled_predictor(k);
  const SearchResult plain = search_exhaustive(pred, options_with_threads(2));
  SearchOptions o = options_with_threads(2);
  o.deadline = std::chrono::hours(24);
  const SearchResult bounded = search_exhaustive(pred, o);
  expect_identical(plain, bounded);
  EXPECT_FALSE(bounded.deadline_hit);
  EXPECT_FALSE(bounded.cancelled);
  EXPECT_EQ(bounded.not_evaluated, 0u);
}

TEST(SearchDeadline, PreSetCancelTokenStopsImmediately) {
  const KernelInfo k = workloads::make_spmv(256, 16);
  const Predictor pred = profiled_predictor(k);
  std::atomic<bool> cancel{true};
  SearchOptions o = options_with_threads(4);
  o.cancel = &cancel;
  const SearchResult r = search_exhaustive(pred, o);
  EXPECT_TRUE(r.cancelled);
  EXPECT_FALSE(r.deadline_hit);
  EXPECT_EQ(r.evaluated, 1u);
  EXPECT_GT(r.predicted_cycles, 0.0);
  EXPECT_EQ(pred.predict(r.placement).total_cycles, r.predicted_cycles);

  // An unset token is inert.
  cancel.store(false);
  const SearchResult full = search_exhaustive(pred, o);
  EXPECT_FALSE(full.cancelled);
  expect_identical(full, search_exhaustive(pred, options_with_threads(4)));
}

TEST(SearchDeadline, OracleHonorsDeadlineWithBestSoFar) {
  const KernelInfo k = workloads::make_vecadd(1 << 10);
  SearchOptions o = options_with_threads(2, 16);
  o.deadline = std::chrono::milliseconds(0);
  const OracleResult r = search_oracle(k, kepler_arch(), o);
  EXPECT_TRUE(r.deadline_hit);
  EXPECT_EQ(r.simulated, 1u);
  EXPECT_GT(r.not_simulated, 0u);
  EXPECT_GT(r.best_cycles, 0u);
  EXPECT_EQ(r.best, r.worst);  // only one candidate examined
}

// try_search reports deadline expiry as OK-with-flag, not as an error.
TEST(SearchDeadline, TrySearchTreatsDeadlineAsOk) {
  const KernelInfo k = workloads::make_spmv(256, 16);
  const Predictor pred = profiled_predictor(k);
  SearchOptions o = options_with_threads(2);
  o.deadline = std::chrono::milliseconds(0);
  const auto r = try_search(pred, SearchAlgo::kExhaustive, o);
  ASSERT_TRUE(r.ok()) << r.status().to_string();
  EXPECT_TRUE(r->deadline_hit);
}

TEST(SearchParallel, TrainOverlapModelDeterministicAcrossPools) {
  std::vector<workloads::BenchmarkCase> suite = workloads::training_suite();
  std::vector<TrainingCase> cases;
  for (const auto& c : suite) {
    cases.push_back({&c.kernel, c.sample});
    if (cases.size() >= 4) break;  // a slice is enough to pin determinism
  }
  ThreadPool serial(1), wide(4);
  const ToverlapModel a =
      train_overlap_model(cases, kepler_arch(), {}, 1e-3, &serial);
  const ToverlapModel b =
      train_overlap_model(cases, kepler_arch(), {}, 1e-3, &wide);
  EXPECT_EQ(a.coefficients(), b.coefficients());
}

}  // namespace
}  // namespace gpuhms
