// Deterministic fault injection: Nth-hit arming fires exactly once at the
// same execution regardless of thread count, injected worker exceptions
// surface as INTERNAL from the try_* APIs with the pool still usable, and
// the queuing sites drive their degraded-mode path end to end (finite
// predictions with `saturated` set).
#include "common/fault_injection.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <vector>

#include "common/thread_pool.hpp"
#include "model/search.hpp"
#include "workloads/workloads.hpp"

namespace gpuhms {
namespace {

// Every test leaves the global fault registry clean.
class FaultInjection : public ::testing::Test {
 protected:
  void TearDown() override { fault::disarm_all(); }
};

TEST_F(FaultInjection, FiresExactlyOnTheNthHitAndOnlyOnce) {
  fault::arm("test.site", 3);
  std::vector<int> fired;
  for (int i = 1; i <= 10; ++i) {
    if (GPUHMS_FAULT_POINT("test.site")) fired.push_back(i);
  }
  EXPECT_EQ(fired, std::vector<int>{3});
  // Once fired, the site stops counting (GPUHMS_FAULT_POINT short-circuits
  // at enabled() when nothing is left armed).
  EXPECT_EQ(fault::hits("test.site"), 3u);
}

TEST_F(FaultInjection, RearmingResetsTheHitCounter) {
  fault::arm("test.site", 2);
  EXPECT_FALSE(GPUHMS_FAULT_POINT("test.site"));
  EXPECT_TRUE(GPUHMS_FAULT_POINT("test.site"));
  fault::arm("test.site", 2);
  EXPECT_EQ(fault::hits("test.site"), 0u);
  EXPECT_FALSE(GPUHMS_FAULT_POINT("test.site"));
  EXPECT_TRUE(GPUHMS_FAULT_POINT("test.site"));
}

TEST_F(FaultInjection, DisarmedSitesNeverFire) {
  fault::arm("test.site", 1);
  fault::disarm("test.site");
  for (int i = 0; i < 5; ++i) EXPECT_FALSE(GPUHMS_FAULT_POINT("test.site"));
  // Unarmed sites are not counted either.
  fault::disarm_all();
  EXPECT_EQ(fault::hits("test.site"), 0u);
}

TEST_F(FaultInjection, ArmFromSpecParsesAndRejects) {
  EXPECT_TRUE(fault::arm_from_spec("a.site:2,b.site:1"));
  EXPECT_FALSE(GPUHMS_FAULT_POINT("a.site"));
  EXPECT_TRUE(GPUHMS_FAULT_POINT("a.site"));
  EXPECT_TRUE(GPUHMS_FAULT_POINT("b.site"));
  fault::disarm_all();

  // Malformed specs arm nothing (whole-spec validation).
  EXPECT_FALSE(fault::arm_from_spec("a.site"));        // missing :nth
  EXPECT_FALSE(fault::arm_from_spec("a.site:0"));      // nth must be >= 1
  EXPECT_FALSE(fault::arm_from_spec("a.site:x"));      // not an integer
  EXPECT_FALSE(fault::arm_from_spec("good:1,bad"));    // one bad entry
  EXPECT_FALSE(GPUHMS_FAULT_POINT("good"));
}

TEST_F(FaultInjection, InjectedFaultNamesTheSite) {
  const InjectedFault f("trace.lower");
  EXPECT_NE(std::string(f.what()).find("trace.lower"), std::string::npos);
}

// --- ThreadPool exception capture -------------------------------------------

TEST_F(FaultInjection, PoolTaskFaultRethrownOnCallingThread) {
  ThreadPool pool(4);
  fault::arm("pool.task", 5);
  EXPECT_THROW(pool.parallel_for(64, [](int, std::size_t) {}), InjectedFault);
  // The pool must remain fully usable after a job threw.
  std::vector<std::atomic<int>> hitcount(100);
  pool.parallel_for(100, [&](int, std::size_t i) {
    hitcount[i].fetch_add(1, std::memory_order_relaxed);
  });
  for (std::size_t i = 0; i < hitcount.size(); ++i)
    EXPECT_EQ(hitcount[i].load(), 1) << i;
}

TEST_F(FaultInjection, UserExceptionAlsoCapturedNotTerminate) {
  ThreadPool pool(3);
  try {
    pool.parallel_for(32, [](int, std::size_t i) {
      if (i == 7) throw std::runtime_error("task 7 failed");
    });
    FAIL() << "expected the worker exception to be rethrown";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "task 7 failed");
  }
  // Serial (size-1) pools capture on the inline path too.
  ThreadPool serial(1);
  EXPECT_THROW(
      serial.parallel_for(4,
                          [](int, std::size_t) {
                            throw std::runtime_error("inline");
                          }),
      std::runtime_error);
}

// --- faults inside the model pipeline ----------------------------------------

TEST_F(FaultInjection, SearchUnderInjectedLoweringFaultReturnsInternal) {
  const KernelInfo k = workloads::make_vecadd(1 << 12);
  Predictor pred(k, kepler_arch());
  pred.profile_sample(DataPlacement::defaults(k));

  SearchOptions o;
  o.cap = 16;
  o.num_threads = 4;
  const SearchResult clean = search_exhaustive(pred, o);

  fault::arm("trace.lower", 1);
  const auto faulted = try_search(pred, SearchAlgo::kExhaustive, o);
  ASSERT_FALSE(faulted.ok());
  EXPECT_EQ(faulted.status().code(), StatusCode::kInternal);
  EXPECT_NE(faulted.status().message().find("trace.lower"), std::string::npos)
      << faulted.status().to_string();
  EXPECT_NE(faulted.status().context().find(k.name), std::string::npos)
      << faulted.status().to_string();
  EXPECT_GT(fault::hits("trace.lower"), 0u);

  // One-shot: the very next search succeeds and matches the clean run.
  const auto retried = try_search(pred, SearchAlgo::kExhaustive, o);
  ASSERT_TRUE(retried.ok()) << retried.status().to_string();
  EXPECT_EQ(retried->placement, clean.placement);
  EXPECT_EQ(retried->predicted_cycles, clean.predicted_cycles);
}

TEST_F(FaultInjection, PredictUnderInjectedFaultReturnsInternal) {
  const KernelInfo k = workloads::make_vecadd(1 << 12);
  Predictor pred(k, kepler_arch());
  pred.profile_sample(DataPlacement::defaults(k));
  fault::arm("trace.lower", 1);
  const auto r = pred.try_predict(DataPlacement::defaults(k));
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInternal);
  // Recovers immediately (one-shot fault).
  EXPECT_TRUE(pred.try_predict(DataPlacement::defaults(k)).ok());
}

// A sample whose analysis throws is not adopted, not even in part: the
// skeleton is recorded before arming, so the fault fires in the sample's
// own lowering.
TEST_F(FaultInjection, FailedFirstSampleLeavesNoSample) {
  const KernelInfo k = workloads::make_vecadd(1 << 12);
  const DataPlacement sample = DataPlacement::defaults(k);
  const SimResult measured = simulate(k, sample, kepler_arch());
  Predictor pred(k, kepler_arch());
  pred.memoize_trace();

  fault::arm("trace.lower", 1);
  const Status s = pred.try_set_sample(sample, measured);
  EXPECT_EQ(s.code(), StatusCode::kInternal) << s.to_string();
  EXPECT_GT(fault::hits("trace.lower"), 0u) << "fault site never reached";
  EXPECT_FALSE(pred.has_sample());
  const auto r = pred.try_predict(sample);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kFailedPrecondition)
      << r.status().to_string();
}

TEST_F(FaultInjection, FailedResampleKeepsTheEarlierSample) {
  const KernelInfo k = workloads::make_vecadd(1 << 12);
  const DataPlacement first = DataPlacement::defaults(k);
  const DataPlacement second = first.with(0, MemSpace::Texture1D);
  Predictor pred(k, kepler_arch());
  pred.profile_sample(first);
  const std::vector<DataPlacement> targets = {first, second,
                                              first.with(1, MemSpace::Constant)};
  std::vector<Prediction> before;
  for (const DataPlacement& t : targets) before.push_back(pred.predict(t));
  const SimResult measured = simulate(k, second, kepler_arch());
  ASSERT_NE(measured.cycles, pred.sample_result().cycles);

  fault::arm("trace.lower", 1);
  const Status s = pred.try_set_sample(second, measured);
  EXPECT_EQ(s.code(), StatusCode::kInternal) << s.to_string();
  EXPECT_GT(fault::hits("trace.lower"), 0u) << "fault site never reached";
  ASSERT_TRUE(pred.has_sample());
  EXPECT_EQ(pred.sample_placement(), first);
  for (std::size_t i = 0; i < targets.size(); ++i) {
    const Prediction p = pred.predict(targets[i]);
    EXPECT_EQ(p.total_cycles, before[i].total_cycles) << i;  // bit for bit
    EXPECT_EQ(p.raw_cycles, before[i].raw_cycles) << i;
    EXPECT_EQ(p.t_comp, before[i].t_comp) << i;
    EXPECT_EQ(p.t_mem, before[i].t_mem) << i;
  }
}

TEST_F(FaultInjection, QueuingNanFaultKeepsPredictionFiniteAndFlagged) {
  const KernelInfo k = workloads::make_vecadd(1 << 12);
  Predictor pred(k, kepler_arch());  // queuing model on by default
  pred.profile_sample(DataPlacement::defaults(k));

  const Prediction clean = pred.predict(DataPlacement::defaults(k));
  EXPECT_FALSE(clean.queue_saturated);

  fault::arm("queuing.nan", 1);
  const auto r = pred.try_predict(DataPlacement::defaults(k));
  ASSERT_TRUE(r.ok()) << r.status().to_string();
  EXPECT_GT(fault::hits("queuing.nan"), 0u) << "fault site never reached";
  EXPECT_TRUE(std::isfinite(r->total_cycles));
  EXPECT_GT(r->total_cycles, 0.0);
  EXPECT_TRUE(std::isfinite(r->dram_lat));
  EXPECT_TRUE(r->queue_saturated);
}

TEST_F(FaultInjection, QueuingSaturateFaultKeepsPredictionFiniteAndFlagged) {
  const KernelInfo k = workloads::make_vecadd(1 << 12);
  Predictor pred(k, kepler_arch());
  pred.profile_sample(DataPlacement::defaults(k));

  fault::arm("queuing.saturate", 1);
  const auto r = pred.try_predict(DataPlacement::defaults(k));
  ASSERT_TRUE(r.ok()) << r.status().to_string();
  EXPECT_GT(fault::hits("queuing.saturate"), 0u) << "fault site never reached";
  EXPECT_TRUE(std::isfinite(r->total_cycles));
  EXPECT_GT(r->total_cycles, 0.0);
  EXPECT_TRUE(r->queue_saturated);
}

}  // namespace
}  // namespace gpuhms
