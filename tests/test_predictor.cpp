#include "model/predictor.hpp"

#include <bit>

#include <gtest/gtest.h>

#include "common/obs.hpp"
#include "model/search.hpp"
#include "workloads/workloads.hpp"

namespace gpuhms {
namespace {

TEST(Predictor, AnchoredSelfPredictionIsExact) {
  const KernelInfo k = workloads::make_vecadd(1 << 13);
  const auto sample = DataPlacement::defaults(k);
  Predictor pred(k, kepler_arch());
  pred.profile_sample(sample);
  const auto p = pred.predict(sample);
  EXPECT_NEAR(p.total_cycles,
              static_cast<double>(pred.sample_result().cycles),
              1.0);
}

TEST(Predictor, RequiresSampleBeforePredict) {
  const KernelInfo k = workloads::make_vecadd(1 << 12);
  Predictor pred(k, kepler_arch());
  EXPECT_DEATH(pred.predict(DataPlacement::defaults(k)), "sample");
}

// Every entry point of one predictor replays the skeleton its first sample
// recorded: the sample, a lone predict, a batch, the three searches and the
// bound tables never record another one and never take the full walk.
TEST(Predictor, EveryFlowReplaysTheSampleSkeleton) {
  const workloads::BenchmarkCase c = workloads::get_benchmark("matrixmul");
  std::vector<DataPlacement> tests;
  for (const workloads::PlacementTest& t : c.tests)
    tests.push_back(t.placement);
  const bool was = obs::metrics_active();
  obs::set_enabled(true);
  obs::reset_all_metrics();
  Predictor pred(c.kernel, kepler_arch());
  ASSERT_TRUE(pred.try_profile_sample(c.sample).ok());
  pred.predict(tests.front());
  pred.predict_batch(tests);
  SearchOptions o;
  o.cap = 16;
  o.num_threads = 2;
  for (SearchAlgo algo : {SearchAlgo::kExhaustive, SearchAlgo::kBnb}) {
    const StatusOr<SearchResult> r = try_search(pred, algo, o);
    EXPECT_TRUE(r.ok()) << r.status().to_string();
  }
  EXPECT_FALSE(pred.make_bounder().infeasible());
  const obs::MetricsSnapshot s = obs::snapshot();
  obs::reset_all_metrics();
  obs::set_enabled(was);
  const auto* recorded = s.find_counter("trace.skeletons_recorded");
  ASSERT_NE(recorded, nullptr);
  EXPECT_EQ(recorded->value, 1u);
  const auto* full = s.find_counter("trace.analyses_full");
  EXPECT_EQ(full == nullptr ? 0u : full->value, 0u);
}

TEST(Predictor, ComponentsArePositiveAndConsistent) {
  const KernelInfo k = workloads::make_vecadd(1 << 13);
  const auto sample = DataPlacement::defaults(k);
  Predictor pred(k, kepler_arch());
  pred.profile_sample(sample);
  const auto p =
      pred.predict(sample.with(k.array_index("a"), MemSpace::Texture1D));
  EXPECT_GT(p.t_comp, 0.0);
  EXPECT_GT(p.t_mem, 0.0);
  EXPECT_LE(p.t_overlap, std::min(p.t_comp, p.t_mem) + 1e-9);
  EXPECT_NEAR(p.raw_cycles, p.t_comp + p.t_mem - p.t_overlap, 1.0);
  EXPECT_GT(p.amat, static_cast<double>(kepler_arch().cache_hit_lat) - 1.0);
}

TEST(Predictor, TexturePlacementLowersPredictedInstructions) {
  const KernelInfo k = workloads::make_vecadd(1 << 13);
  const auto sample = DataPlacement::defaults(k);
  Predictor pred(k, kepler_arch());
  pred.profile_sample(sample);
  const auto pg = pred.predict(sample);
  const auto pt =
      pred.predict(sample.with(k.array_index("a"), MemSpace::Texture1D)
                       .with(k.array_index("b"), MemSpace::Texture1D));
  EXPECT_LT(pt.inst.issued_total, pg.inst.issued_total);
}

TEST(Predictor, InjectedSampleMatchesProfiledSample) {
  const KernelInfo k = workloads::make_vecadd(1 << 12);
  const auto sample = DataPlacement::defaults(k);
  const auto measured = simulate(k, sample);
  Predictor a(k, kepler_arch());
  a.profile_sample(sample);
  Predictor b(k, kepler_arch());
  b.set_sample(sample, measured);
  const auto target = sample.with(0, MemSpace::Constant);
  EXPECT_NEAR(a.predict(target).total_cycles, b.predict(target).total_cycles,
              1e-6);
}

TEST(Predictor, UnanchoredRawDiffersFromAnchored) {
  const KernelInfo k = workloads::make_vecadd(1 << 12);
  const auto sample = DataPlacement::defaults(k);
  ModelOptions opts;
  opts.anchor_to_sample = false;
  Predictor pred(k, kepler_arch(), opts);
  pred.profile_sample(sample);
  const auto p = pred.predict(sample);
  EXPECT_DOUBLE_EQ(p.total_cycles, p.raw_cycles);
}

TEST(Predictor, BaselineOptionsDisableEverything) {
  const auto o = ModelOptions::baseline();
  EXPECT_FALSE(o.detailed_instruction_counting);
  EXPECT_FALSE(o.queuing_model);
  EXPECT_FALSE(o.address_mapping);
  EXPECT_FALSE(o.row_buffer_model);
}

TEST(Predictor, AblationsChangePredictions) {
  const KernelInfo k = workloads::make_vecadd(1 << 13);
  const auto sample = DataPlacement::defaults(k);
  const auto target = sample.with(0, MemSpace::Shared);

  Predictor full(k, kepler_arch());
  full.profile_sample(sample);
  Predictor base(k, kepler_arch(), ModelOptions::baseline());
  base.profile_sample(sample);

  const double full_pred = full.predict(target).total_cycles;
  const double base_pred = base.predict(target).total_cycles;
  EXPECT_NE(full_pred, base_pred);
}

TEST(Predictor, DeterministicPredictions) {
  const auto bench = workloads::get_benchmark("transpose");
  Predictor pred(bench.kernel, kepler_arch());
  pred.profile_sample(bench.sample);
  const auto& t = bench.tests.front().placement;
  EXPECT_DOUBLE_EQ(pred.predict(t).total_cycles,
                   pred.predict(t).total_cycles);
}

TEST(TrainOverlap, ProducesTrainedModelFromCases) {
  const KernelInfo k1 = workloads::make_vecadd(1 << 12);
  const KernelInfo k2 = workloads::make_triad(1 << 12);
  std::vector<TrainingCase> cases;
  cases.push_back({&k1, DataPlacement::defaults(k1)});
  cases.push_back({&k1, DataPlacement::defaults(k1).with(0, MemSpace::Texture1D)});
  cases.push_back({&k2, DataPlacement::defaults(k2)});
  cases.push_back(
      {&k2, DataPlacement::defaults(k2).with(1, MemSpace::Constant)});
  const auto model = train_overlap_model(cases, kepler_arch());
  EXPECT_TRUE(model.trained());
}

TEST(TrainOverlap, TrainedModelImprovesTrainingFit) {
  // With the trained overlap model, the *unanchored* prediction of a
  // training placement should be closer to its measurement than with the
  // untrained (zero-overlap) model, on aggregate.
  const KernelInfo k = workloads::make_vecadd(1 << 13);
  std::vector<TrainingCase> cases;
  const auto base = DataPlacement::defaults(k);
  cases.push_back({&k, base});
  cases.push_back({&k, base.with(0, MemSpace::Texture1D)});
  cases.push_back({&k, base.with(1, MemSpace::Constant)});
  cases.push_back({&k, base.with(0, MemSpace::Texture2D)});
  const auto trained = train_overlap_model(cases, kepler_arch());

  ModelOptions raw_opts;
  raw_opts.anchor_to_sample = false;
  double err_untrained = 0.0, err_trained = 0.0;
  for (const auto& c : cases) {
    const auto measured = simulate(*c.kernel, c.placement, kepler_arch());
    Predictor p0(*c.kernel, kepler_arch(), raw_opts);
    p0.set_sample(c.placement, measured);
    Predictor p1(*c.kernel, kepler_arch(), raw_opts, trained);
    p1.set_sample(c.placement, measured);
    const double m = static_cast<double>(measured.cycles);
    err_untrained +=
        std::abs(p0.predict(c.placement).total_cycles - m) / m;
    err_trained += std::abs(p1.predict(c.placement).total_cycles - m) / m;
  }
  EXPECT_LE(err_trained, err_untrained + 1e-9);
}

// Eq. 11 coefficients trained on the Table IV training suite at kepler, as
// bit patterns. Pinned from the engine that materialized every TraceOp and
// analyzed each training case with the full walk; training now simulates
// and SoA-analyzes one kernel at a time from a shared skeleton and must
// reproduce them exactly, at any thread count.
constexpr std::uint64_t kKeplerCoefBits[ToverlapModel::kNumFeatures] = {
    0xbff61945e1bf18faull, 0xbfd42083eb0234d3ull, 0xbfe3044dfd3dd57dull,
    0xbfe74a5e853b04b9ull, 0x4002c8c5d38aa352ull, 0x3fe34717a016c3d1ull,
    0x3fe34717a016c3d0ull};

void expect_pinned(const ToverlapModel& m, const char* what) {
  ASSERT_TRUE(m.trained()) << what;
  ASSERT_EQ(m.coefficients().size(), ToverlapModel::kNumFeatures) << what;
  for (std::size_t i = 0; i < ToverlapModel::kNumFeatures; ++i) {
    const auto bits = std::bit_cast<std::uint64_t>(m.coefficients()[i]);
    EXPECT_EQ(bits, kKeplerCoefBits[i]) << what << " coefficient " << i;
  }
}

TEST(TrainOverlap, KeplerCoefficientsPinnedAtAnyThreadCount) {
  const auto training = workloads::training_suite();
  std::vector<TrainingCase> cases;
  for (const auto& c : training) {
    cases.push_back({&c.kernel, c.sample});
    for (const auto& t : c.tests) cases.push_back({&c.kernel, t.placement});
  }
  std::vector<MeasuredCase> measured;
  for (const TrainingCase& c : cases)
    measured.push_back(
        {c.kernel, c.placement, simulate(*c.kernel, c.placement)});
  for (int threads : {1, 4}) {
    ThreadPool pool(threads);
    expect_pinned(
        train_overlap_model(cases, kepler_arch(), {}, 1e-3, &pool),
        threads == 1 ? "simulated, 1 thread" : "simulated, 4 threads");
    expect_pinned(
        train_overlap_model_measured(measured, kepler_arch(), {}, 1e-3, &pool),
        threads == 1 ? "measured, 1 thread" : "measured, 4 threads");
  }
}

}  // namespace
}  // namespace gpuhms
