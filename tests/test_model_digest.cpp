// Bit-exact lock-in of the analytical model (ctest label: golden). Every
// Prediction field of every Table IV sample and test placement on kepler is
// hashed by bit pattern, under our model's default options, the paper's
// baseline, the Fig. 7/8/9 ablation variants, M/M/1 queuing, unanchored
// predictions, and the Sim et al. [7] baseline. Each variant's T_overlap is
// trained through train_overlap_model_measured, so the Eq. 11 regression
// rows are pinned too. test_golden_accuracy tolerates 0.5 pp of drift; this
// digest tolerates none, so a refactor of the model equations must leave it
// unchanged.
#include <gtest/gtest.h>

#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include "common/hashing.hpp"
#include "eval_common.hpp"

namespace gpuhms {
namespace {

void mix_prediction(Fnv1a& h, const Prediction& p) {
  h.mix(p.t_comp).mix(p.t_mem).mix(p.t_overlap);
  h.mix(p.total_cycles).mix(p.raw_cycles);
  h.mix(p.amat).mix(p.dram_lat).mix(p.overlap_ratio);
  h.mix(p.queue_saturated);
  h.mix(p.inst.executed_total).mix(p.inst.replays_total);
  h.mix(p.inst.issued_total).mix(p.inst.issued_per_warp);
  h.mix(p.inst.addr_mode_delta).mix(p.inst.replay_delta);
}

// The model variants the paper's figures compare.
std::vector<std::pair<std::string, ModelOptions>> variants() {
  const ModelOptions baseline = ModelOptions::baseline();
  ModelOptions inst_only = baseline;  // Fig. 7 "+inst counting", Fig. 8
  inst_only.detailed_instruction_counting = true;
  ModelOptions queue_even = inst_only;  // Fig. 8 "+queue(even)"
  queue_even.queuing_model = true;
  queue_even.row_buffer_model = true;
  ModelOptions queue_only = baseline;  // Fig. 9 "+queuing"
  queue_only.queuing_model = true;
  queue_only.row_buffer_model = true;
  queue_only.address_mapping = true;
  ModelOptions mm1;
  mm1.queue_discipline = QueueDiscipline::MM1;
  ModelOptions unanchored;
  unanchored.anchor_to_sample = false;
  return {{"default", ModelOptions{}}, {"baseline", baseline},
          {"inst_only", inst_only},    {"queue_even", queue_even},
          {"queue_only", queue_only},  {"mm1", mm1},
          {"unanchored", unanchored}};
}

// Table IV: the training suite, then the evaluation suite.
std::vector<const workloads::BenchmarkCase*> table_iv(
    const bench::EvalHarness& harness) {
  std::vector<const workloads::BenchmarkCase*> cases;
  for (const auto& c : harness.training()) cases.push_back(&c);
  for (const auto& c : harness.evaluation()) cases.push_back(&c);
  return cases;
}

TEST(ModelDigest, EveryPredictionFieldOnKepler) {
  bench::EvalHarness harness;
  const auto cases = table_iv(harness);
  Fnv1a all;
  std::size_t predictions = 0;
  for (const auto& [name, options] : variants()) {
    SCOPED_TRACE(name);
    Fnv1a h;
    const ToverlapModel overlap = harness.train_overlap(options);
    for (double c : overlap.coefficients()) h.mix(c);
    for (const workloads::BenchmarkCase* c : cases) {
      Predictor pred(c->kernel, harness.arch(), options, overlap);
      pred.set_sample(c->sample, harness.measure(*c, c->sample));
      mix_prediction(h, pred.predict(c->sample));
      for (const auto& t : c->tests) mix_prediction(h, pred.predict(t.placement));
      predictions += 1 + c->tests.size();
    }
    std::printf("%-10s %016llx\n", name.c_str(),
                static_cast<unsigned long long>(h.digest()));
    all.mix(h.digest());
  }
  std::printf("all        %016llx (%zu predictions)\n",
              static_cast<unsigned long long>(all.digest()), predictions);
  EXPECT_EQ(predictions, 427u);
  EXPECT_EQ(all.digest(), 0x2a4fb8d67c4da7e6ull);
}

TEST(ModelDigest, Sim2012EveryPredictionFieldOnKepler) {
  bench::EvalHarness harness;
  Fnv1a h;
  for (bool anchor : {true, false}) {
    for (const workloads::BenchmarkCase* c : table_iv(harness)) {
      Sim2012Predictor pred(c->kernel, harness.arch(), anchor);
      pred.set_sample(c->sample, harness.measure(*c, c->sample));
      mix_prediction(h, pred.predict(c->sample));
      for (const auto& t : c->tests) mix_prediction(h, pred.predict(t.placement));
    }
  }
  std::printf("sim2012    %016llx\n",
              static_cast<unsigned long long>(h.digest()));
  EXPECT_EQ(h.digest(), 0xd49df2c4d4244901ull);
}

}  // namespace
}  // namespace gpuhms
