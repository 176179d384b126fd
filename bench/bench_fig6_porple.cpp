// E5 — Fig. 6 reproduction: rank the five placements of neuralnet's weights
// array (G, C, S, T, 2T) with our model and with PORPLE's latency-oriented
// model; compare both rankings against the measured ranking.
//
// Paper: PORPLE mis-ranks (notably NN_S); our model ranks consistently with
// the measured performance.
#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "baselines/porple.hpp"
#include "model/predictor.hpp"
#include "workloads/workloads.hpp"

using namespace gpuhms;

namespace {

struct Entry {
  std::string id;
  double measured = 0.0;
  double ours = 0.0;
  double porple = 0.0;
  int rank_measured = 0, rank_ours = 0, rank_porple = 0;
};

void assign_ranks(std::vector<Entry>& entries, double Entry::* key,
                  int Entry::* rank) {
  std::vector<Entry*> order;
  for (auto& e : entries) order.push_back(&e);
  std::sort(order.begin(), order.end(),
            [&](Entry* a, Entry* b) { return a->*key < b->*key; });
  for (std::size_t i = 0; i < order.size(); ++i)
    (*order[i]).*rank = static_cast<int>(i) + 1;
}

}  // namespace

int main() {
  const auto c = workloads::get_benchmark("neuralnet");
  const GpuArch& arch = kepler_arch();

  // Train the overlap model on the Table IV training suite.
  std::vector<workloads::BenchmarkCase> training = workloads::training_suite();
  std::vector<TrainingCase> cases;
  for (const auto& tc : training) {
    cases.push_back({&tc.kernel, tc.sample});
    for (const auto& t : tc.tests) cases.push_back({&tc.kernel, t.placement});
  }
  const ToverlapModel overlap = train_overlap_model(cases, arch);

  Predictor pred(c.kernel, arch, ModelOptions{}, overlap);
  pred.profile_sample(c.sample);
  const TraceSkeleton skeleton(c.kernel, arch);

  std::vector<Entry> entries;
  entries.push_back({"NN_G",
                     static_cast<double>(pred.sample_result().cycles),
                     pred.predict(c.sample).total_cycles,
                     porple_cost(skeleton, c.sample, arch)});
  for (const auto& t : c.tests) {
    Entry e;
    e.id = t.id;
    e.measured = static_cast<double>(
        simulate(c.kernel, t.placement, arch, &skeleton).cycles);
    e.ours = pred.predict(t.placement).total_cycles;
    e.porple = porple_cost(skeleton, t.placement, arch);
    entries.push_back(e);
  }
  assign_ranks(entries, &Entry::measured, &Entry::rank_measured);
  assign_ranks(entries, &Entry::ours, &Entry::rank_ours);
  assign_ranks(entries, &Entry::porple, &Entry::rank_porple);

  std::printf("Fig. 6: placement ranking for neuralnet kernelFeedForward1 "
              "(weights in G/C/S/T/2T)\n\n");
  std::printf("%-8s %12s %14s %14s | %8s %8s %8s\n", "test", "measured",
              "our predict", "porple cost", "rank(m)", "rank(us)",
              "rank(pp)");
  for (const auto& e : entries) {
    std::printf("%-8s %12.0f %14.0f %14.0f | %8d %8d %8d\n", e.id.c_str(),
                e.measured, e.ours, e.porple, e.rank_measured, e.rank_ours,
                e.rank_porple);
  }

  int ours_agree = 0, porple_agree = 0;
  for (const auto& e : entries) {
    ours_agree += e.rank_ours == e.rank_measured;
    porple_agree += e.rank_porple == e.rank_measured;
  }
  std::printf("\nrank agreement with measurement: ours %d/%zu, PORPLE "
              "%d/%zu\n", ours_agree, entries.size(), porple_agree,
              entries.size());
  std::printf("paper shape: our ranking consistent with measured; PORPLE "
              "mis-ranks, worst on the shared placement (NN_S).\n");
  return 0;
}
