// Extension bench — full-space ranking quality: the paper frames the models
// as an *advising tool* that finds promising placements in the m^n space,
// so the decisive metric is how well the predicted ordering of the ENTIRE
// legal placement space matches the measured ordering (Spearman rank
// correlation), and whether the predicted top choice is near-optimal. We
// grade our model and PORPLE side by side.
#include <cstdio>
#include <vector>

#include "baselines/porple.hpp"
#include "common/stats.hpp"
#include "model/predictor.hpp"
#include "workloads/workloads.hpp"

using namespace gpuhms;

int main() {
  const GpuArch& arch = kepler_arch();

  std::vector<workloads::BenchmarkCase> training = workloads::training_suite();
  std::vector<TrainingCase> cases;
  for (const auto& c : training) {
    cases.push_back({&c.kernel, c.sample});
    for (const auto& t : c.tests) cases.push_back({&c.kernel, t.placement});
  }
  const ToverlapModel overlap = train_overlap_model(cases, arch);

  struct Study {
    const char* name;
    KernelInfo kernel;
  };
  std::vector<Study> studies;
  studies.push_back({"vecadd", workloads::make_vecadd()});
  studies.push_back({"triad", workloads::make_triad()});
  studies.push_back({"stencil2d", workloads::make_stencil2d()});
  studies.push_back({"convolution", workloads::make_convolution()});
  studies.push_back({"neuralnet", workloads::make_neuralnet()});
  studies.push_back({"transpose", workloads::make_transpose()});

  std::printf("Full-space ranking quality (Spearman rank correlation of the "
              "whole legal placement space)\n\n");
  std::printf("%-12s %6s %10s %10s %14s\n", "kernel", "space", "ours",
              "porple", "top-1 regret");

  double ours_sum = 0.0, porple_sum = 0.0, regret_sum = 0.0;
  for (auto& s : studies) {
    const DataPlacement sample = DataPlacement::defaults(s.kernel);
    Predictor pred(s.kernel, arch, ModelOptions{}, overlap);
    pred.profile_sample(sample);
    const TraceSkeleton skeleton(s.kernel, arch);

    const auto space = enumerate_placements(s.kernel, arch, 64);
    std::vector<double> measured, ours, porple;
    double best_measured = 1e300;
    std::size_t our_top = 0;
    for (std::size_t i = 0; i < space.size(); ++i) {
      const double m = static_cast<double>(
          simulate(s.kernel, space[i], arch, &skeleton).cycles);
      const double o = pred.predict(space[i]).total_cycles;
      measured.push_back(m);
      ours.push_back(o);
      porple.push_back(porple_cost(skeleton, space[i], arch));
      best_measured = std::min(best_measured, m);
      if (o < ours[our_top]) our_top = i;
    }
    const double rho_ours = spearman(ours, measured);
    const double rho_pp = spearman(porple, measured);
    const double regret = measured[our_top] / best_measured - 1.0;
    ours_sum += rho_ours;
    porple_sum += rho_pp;
    regret_sum += regret;
    std::printf("%-12s %6zu %10.3f %10.3f %13.1f%%\n", s.name, space.size(),
                rho_ours, rho_pp, 100.0 * regret);
  }
  const double n = static_cast<double>(studies.size());
  std::printf("%-12s %6s %10.3f %10.3f %13.1f%%\n", "mean", "",
              ours_sum / n, porple_sum / n, 100.0 * regret_sum / n);
  std::printf("\npaper shape: the model orders placements consistently with "
              "measurement (it \"works as a performance advising tool\"), "
              "where the latency-only PORPLE model cannot.\n");
  return 0;
}
