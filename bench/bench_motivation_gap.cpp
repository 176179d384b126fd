// Extension bench — the introduction's motivation, reproduced end to end:
//   * across a kernel's legal placements, performance varies wildly
//     (papers [4]/[5] report up to 208% difference, 159% on average, and
//     hand-tuned defaults below half of the achievable best);
//   * a model-guided search recovers (nearly) the oracle-best placement
//     from ONE profiled run instead of simulating/implementing the space.
#include <cstdio>
#include <vector>

#include "model/search.hpp"
#include "workloads/workloads.hpp"

using namespace gpuhms;

namespace {

struct KernelUnderStudy {
  const char* name;
  KernelInfo kernel;
};

}  // namespace

int main() {
  const GpuArch& arch = kepler_arch();

  // Train the overlap model once on the Table IV training suite.
  std::vector<workloads::BenchmarkCase> training = workloads::training_suite();
  std::vector<TrainingCase> cases;
  for (const auto& c : training) {
    cases.push_back({&c.kernel, c.sample});
    for (const auto& t : c.tests) cases.push_back({&c.kernel, t.placement});
  }
  const ToverlapModel overlap = train_overlap_model(cases, arch);

  std::vector<KernelUnderStudy> kernels;
  kernels.push_back({"vecadd", workloads::make_vecadd()});
  kernels.push_back({"triad", workloads::make_triad()});
  kernels.push_back({"stencil2d", workloads::make_stencil2d()});
  kernels.push_back({"transpose", workloads::make_transpose()});
  kernels.push_back({"convolution", workloads::make_convolution()});
  kernels.push_back({"neuralnet", workloads::make_neuralnet()});

  std::printf("Motivation: placement-induced performance spread and "
              "model-guided search quality\n\n");
  std::printf("%-12s %6s %10s %10s %10s %8s | %10s %8s %9s\n", "kernel",
              "space", "default", "best", "worst", "spread",
              "model-pick", "regret", "evaluated");

  SearchOptions capped;
  capped.cap = 256;
  double spread_sum = 0.0, regret_sum = 0.0;
  for (auto& [name, kernel] : kernels) {
    const DataPlacement sample = DataPlacement::defaults(kernel);
    const auto oracle = search_oracle(kernel, arch, capped);
    const double dflt =
        static_cast<double>(simulate(kernel, sample, arch).cycles);

    Predictor pred(kernel, arch, ModelOptions{}, overlap);
    pred.profile_sample(sample);
    const SearchResult pick = search_exhaustive(pred, capped);
    const double pick_measured =
        static_cast<double>(simulate(kernel, pick.placement, arch).cycles);

    const double spread =
        100.0 * (static_cast<double>(oracle.worst_cycles) /
                     static_cast<double>(oracle.best_cycles) - 1.0);
    const double regret =
        100.0 * (pick_measured / static_cast<double>(oracle.best_cycles) - 1.0);
    spread_sum += spread;
    regret_sum += regret;

    std::printf("%-12s %6zu %10.0f %10llu %10llu %7.0f%% | %10.0f %7.1f%% %9zu\n",
                name, oracle.simulated, dflt,
                static_cast<unsigned long long>(oracle.best_cycles),
                static_cast<unsigned long long>(oracle.worst_cycles), spread,
                pick_measured, regret, pick.evaluated);
  }
  std::printf("\navg worst/best spread: %.0f%% (papers [4]/[5] report up to "
              "208%%, 159%% on average)\n",
              spread_sum / static_cast<double>(kernels.size()));
  std::printf("avg model-pick regret vs oracle best: %.1f%% (one profiled "
              "run per kernel; oracle needed the full space)\n",
              regret_sum / static_cast<double>(kernels.size()));

  // Branch-and-bound vs exhaustive on the largest space here (neuralnet).
  {
    auto& kus = kernels.back();
    Predictor pred(kus.kernel, arch, ModelOptions{}, overlap);
    pred.profile_sample(DataPlacement::defaults(kus.kernel));
    const SearchResult ex = search_exhaustive(pred, capped);
    const SearchResult bb = search_branch_and_bound(pred);
    std::printf("\nbranch-and-bound on %s: %zu evaluations vs %zu "
                "exhaustive%s; picked %s%s (exhaustive: %s)\n", kus.name,
                bb.evaluated, ex.evaluated,
                ex.space_truncated ? " (capped)" : "",
                bb.placement.to_string().c_str(),
                bb.proven_optimal ? " [proven optimal]" : "",
                ex.placement.to_string().c_str());
  }
  return 0;
}
