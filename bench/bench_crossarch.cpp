// Extension bench — cross-architecture prediction study (ROADMAP:
// multi-architecture backend registry). In the spirit of Stevens &
// Klöckner's accuracy-vs-scope mechanism (PAPERS.md, arXiv:1904.09538) and
// Braun et al.'s portable parameterization (arXiv:2001.07104), we profile a
// kernel on architecture A and ask how well the model ranks the placement
// space of architecture B, for every interesting (A, B) pair of the
// ArchRegistry:
//
//   * transfer mode (Stevens & Klöckner): the predictor is parameterized AND
//     anchored entirely on A; truth is the simulator on B. This measures how
//     far a ranking travels unchanged across the fleet.
//   * hybrid mode (Braun et al.): the predictor is parameterized on B but
//     anchored to the sample measurement taken on A — the "port the profile,
//     not the machine" deployment. The anchor can be rejected when A's
//     counters are inconsistent with B's model; that rejection is itself a
//     result (it marks where the model family breaks) and is recorded
//     rather than treated as a failure.
//
// Emits BENCH_crossarch.json and self-asserts a minimum mean Spearman on
// the default->default identity pair (the in-arch ranking quality every
// cross-arch number is relative to).
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "arch/arch_registry.hpp"
#include "bench_stamp.hpp"
#include "common/stats.hpp"
#include "model/predictor.hpp"
#include "sim/simulator.hpp"
#include "workloads/workloads.hpp"

using namespace gpuhms;

namespace {

constexpr double kIdentityFloor = 0.5;

struct CellResult {
  std::string workload;
  std::size_t space = 0;
  double transfer_rho = 0.0;
  double transfer_regret = 0.0;  // measured(top-1 pick) / best - 1
  double hybrid_rho = 0.0;
  bool hybrid_anchor_rejected = false;
  std::string hybrid_reject_reason;
};

struct PairResult {
  std::string profile_arch;
  std::string predict_arch;
  std::vector<CellResult> cells;
  double mean_transfer_rho = 0.0;
  double mean_hybrid_rho = 0.0;  // over cells whose anchor was accepted
};

double regret(const std::vector<double>& measured,
              const std::vector<double>& predicted) {
  std::size_t top = 0;
  double best = measured[0];
  for (std::size_t i = 0; i < predicted.size(); ++i) {
    if (predicted[i] < predicted[top]) top = i;
    if (measured[i] < best) best = measured[i];
  }
  return measured[top] / best - 1.0;
}

}  // namespace

int main(int argc, char** argv) {
  std::size_t cap = 32;
  bool quick = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--quick") == 0)
      quick = true;
    else
      cap = static_cast<std::size_t>(std::strtoull(argv[i], nullptr, 10));
  }
  if (quick) cap = 12;

  struct Study {
    const char* name;
    KernelInfo kernel;
  };
  // Workloads where the in-arch model is an effective ranker (see
  // bench_rank_quality): cross-arch transfer is only meaningful relative to a
  // working in-arch baseline, so known-weak rankers (e.g. triad) are out.
  std::vector<Study> studies;
  studies.push_back({"convolution", workloads::make_convolution()});
  studies.push_back({"transpose", workloads::make_transpose()});
  if (!quick) {
    studies.push_back({"neuralnet", workloads::make_neuralnet()});
    studies.push_back({"stencil2d", workloads::make_stencil2d()});
  }

  // Profile-on-A / predict-on-B pairs. The kepler->kepler identity row is
  // the self-asserted baseline; the rest are the cross-arch study proper.
  const ArchRegistry& registry = ArchRegistry::builtin();
  struct PairSpec {
    const char* profile;
    const char* predict;
  };
  std::vector<PairSpec> pair_specs = {{"kepler", "kepler"},
                                      {"kepler", "maxwell"},
                                      {"kepler", "hbm2"},
                                      {"maxwell", "kepler"}};
  if (quick) pair_specs.resize(2);

  // T_overlap (Eq. 11) is fitted per architecture on the Table IV training
  // suite — the coefficients are part of the arch parameterization, so the
  // transfer predictor uses A's fit and the hybrid predictor B's.
  std::vector<workloads::BenchmarkCase> training = workloads::training_suite();
  std::vector<TrainingCase> cases;
  for (const auto& c : training) {
    cases.push_back({&c.kernel, c.sample});
    for (const auto& t : c.tests) cases.push_back({&c.kernel, t.placement});
  }
  std::vector<std::pair<std::string, ToverlapModel>> overlap_by_arch;
  auto overlap_for = [&](const std::string& arch_name,
                         const GpuArch& arch) -> const ToverlapModel& {
    for (const auto& [name, model] : overlap_by_arch)
      if (name == arch_name) return model;
    overlap_by_arch.emplace_back(arch_name, train_overlap_model(cases, arch));
    return overlap_by_arch.back().second;
  };

  std::vector<PairResult> pairs;
  std::printf(
      "Cross-arch ranking transfer (profile on A, rank placements on B)\n\n");
  std::printf("%-9s %-9s %-12s %6s %9s %8s %9s %s\n", "profile", "predict",
              "kernel", "space", "transfer", "regret", "hybrid", "anchor");

  for (const PairSpec& spec : pair_specs) {
    const GpuArch& arch_a = registry.find(spec.profile)->arch;
    const GpuArch& arch_b = registry.find(spec.predict)->arch;
    PairResult pr;
    pr.profile_arch = spec.profile;
    pr.predict_arch = spec.predict;
    double transfer_sum = 0.0, hybrid_sum = 0.0;
    std::size_t hybrid_n = 0;
    for (const Study& s : studies) {
      const DataPlacement sample = DataPlacement::defaults(s.kernel);
      // Transfer predictor: model and anchor both live on A.
      Predictor pred_a(s.kernel, arch_a, ModelOptions{},
                       overlap_for(spec.profile, arch_a));
      pred_a.profile_sample(sample);
      // Hybrid predictor: model on B, anchor measured on A.
      Predictor pred_b(s.kernel, arch_b, ModelOptions{},
                       overlap_for(spec.predict, arch_b));
      const SimResult measured_a = simulate(s.kernel, sample, arch_a);
      CellResult cell;
      cell.workload = s.name;
      const Status anchor = pred_b.try_set_sample(sample, measured_a);
      cell.hybrid_anchor_rejected = !anchor.ok();
      if (!anchor.ok()) cell.hybrid_reject_reason = anchor.message();

      // The placement space and the ground truth belong to B, restricted to
      // placements also legal on A (e.g. a 96 KiB shared allocation fits
      // maxwell but not kepler): the transfer predictor must be able to score
      // every candidate it ranks.
      auto space = enumerate_placements(s.kernel, arch_b, cap);
      std::erase_if(space, [&](const DataPlacement& p) {
        return validate_placement(s.kernel, p, arch_a).has_value();
      });
      std::vector<double> measured, transfer, hybrid;
      for (const DataPlacement& p : space) {
        measured.push_back(
            static_cast<double>(simulate(s.kernel, p, arch_b).cycles));
        transfer.push_back(pred_a.predict(p).total_cycles);
        if (!cell.hybrid_anchor_rejected)
          hybrid.push_back(pred_b.predict(p).total_cycles);
      }
      cell.space = space.size();
      cell.transfer_rho = spearman(transfer, measured);
      cell.transfer_regret = regret(measured, transfer);
      transfer_sum += cell.transfer_rho;
      if (!cell.hybrid_anchor_rejected) {
        cell.hybrid_rho = spearman(hybrid, measured);
        hybrid_sum += cell.hybrid_rho;
        ++hybrid_n;
      }
      char hybuf[16];
      if (cell.hybrid_anchor_rejected)
        std::snprintf(hybuf, sizeof hybuf, "-");
      else
        std::snprintf(hybuf, sizeof hybuf, "%.3f", cell.hybrid_rho);
      std::printf("%-9s %-9s %-12s %6zu %9.3f %7.1f%% %9s %s\n", spec.profile,
                  spec.predict, s.name, cell.space, cell.transfer_rho,
                  100.0 * cell.transfer_regret, hybuf,
                  cell.hybrid_anchor_rejected ? "REJECTED" : "ok");
      pr.cells.push_back(std::move(cell));
    }
    pr.mean_transfer_rho = transfer_sum / static_cast<double>(studies.size());
    pr.mean_hybrid_rho =
        hybrid_n > 0 ? hybrid_sum / static_cast<double>(hybrid_n) : 0.0;
    pairs.push_back(std::move(pr));
  }

  // JSON out.
  std::FILE* json = std::fopen("BENCH_crossarch.json", "w");
  if (json == nullptr) {
    std::fprintf(stderr, "cannot open BENCH_crossarch.json\n");
    return 1;
  }
  std::fprintf(json, "{\n");
  bench::write_stamp(json);
  std::fprintf(json, "  \"cap\": %zu,\n  \"identity_floor\": %.2f,\n", cap,
               kIdentityFloor);
  std::fprintf(json, "  \"pairs\": [\n");
  for (std::size_t i = 0; i < pairs.size(); ++i) {
    const PairResult& pr = pairs[i];
    std::fprintf(json,
                 "    {\"profile_arch\": \"%s\", \"predict_arch\": \"%s\",\n"
                 "     \"mean_transfer_rho\": %.6f, \"mean_hybrid_rho\": "
                 "%.6f,\n     \"workloads\": [\n",
                 pr.profile_arch.c_str(), pr.predict_arch.c_str(),
                 pr.mean_transfer_rho, pr.mean_hybrid_rho);
    for (std::size_t j = 0; j < pr.cells.size(); ++j) {
      const CellResult& c = pr.cells[j];
      std::fprintf(
          json,
          "      {\"name\": \"%s\", \"space\": %zu, \"transfer_rho\": %.6f, "
          "\"transfer_regret\": %.6f, \"hybrid_rho\": %.6f, "
          "\"hybrid_anchor_rejected\": %s}%s\n",
          c.workload.c_str(), c.space, c.transfer_rho, c.transfer_regret,
          c.hybrid_rho, c.hybrid_anchor_rejected ? "true" : "false",
          j + 1 < pr.cells.size() ? "," : "");
    }
    std::fprintf(json, "     ]}%s\n", i + 1 < pairs.size() ? "," : "");
  }
  std::fprintf(json, "  ]\n}\n");
  std::fclose(json);
  std::printf("\nwrote BENCH_crossarch.json\n");

  // Self-assert: the identity pair is the quality floor every cross-arch
  // number is read against; if in-arch ranking decays, the study is
  // meaningless and the bench fails loudly.
  for (const PairResult& pr : pairs) {
    if (pr.profile_arch == pr.predict_arch) {
      if (pr.mean_transfer_rho < kIdentityFloor) {
        std::fprintf(stderr,
                     "FAIL: identity pair %s->%s mean Spearman %.3f is below "
                     "the %.2f floor\n",
                     pr.profile_arch.c_str(), pr.predict_arch.c_str(),
                     pr.mean_transfer_rho, kIdentityFloor);
        return 1;
      }
      std::printf("identity self-assert OK: %s->%s mean Spearman %.3f >= "
                  "%.2f\n",
                  pr.profile_arch.c_str(), pr.predict_arch.c_str(),
                  pr.mean_transfer_rho, kIdentityFloor);
      return 0;
    }
  }
  std::fprintf(stderr, "FAIL: no identity pair in the study\n");
  return 1;
}
