// Placement advisor: the end-to-end workflow the paper positions the models
// for — profile ONE sample placement of a kernel, then explore the legal
// placement space analytically and recommend the best placements without
// implementing them.
//
// Demonstrates the non-aborting API surface: every model call goes through
// the try_* / Status entry points, malformed command lines and unknown
// benchmarks are reported on stderr (exit 1) instead of aborting, and an
// optional wall-clock budget shows deadline-bounded search returning its
// best-so-far recommendation.
//
// Observability: --metrics-out=PATH (or "-" for stdout) enables the metrics
// registry and dumps the final MetricsSnapshot as JSON; --trace-out=PATH
// records scoped-phase trace events and writes Chrome trace-event JSON
// loadable in chrome://tracing. Both default to off, leaving the hot path
// uninstrumented (GPUHMS_METRICS env also enables recording).
//
// Usage: ./examples/placement_advisor [benchmark] [max_placements]
//                                     [--search=bnb|exhaustive|beam]
//                                     [--deadline-ms=N]
//                                     [--metrics-out=PATH] [--trace-out=PATH]
//        (default: spmv, 64, exhaustive, no deadline, no metrics/trace)
// Run with --help for the full flag reference.
#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <optional>
#include <string>
#include <vector>

#include "arch/arch_registry.hpp"
#include "common/deadline.hpp"
#include "common/journal.hpp"
#include "common/obs.hpp"
#include "model/search.hpp"
#include "model/search_checkpoint.hpp"
#include "workloads/workloads.hpp"

using namespace gpuhms;

namespace {

[[noreturn]] void die(const std::string& message) {
  std::fprintf(stderr, "placement_advisor: %s\n", message.c_str());
  std::exit(1);
}

// Full-token, range-checked decimal parse; dies with the offending token.
std::size_t parse_size(const char* arg, const char* what) {
  errno = 0;
  char* end = nullptr;
  const unsigned long long v = std::strtoull(arg, &end, 10);
  if (end == arg || *end != '\0' || errno == ERANGE || v == 0)
    die(std::string("invalid ") + what + " '" + arg +
        "': expected a positive integer");
  return static_cast<std::size_t>(v);
}

std::optional<workloads::BenchmarkCase> find_benchmark(
    const std::string& name, std::vector<std::string>* known) {
  for (auto suite : {workloads::training_suite(),
                     workloads::evaluation_suite()}) {
    for (auto& c : suite) {
      if (known != nullptr) known->push_back(c.name);
      if (c.name == name) return std::move(c);
    }
  }
  return std::nullopt;
}

// Accepts both --flag=value and --flag value spellings; returns nullptr
// when `arg` is not this flag, dies when the value is missing.
const char* flag_value(const char* arg, const char* flag, int argc,
                       char** argv, int* i) {
  const std::size_t len = std::strlen(flag);
  if (std::strncmp(arg, flag, len) != 0) return nullptr;
  if (arg[len] == '=') return arg + len + 1;
  if (arg[len] != '\0') return nullptr;  // e.g. --metrics-outX
  if (*i + 1 >= argc)
    die(std::string("missing value for ") + flag);
  return argv[++*i];
}

void print_help() {
  std::printf(
      "usage: placement_advisor [benchmark] [max_placements] [flags]\n"
      "\n"
      "Profiles one sample placement of `benchmark` (default: spmv), then\n"
      "searches the legal placement space with the analytical model and\n"
      "prints the best / worst placements without implementing them.\n"
      "\n"
      "positional arguments:\n"
      "  benchmark        a Table IV workload name (run with an unknown\n"
      "                   name to list them)\n"
      "  max_placements   enumeration cap for --search=exhaustive and the\n"
      "                   recommendation table (default: 64). When the cap\n"
      "                   truncates the space the advisor says so and warns\n"
      "                   that the result may be non-optimal.\n"
      "\n"
      "flags:\n"
      "  --arch=NAME      architecture backend to advise for: kepler\n"
      "                   (default), fermi, maxwell, or hbm2 (ArchRegistry;\n"
      "                   an unknown name lists the registered backends).\n"
      "                   Latencies, bank geometry and the DRAM address map\n"
      "                   all follow the backend.\n"
      "  --search=MODE    bnb | exhaustive | beam (default: exhaustive).\n"
      "                   bnb covers the FULL m^n space with an admissible\n"
      "                   branch-and-bound (certified optimality gap);\n"
      "                   beam is the fast heuristic with a root-bound\n"
      "                   certificate; exhaustive scores every placement\n"
      "                   up to max_placements.\n"
      "  --deadline-ms=N  wall-clock budget for the search; on expiry the\n"
      "                   best-so-far placement is returned (bnb still\n"
      "                   reports a certified gap).\n"
      "  --checkpoint=P   (bnb only) journal search checkpoints to P so a\n"
      "                   killed run can resume: re-running with the same\n"
      "                   flags continues from the last durable checkpoint\n"
      "                   and returns the same certified result as an\n"
      "                   uninterrupted run (bit-identical on completion).\n"
      "  --resume         require an existing checkpoint journal at the\n"
      "                   --checkpoint path (error if none): makes 'continue\n"
      "                   a previous run' explicit instead of silently\n"
      "                   starting fresh on a typo'd path.\n"
      "  --metrics-out=P  write the metrics registry snapshot as JSON to P\n"
      "                   ('-' for stdout); also enabled by GPUHMS_METRICS.\n"
      "  --trace-out=P    write a Chrome trace-event JSON of the scoped\n"
      "                   phases to P (open in chrome://tracing).\n"
      "  --help           this text.\n"
      "\n"
      "environment:\n"
      "  GPUHMS_THREADS   worker-thread count for search/batch prediction\n"
      "                   (results are bit-identical for any value)\n"
      "  GPUHMS_METRICS   =1 enables metrics recording without a flag\n"
      "  GPUHMS_FAULT     fault-injection spec (testing only)\n");
}

}  // namespace

int main(int argc, char** argv) {
  std::string name = "spmv";
  std::size_t cap = 64;
  std::string search_mode = "exhaustive";
  std::string arch_name = "kepler";
  std::optional<std::chrono::steady_clock::duration> deadline;
  std::optional<std::string> metrics_out;
  std::optional<std::string> trace_out;
  std::optional<std::string> checkpoint_path;
  bool require_resume = false;
  int positional = 0;
  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    if (std::strcmp(arg, "--help") == 0 || std::strcmp(arg, "-h") == 0) {
      print_help();
      return 0;
    }
    if (const char* v = flag_value(arg, "--search", argc, argv, &i)) {
      search_mode = v;  // validated below via parse_search_algo
    } else if (const char* v = flag_value(arg, "--arch", argc, argv, &i)) {
      arch_name = v;  // validated below via ArchRegistry
    } else if (const char* v =
                   flag_value(arg, "--deadline-ms", argc, argv, &i)) {
      deadline = deadline_from_ms(parse_size(v, "deadline"));
    } else if (std::strcmp(arg, "--resume") == 0) {
      require_resume = true;
    } else if (const char* v =
                   flag_value(arg, "--checkpoint", argc, argv, &i)) {
      checkpoint_path = v;
    } else if (const char* v =
                   flag_value(arg, "--metrics-out", argc, argv, &i)) {
      metrics_out = v;
    } else if (const char* v =
                   flag_value(arg, "--trace-out", argc, argv, &i)) {
      trace_out = v;
    } else if (positional == 0) {
      name = arg;
      ++positional;
    } else if (positional == 1) {
      cap = parse_size(arg, "max_placements");
      ++positional;
    } else {
      die(std::string("unexpected argument '") + arg + "'");
    }
  }
  // Algorithm selection goes through the Status layer: an unknown mode is a
  // structured INVALID_ARGUMENT out of parse_search_algo, never a silent
  // fallback to a default engine.
  const StatusOr<SearchAlgo> algo = parse_search_algo(search_mode);
  if (!algo.ok()) die(algo.status().to_string());
  const std::string algo_name(to_string(*algo));
  if (checkpoint_path && *algo != SearchAlgo::kBnb)
    die("--checkpoint requires --search=bnb (only branch-and-bound "
        "checkpoints its frontier)");
  if (require_resume && !checkpoint_path)
    die("--resume requires --checkpoint=PATH");
  if (require_resume && !journal::exists(*checkpoint_path))
    die("--resume: no checkpoint journal at '" + *checkpoint_path +
        "' (drop --resume to start a fresh journaled run)");

  if (metrics_out) obs::set_enabled(true);
  if (trace_out) obs::start_tracing();

  std::vector<std::string> known;
  const auto bench = find_benchmark(name, &known);
  if (!bench) {
    std::string msg = "unknown benchmark '" + name + "'; known benchmarks:";
    std::sort(known.begin(), known.end());
    known.erase(std::unique(known.begin(), known.end()), known.end());
    for (const auto& k : known) msg += " " + k;
    die(msg);
  }
  const StatusOr<const ArchBackend*> backend =
      ArchRegistry::builtin().try_find(arch_name);
  if (!backend.ok()) die(backend.status().to_string());
  const GpuArch& arch = (*backend)->arch;
  if (const Status st = validate(arch); !st.ok()) die(st.to_string());
  if (const Status st = validate(bench->kernel); !st.ok()) die(st.to_string());
  std::printf("arch: %s — %s\n", (*backend)->name.c_str(),
              (*backend)->summary.c_str());

  // Train the T_overlap model (Eq. 11) on the Table IV training suite,
  // excluding the kernel under advisement to keep the demo honest.
  std::vector<workloads::BenchmarkCase> training = workloads::training_suite();
  std::vector<TrainingCase> cases;
  for (const auto& c : training) {
    if (c.name == name) continue;
    cases.push_back({&c.kernel, c.sample});
    for (const auto& t : c.tests) cases.push_back({&c.kernel, t.placement});
  }
  std::printf("training T_overlap on %zu placements...\n", cases.size());
  const ToverlapModel overlap = train_overlap_model(cases, arch);

  // Profile the sample placement once.
  Predictor pred(bench->kernel, arch, ModelOptions{}, overlap);
  if (const Status st = pred.try_profile_sample(bench->sample); !st.ok())
    die(st.to_string());
  const double sample_cycles =
      static_cast<double>(pred.sample_result().cycles);
  std::printf("%s sample placement %s: %0.f cycles measured\n\n",
              name.c_str(), bench->sample.to_string().c_str(), sample_cycles);

  // Search the placement space with the selected engine.
  SearchOptions so;
  so.cap = cap;
  so.deadline = deadline;
  ResumeInfo resume_info;
  const StatusOr<SearchResult> searched =
      checkpoint_path
          ? try_resume_branch_and_bound(pred, so, *checkpoint_path,
                                        &resume_info)
          : try_search(pred, *algo, so);
  if (!searched.ok()) die(searched.status().to_string());
  const SearchResult& sr = *searched;
  if (checkpoint_path) {
    if (resume_info.already_complete)
      std::printf("checkpoint journal '%s': run already complete, result "
                  "returned verbatim\n",
                  checkpoint_path->c_str());
    else if (resume_info.resumed)
      std::printf("resumed from checkpoint journal '%s' (%llu checkpoints, "
                  "visit watermark %llu%s); wrote %llu more\n",
                  checkpoint_path->c_str(),
                  static_cast<unsigned long long>(
                      resume_info.checkpoints_read),
                  static_cast<unsigned long long>(resume_info.resumed_visits),
                  resume_info.tail_truncated ? "; torn tail truncated" : "",
                  static_cast<unsigned long long>(
                      resume_info.checkpoints_written));
    else
      std::printf("journaling checkpoints to '%s' (%llu written)\n",
                  checkpoint_path->c_str(),
                  static_cast<unsigned long long>(
                      resume_info.checkpoints_written));
  }
  std::printf("%s search: best %s at %.0f predicted cycles "
              "(%zu evaluated%s%s)\n",
              algo_name.c_str(), sr.placement.to_string().c_str(),
              sr.predicted_cycles, sr.evaluated,
              sr.deadline_hit ? "; deadline hit" : "",
              sr.cancelled ? "; cancelled" : "");
  if (*algo == SearchAlgo::kBnb) {
    std::printf("  certificate: lower bound %.0f cycles, optimality gap "
                "%.2f%%%s (%zu nodes expanded, %zu subtrees pruned)\n",
                sr.lower_bound, 100.0 * sr.optimality_gap,
                sr.proven_optimal ? " [proven optimal]" : "",
                sr.nodes_expanded, sr.pruned_subtrees);
  } else if (*algo == SearchAlgo::kBeam) {
    std::printf("  certificate (root bound only): lower bound %.0f cycles, "
                "gap <= %.2f%%\n",
                sr.lower_bound, 100.0 * sr.optimality_gap);
  } else if (sr.space_truncated) {
    std::printf("  WARNING: enumeration capped at %zu placements; %llu "
                "combinations never examined — result may be non-optimal "
                "(raise max_placements or use --search=bnb)\n",
                cap, static_cast<unsigned long long>(sr.space_skipped));
  }
  // A checkpoint append that failed mid-run degraded durability: the result
  // above is still correct, but the journal the user asked for is stale —
  // that is an error exit, not a shrug (a later crash could not resume).
  if (resume_info.journal_write_failed)
    die("checkpoint journal write failed (result above is correct but NOT "
        "durable): " + resume_info.journal_write_error);
  std::printf("\n");

  // Explore the legal placement space analytically (batch prediction). The
  // cap is made visible: a truncated table is a partial view, not the
  // optimum, and must say so rather than silently reporting the capped best.
  const PlacementSpace enumerated =
      enumerate_placement_space(bench->kernel, arch, cap);
  const std::vector<DataPlacement>& space = enumerated.placements;
  const StatusOr<std::vector<Prediction>> batch =
      pred.try_predict_batch(space);
  if (!batch.ok()) die(batch.status().to_string());
  struct Scored {
    DataPlacement placement;
    double predicted;
    bool saturated;
  };
  std::vector<Scored> scored;
  scored.reserve(space.size());
  for (std::size_t i = 0; i < space.size(); ++i) {
    scored.push_back({space[i], (*batch)[i].total_cycles,
                      (*batch)[i].queue_saturated});
  }
  std::sort(scored.begin(), scored.end(),
            [](const Scored& a, const Scored& b) {
              return a.predicted < b.predicted;
            });

  if (enumerated.truncated) {
    std::printf("explored %zu legal placements (CAPPED: %llu combinations "
                "not evaluated — table may miss the optimum; raise "
                "max_placements or use --search=bnb); top 5:\n",
                scored.size(),
                static_cast<unsigned long long>(
                    enumerated.skipped_combinations));
  } else {
    std::printf("explored all %zu legal placements; top 5 recommendations:\n",
                scored.size());
  }
  std::printf("%-4s %-16s %12s %14s %10s %s\n", "#", "placement", "predicted",
              "vs sample", "measured", "change");
  for (std::size_t i = 0; i < std::min<std::size_t>(5, scored.size()); ++i) {
    const auto& s = scored[i];
    // Validate the recommendation against the substrate ("hardware").
    const double measured = static_cast<double>(
        simulate(bench->kernel, s.placement, arch).cycles);
    std::printf("%-4zu %-16s %12.0f %13.2fx %10.0f %s%s\n", i + 1,
                s.placement.to_string().c_str(), s.predicted,
                sample_cycles / s.predicted, measured,
                s.placement.describe_vs(bench->sample, bench->kernel).c_str(),
                s.saturated ? " [queue saturated]" : "");
  }
  std::printf("\nworst 3 (placements to avoid):\n");
  for (std::size_t i = scored.size() >= 3 ? scored.size() - 3 : 0;
       i < scored.size(); ++i) {
    const auto& s = scored[i];
    std::printf("     %-16s %12.0f %13.2fx            %s\n",
                s.placement.to_string().c_str(), s.predicted,
                sample_cycles / s.predicted,
                s.placement.describe_vs(bench->sample, bench->kernel).c_str());
  }

  if (trace_out) {
    obs::stop_tracing();
    if (const Status st = obs::write_chrome_trace(*trace_out); !st.ok())
      die(st.to_string());
    std::printf("\nwrote Chrome trace to %s (open in chrome://tracing)\n",
                trace_out->c_str());
  }
  if (metrics_out) {
    const std::string json = obs::snapshot().to_json();
    if (*metrics_out == "-") {
      std::printf("\n%s", json.c_str());
    } else {
      std::FILE* f = std::fopen(metrics_out->c_str(), "w");
      if (!f) die("cannot open metrics output file '" + *metrics_out + "'");
      std::fputs(json.c_str(), f);
      if (std::fclose(f) != 0)
        die("failed writing metrics to '" + *metrics_out + "'");
      std::printf("\nwrote metrics snapshot to %s\n", metrics_out->c_str());
    }
  }
  return 0;
}
