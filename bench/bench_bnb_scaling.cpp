// Branch-and-bound scaling past the exhaustive enumeration cap: run
// search_branch_and_bound on the synthetic n-array kernel for n = 4..8
// (placement spaces 625 -> 390625) and record how the explored fraction of
// the space shrinks as the tree grows. Also re-checks, outside the unit
// tests, the three claims the search makes:
//   * bit-for-bit agreement with uncapped exhaustive search where the
//     latter is feasible (n = 4, 5);
//   * a certified optimum at n = 8 while evaluating < 10% of the 5^8 space;
//   * thread-count independence of every reported number at n = 8.
// Emits BENCH_bnb.json in the working directory; exits non-zero when any
// claim fails, so CI can gate on it.
//
// Usage: ./bench/bench_bnb_scaling [max_arrays]
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <vector>

#include "bench_stamp.hpp"
#include "model/search.hpp"
#include "workloads/workloads.hpp"

using namespace gpuhms;

namespace {

double now_ms() {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

struct Row {
  int n_arrays = 0;
  double space = 0.0;
  double wall_ms = 0.0;
  SearchResult bnb;
  bool matched_exhaustive = true;  // only checked where exhaustive ran
};

int g_failures = 0;

void check(bool ok, const char* what) {
  if (!ok) {
    std::fprintf(stderr, "FAIL: %s\n", what);
    ++g_failures;
  }
}

}  // namespace

int main(int argc, char** argv) {
  const int max_arrays = argc > 1 ? std::atoi(argv[1]) : 8;
  const GpuArch& arch = kepler_arch();
  std::vector<Row> rows;

  std::printf("branch-and-bound scaling on bnb_synth (5^n placements)\n\n");
  std::printf("  %2s %10s %10s %10s %10s %9s %8s %10s\n", "n", "space",
              "expanded", "pruned", "evaluated", "explored", "gap",
              "wall ms");

  for (int n = 4; n <= max_arrays; ++n) {
    const KernelInfo k = workloads::make_bnb_synth(n);
    Predictor pred(k, arch);
    pred.profile_sample(DataPlacement::defaults(k));

    Row row;
    row.n_arrays = n;
    row.space = std::pow(5.0, n);
    const double t0 = now_ms();
    row.bnb = search_branch_and_bound(pred);
    row.wall_ms = now_ms() - t0;

    check(row.bnb.proven_optimal, "bnb must run to completion");
    check(row.bnb.optimality_gap == 0.0, "completed run must certify gap 0");

    if (n <= 5) {  // exhaustive ground truth is affordable here
      SearchOptions o;
      o.cap = 1u << 20;
      const SearchResult ex = search_exhaustive(pred, o);
      row.matched_exhaustive =
          !ex.space_truncated && ex.placement == row.bnb.placement &&
          ex.predicted_cycles == row.bnb.predicted_cycles;
      check(row.matched_exhaustive,
            "bnb must match uncapped exhaustive bit-for-bit");
    }

    const double explored =
        static_cast<double>(row.bnb.evaluated) / row.space;
    std::printf("  %2d %10.0f %10zu %10zu %10zu %8.2f%% %8.4f %10.1f\n", n,
                row.space, row.bnb.nodes_expanded, row.bnb.pruned_subtrees,
                row.bnb.evaluated, 100.0 * explored, row.bnb.optimality_gap,
                row.wall_ms);
    rows.push_back(row);
  }

  // The headline claim: at n = 8 the certified optimum costs < 10% of the
  // space, and every reported number is identical for any worker count.
  if (max_arrays >= 8) {
    const Row& r8 = rows.back();
    check(static_cast<double>(r8.bnb.evaluated) < 0.10 * r8.space,
          "n=8 must evaluate < 10% of the 5^8 space");

    const KernelInfo k = workloads::make_bnb_synth(8);
    Predictor pred(k, arch);
    pred.profile_sample(DataPlacement::defaults(k));
    std::printf("\n  determinism at n=8:");
    for (int threads : {1, 4, 16}) {
      SearchOptions o;
      o.num_threads = threads;
      const SearchResult r = search_branch_and_bound(pred, o);
      const bool same = r.placement == r8.bnb.placement &&
                        r.predicted_cycles == r8.bnb.predicted_cycles &&
                        r.nodes_expanded == r8.bnb.nodes_expanded &&
                        r.pruned_subtrees == r8.bnb.pruned_subtrees &&
                        r.evaluated == r8.bnb.evaluated;
      check(same, "n=8 result must be identical across thread counts");
      std::printf(" %d%s", threads, same ? " ok" : " MISMATCH");
    }
    std::printf("\n  optimum: %s (%.1f cycles)\n",
                r8.bnb.placement.to_string().c_str(),
                r8.bnb.predicted_cycles);
  }

  std::FILE* json = std::fopen("BENCH_bnb.json", "w");
  if (!json) {
    std::fprintf(stderr, "cannot open BENCH_bnb.json\n");
    return 1;
  }
  std::fprintf(json, "{\n");
  bench::write_stamp(json);
  std::fprintf(json, "  \"kernel\": \"bnb_synth\",\n  \"rows\": [\n");
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const Row& r = rows[i];
    std::fprintf(
        json,
        "    {\"n_arrays\": %d, \"space\": %.0f, \"nodes_expanded\": %zu,\n"
        "     \"pruned_subtrees\": %zu, \"evaluated\": %zu,\n"
        "     \"explored_fraction\": %.6f, \"optimality_gap\": %.6f,\n"
        "     \"proven_optimal\": %s, \"matched_exhaustive\": %s,\n"
        "     \"best_placement\": \"%s\", \"predicted_cycles\": %.3f,\n"
        "     \"wall_ms\": %.2f}%s\n",
        r.n_arrays, r.space, r.bnb.nodes_expanded, r.bnb.pruned_subtrees,
        r.bnb.evaluated, static_cast<double>(r.bnb.evaluated) / r.space,
        r.bnb.optimality_gap, r.bnb.proven_optimal ? "true" : "false",
        r.matched_exhaustive ? "true" : "false",
        r.bnb.placement.to_string().c_str(), r.bnb.predicted_cycles,
        r.wall_ms, i + 1 < rows.size() ? "," : "");
  }
  std::fprintf(json, "  ],\n  \"failures\": %d\n}\n", g_failures);
  std::fclose(json);

  if (g_failures > 0) {
    std::fprintf(stderr, "\n%d claim(s) failed\n", g_failures);
    return 1;
  }
  std::printf("\nall claims hold; wrote BENCH_bnb.json\n");
  return 0;
}
