// Search-engine throughput: end-to-end exhaustive-search wall time and
// predictions/sec. The serial seed is the pre-engine code path — one thread,
// every candidate predicted cold (the trace regenerated and walked in full).
// The single-core `soa_replay` variant is search_exhaustive on the same
// thread, skeleton-backed, so its ratio to `serial_seed` is the replay-engine
// speedup; `parallel_memoized` adds the thread pool. Run on the largest
// registered workloads (>= 4 arrays, i.e. the widest placement spaces).
//
// Besides timing, the bench is a correctness harness: every variant must
// return the serial seed's winner, and every candidate's cold cycles from
// the seed sweep must be byte-identical to its SoA-replay cycles. At the
// default cap it also self-asserts the >= 5x single-core SoA-vs-seed target
// on matrixmul. A final metrics-enabled pass (not timed) records the
// per-phase breakdown.
//
// Emits BENCH_search.json in the working directory for the perf trajectory.
//
// Usage: ./bench/bench_search_throughput [cap] [repeats]
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "bench_stamp.hpp"
#include "common/obs.hpp"
#include "model/search.hpp"
#include "workloads/workloads.hpp"

using namespace gpuhms;

namespace {

double now_ms() {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

struct Variant {
  std::string name;
  SearchOptions options;
};

struct Measurement {
  double wall_ms = 0.0;
  SearchResult result;
};

Measurement run_variant(const Predictor& pred, const Variant& variant,
                        int repeats) {
  Measurement m;
  m.wall_ms = 1e300;
  for (int r = 0; r < repeats; ++r) {
    const double t0 = now_ms();
    m.result = search_exhaustive(pred, variant.options);
    m.wall_ms = std::min(m.wall_ms, now_ms() - t0);  // best-of-N
  }
  return m;
}

// The serial seed: predicts every candidate cold on the calling thread (a
// fresh analyzer regenerates and walks the trace in full, and the anchored
// events overload of predict() scores it) and keeps the first minimum,
// exhaustive search's tie-break. `cold` gets each candidate's cycles for the
// byte check against SoA replay.
Measurement run_serial_seed(const Predictor& pred, const PlacementSpace& space,
                            int repeats, std::vector<double>* cold) {
  Measurement m;
  m.wall_ms = 1e300;
  for (int r = 0; r < repeats; ++r) {
    const double t0 = now_ms();
    cold->clear();
    SearchResult best;
    for (const DataPlacement& p : space.placements) {
      cold->push_back(
          pred.predict(pred.make_analyzer().analyze(p)).total_cycles);
      if (best.evaluated++ == 0 || cold->back() < best.predicted_cycles) {
        best.placement = p;
        best.predicted_cycles = cold->back();
      }
    }
    m.wall_ms = std::min(m.wall_ms, now_ms() - t0);  // best-of-N
    m.result = best;
  }
  return m;
}

bool same_bits(double a, double b) {
  return std::memcmp(&a, &b, sizeof a) == 0;
}

// Re-predicts every candidate of the capped space through SoA replay and
// requires byte-identical total cycles to the seed's cold sweep, candidate
// by candidate. Ranking equality follows from value equality.
bool ranked_results_identical(const Predictor& pred,
                              const workloads::BenchmarkCase& c,
                              const PlacementSpace& space,
                              const std::vector<double>& cold) {
  TraceAnalyzer soa_analyzer = pred.make_analyzer();
  for (std::size_t i = 0; i < space.placements.size(); ++i) {
    const DataPlacement& p = space.placements[i];
    const double soa = pred.predict(p, &soa_analyzer).total_cycles;
    if (!same_bits(cold[i], soa)) {
      std::fprintf(stderr,
                   "%s: ranked results diverge on %s "
                   "(cold=%.17g soa=%.17g)\n",
                   c.name.c_str(), p.to_string().c_str(), cold[i], soa);
      return false;
    }
  }
  return true;
}

void emit_histogram(std::FILE* json, const char* key,
                    const obs::MetricsSnapshot& snap, bool* first) {
  const auto* h = snap.find_histogram(key);
  if (!h) return;
  std::fprintf(json, "%s\n        \"%s\": {\"count\": %llu, \"sum\": %llu, "
               "\"mean\": %.1f, \"max\": %llu, \"buckets\": [",
               *first ? "" : ",", key,
               static_cast<unsigned long long>(h->count),
               static_cast<unsigned long long>(h->sum), h->mean,
               static_cast<unsigned long long>(h->max));
  *first = false;
  for (std::size_t b = 0; b < h->buckets.size(); ++b)
    std::fprintf(json, "%s[%llu, %llu]", b ? ", " : "",
                 static_cast<unsigned long long>(h->buckets[b].first),
                 static_cast<unsigned long long>(h->buckets[b].second));
  std::fprintf(json, "]}");
}

}  // namespace

int main(int argc, char** argv) {
  const std::size_t cap =
      argc > 1 ? std::strtoul(argv[1], nullptr, 10) : 96;
  const int repeats = argc > 2 ? std::atoi(argv[2]) : 2;
  const GpuArch& arch = kepler_arch();
  const int threads = ThreadPool::default_threads();
  // The 5x single-core acceptance target only means something at a cap large
  // enough to amortize the per-search setup; the tiny `ctest -L perf` smoke
  // run stays a pure smoke test.
  const bool assert_speedup = cap >= 96;

  // Largest workloads: every registered benchmark with >= 4 arrays.
  std::vector<workloads::BenchmarkCase> cases = workloads::evaluation_suite();
  for (auto& c : workloads::training_suite()) cases.push_back(std::move(c));
  std::vector<workloads::BenchmarkCase> picked;
  for (auto& c : cases)
    if (c.kernel.arrays.size() >= 4) picked.push_back(std::move(c));
  std::sort(picked.begin(), picked.end(), [](const auto& a, const auto& b) {
    return a.kernel.arrays.size() > b.kernel.arrays.size();
  });
  if (picked.size() > 4) picked.resize(4);

  auto opts = [&](int nthreads) {
    SearchOptions o;
    o.cap = cap;
    o.num_threads = nthreads;
    return o;
  };
  // Timed after the serial seed, which is not a search_exhaustive variant.
  const std::vector<Variant> variants = {
      {"soa_replay", opts(1)},
      {"parallel_memoized", opts(threads)},
  };

  std::FILE* json = std::fopen("BENCH_search.json", "w");
  if (!json) {
    std::fprintf(stderr, "cannot open BENCH_search.json\n");
    return 1;
  }
  std::fprintf(json, "{\n");
  bench::write_stamp(json);
  std::fprintf(json, "  \"threads\": %d,\n  \"cap\": %zu,\n  \"workloads\": [\n",
               threads, cap);

  std::printf("search throughput (cap=%zu, %d threads, best of %d)\n\n", cap,
              threads, repeats);
  bool first_workload = true;
  bool speedup_ok = true;
  for (const auto& c : picked) {
    Predictor pred(c.kernel, arch);
    pred.profile_sample(c.sample);
    const PlacementSpace space =
        enumerate_placement_space(c.kernel, arch, cap);

    std::printf("%s (%zu arrays, %zu legal placements%s)\n", c.name.c_str(),
                c.kernel.arrays.size(), space.placements.size(),
                space.truncated ? ", capped" : "");
    std::printf("  %-26s %10s %12s %10s %8s\n", "variant", "wall ms",
                "pred/sec", "evaluated", "speedup");

    if (!first_workload) std::fprintf(json, ",\n");
    first_workload = false;
    std::fprintf(json,
                 "    {\n      \"name\": \"%s\",\n      \"arrays\": %zu,\n"
                 "      \"variants\": {\n",
                 c.name.c_str(), c.kernel.arrays.size());

    std::vector<double> cold;
    const Measurement seed = run_serial_seed(pred, space, repeats, &cold);
    const double serial_ms = seed.wall_ms;
    double soa_ms = 0.0;
    auto report = [&](const std::string& name, const Measurement& m,
                      bool last) {
      const double preds_per_sec =
          static_cast<double>(m.result.evaluated) / (m.wall_ms / 1000.0);
      const double speedup = serial_ms / m.wall_ms;
      std::printf("  %-26s %10.1f %12.1f %10zu %7.2fx\n", name.c_str(),
                  m.wall_ms, preds_per_sec, m.result.evaluated, speedup);
      std::fprintf(json,
                   "        \"%s\": {\"wall_ms\": %.3f, "
                   "\"predictions_per_sec\": %.2f, \"evaluated\": %zu, "
                   "\"speedup_vs_serial\": %.3f}%s\n",
                   name.c_str(), m.wall_ms, preds_per_sec, m.result.evaluated,
                   speedup, last ? "" : ",");
    };
    report("serial_seed", seed, false);
    for (std::size_t v = 0; v < variants.size(); ++v) {
      const Measurement m = run_variant(pred, variants[v], repeats);
      // The engine must agree with the seed path on the winner.
      if (!(m.result.placement == seed.result.placement) ||
          m.result.predicted_cycles != seed.result.predicted_cycles) {
        std::fprintf(stderr, "%s: %s diverged from serial_seed\n",
                     c.name.c_str(), variants[v].name.c_str());
        std::fclose(json);
        return 1;
      }
      if (variants[v].name == "soa_replay") soa_ms = m.wall_ms;
      report(variants[v].name, m, v + 1 == variants.size());
    }
    std::fprintf(json, "      },\n");

    if (!ranked_results_identical(pred, c, space, cold)) {
      std::fclose(json);
      return 1;
    }
    std::fprintf(json, "      \"ranked_results_identical\": true,\n");

    if (assert_speedup && c.name == "matrixmul" && soa_ms > 0.0 &&
        serial_ms / soa_ms < 5.0) {
      std::fprintf(stderr,
                   "matrixmul: soa_replay %.1fms is only %.2fx over "
                   "serial_seed %.1fms (target >= 5x)\n",
                   soa_ms, serial_ms / soa_ms, serial_ms);
      speedup_ok = false;
    }

    // Per-phase breakdown of one single-core SoA search, recorded outside
    // the timed runs so metric overhead never pollutes the numbers above.
    obs::set_enabled(true);
    obs::reset_all_metrics();
    run_variant(pred, variants[0], 1);
    obs::set_enabled(false);
    const obs::MetricsSnapshot snap = obs::snapshot();
    std::fprintf(json, "      \"soa_phase_ns\": {");
    bool first_hist = true;
    emit_histogram(json, "trace.analyze_ns", snap, &first_hist);
    emit_histogram(json, "trace.soa_lower_ns", snap, &first_hist);
    emit_histogram(json, "trace.soa_replay_ns", snap, &first_hist);
    std::fprintf(json, "\n      }\n    }");
    std::printf("\n");
  }
  std::fprintf(json, "\n  ]\n}\n");
  std::fclose(json);
  if (!speedup_ok) return 1;
  std::printf("wrote BENCH_search.json\n");
  return 0;
}
