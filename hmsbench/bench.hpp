// hmsbench: the end-to-end and per-layer benchmark of gpuhms_serve.
//
// One seeded request stream per workload drives a freshly spawned daemon
// (untraced mode, the end-to-end metrics) or is replayed in process around
// each layer's public calls (traced mode, the per-layer metrics). Layout:
//   workloads.cpp  workload table and the seeded stream generator
//   drive.cpp      daemon spawn, the single-threaded client, response checks
//   traced.cpp     the traced in-process replay and the layer probes
//   main.cpp       command line, run stamp, drift probe, result line
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "arch/gpu_arch.hpp"
#include "workloads/workloads.hpp"

namespace gpuhms::serve {
struct ServeOptions;
}

namespace hmsbench {

using Clock = std::chrono::steady_clock;

inline double ms_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

// --- statistics --------------------------------------------------------------
// Linear-interpolated quantile of an unsorted sample (q in [0, 1]); 0 when
// the sample is empty.
double quantile(std::vector<double> v, double q);
inline double median(std::vector<double> v) { return quantile(std::move(v), 0.5); }

// SplitMix64: the benchmark's own generator, so a stream depends on nothing
// but (workload, seed).
class Rng {
 public:
  explicit Rng(std::uint64_t seed) : state_(seed) {}
  std::uint64_t next() {
    std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ull);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
  }
  double uniform() { return static_cast<double>(next() >> 11) * 0x1.0p-53; }
  std::size_t below(std::size_t n) { return static_cast<std::size_t>(next() % n); }
  template <class T>
  void shuffle(std::vector<T>& v) {
    for (std::size_t i = v.size(); i > 1; --i) std::swap(v[i - 1], v[below(i)]);
  }

 private:
  std::uint64_t state_;
};

// --- workloads ---------------------------------------------------------------
struct Pair {
  std::string benchmark;
  std::string arch;
};

// What the stream asks: back-to-back searches, prewarmed predicts with
// fresh misses, or a walk over every (benchmark, arch) pair.
enum class Mix { kSearch, kWarm, kChurn };

// Every number that shapes a workload lives here, fixed from measurements of
// the revision the benchmark was written against (README.md, "Workload
// constants").
struct Workload {
  std::string name;
  Mix mix = Mix::kSearch;
  int threads = 1;           // gpuhms_serve --threads
  int executor_threads = 1;  // gpuhms_serve --executor-threads
  std::size_t kernel_cache = 16;
  std::size_t prediction_cache = 4096;
  std::vector<Pair> pairs;
  // Requests per 10 s of --seconds, a fixed amount of work; 0 = send until
  // the time is up (search workloads, whose requests are all alike).
  std::size_t requests_per_10s = 0;
  double slo_ms = 0;  // latency limit for the slo_attainment diagnostic
  // serve-warm only.
  std::size_t hit_keys_per_pair = 0;
  // Every miss_every-th request misses the prediction cache, and every
  // batch_every-th miss is a predict_batch of batch_size fresh placements;
  // a fixed interleave, so every seed asks for the same amount of work.
  std::size_t miss_every = 0;
  std::size_t batch_every = 0;
  std::size_t batch_size = 8;
};

const std::vector<Workload>& workloads();
const Workload* find_workload(std::string_view name);

struct Request {
  std::string line;  // the exact bytes sent, without the newline
  std::string id;
  std::string verb;  // predict | predict_batch | search | health
  int pair = -1;     // index into Workload::pairs
  std::vector<std::string> placements;  // predict / predict_batch
  bool expect_hit = false;
};

// The seeded stream: a pure function of (workload, seed). warmup() are the
// set-up lines (prefill, never timed); next() yields the timed stream.
class Stream {
 public:
  Stream(const Workload& w, std::uint64_t seed);
  std::vector<Request> warmup() const;
  Request next();
  // Whether the next `requests` of next() can all be drawn: each miss
  // takes fresh placements from its own pair's pool, so a run longer than
  // the pools would change the mix instead of repeating it.
  bool can_issue(std::size_t requests) const;
  // Fixed (seed-independent) keys scored for pred_error_pct.
  std::vector<Request> accuracy_keys() const;

 private:
  std::string next_id();
  std::size_t miss_pair(std::size_t n) const;   // pool of the n-th miss
  std::size_t miss_width(std::size_t n) const;  // placements it takes
  Request make(std::string id, std::string verb, int pair,
               std::vector<std::string> placements, bool expect_hit) const;
  const Workload& w_;
  Rng rng_;
  std::uint64_t seed_;
  std::size_t issued_ = 0;
  std::vector<std::string> sample_;  // per pair: default sample placement
  // serve-warm key sets.
  std::vector<std::pair<int, std::string>> hit_keys_;  // Zipf rank order
  std::vector<double> zipf_cdf_;
  std::vector<std::vector<std::string>> miss_pool_;  // per pair, drawn from back
  std::size_t misses_ = 0;
  std::vector<int> churn_order_;
};

// FNV-1a over the first 64 lines next() yields for (w, seed): a fingerprint
// of the stream that does not depend on how many requests a run sent.
std::uint64_t stream_hash(const Workload& w, std::uint64_t seed);

std::string hex64(std::uint64_t v);
// Benchmark cases by name (both suites, built once) and arch backends.
const gpuhms::workloads::BenchmarkCase& benchmark_case(const std::string& name);
const gpuhms::GpuArch& arch_named(const std::string& name);

// --- results -----------------------------------------------------------------
struct Metric {
  double value = 0;
  std::string unit;
};
using Metrics = std::map<std::string, Metric>;

struct Outcome {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  Metrics metrics;
  std::vector<std::string> problems;  // why correct is false
  std::vector<std::string> notes;     // name value unit diagnostics
  void fail(std::string why) {
    correct = false;
    problems.push_back(std::move(why));
  }
  void note(const std::string& name, double value, const std::string& unit);
  void text(const std::string& name, const std::string& value);
};

struct RunArgs {
  const Workload* workload = nullptr;
  std::uint64_t seed = 0;
  double seconds = 10;
  std::string daemon;   // path of the gpuhms_serve binary
  std::string workdir;  // sockets, daemon logs and run records (relative)
  int setups = 3;
};

// The in-process twin of the daemon flags a workload pins.
gpuhms::serve::ServeOptions serve_options(const Workload& w);

// Untraced run against the daemon: every end-to-end metric.
Outcome drive(const RunArgs& args);
// Traced run: a shorter untraced daemon pass plus the traced in-process
// replay; every per-layer metric.
Outcome traced(const RunArgs& args);

// The daemon-driven run shared by both modes. Returns the end-to-end
// metrics; `pass`, when given, receives what the traced mode reuses.
struct DaemonPass {
  double latency_p50_ms = 0;  // untraced median, for trace.overhead_ms
  // Client turnaround: previous answer in -> next request out.
  std::vector<double> lag_ms;
  std::vector<std::pair<std::string, double>> round_trip_ms;  // line -> rtt
  std::map<std::string, double> stats;     // flattened `metrics` verb
};
Outcome drive_daemon(const RunArgs& args, DaemonPass* pass);

}  // namespace hmsbench
