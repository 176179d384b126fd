// Observability layer: a process-wide metrics registry (counters, gauges,
// log2-bucket histograms), RAII scoped phase timers, and a Chrome
// trace-event recorder.
//
// Design constraints, in order:
//   1. Zero overhead when off. Every hot-path macro is a single relaxed
//      atomic load + branch when metrics are disabled (the default), and a
//      compile-time no-op when GPUHMS_DISABLE_OBS is defined. Instrumented
//      code must never change model *results* — metrics observe, they do
//      not participate (the determinism test locks this in).
//   2. No allocation on the hot path. Metric handles are resolved once per
//      call site (function-local static) through the registry's cold path;
//      recording touches only pre-sized atomic arrays. Histograms use fixed
//      log2 buckets (bucket i counts values v with bit_width(v) == i), so a
//      nanosecond-scale timer and a percent-scale utilization share one
//      implementation without configuration.
//   3. Lock-sharded. The registry's name->metric maps are sharded by name
//      hash (registration-time contention only); counter/histogram cells
//      are sharded by thread so concurrent search workers never bounce one
//      cache line.
//
// Toggles:
//   * GPUHMS_METRICS env var (any value but "0"/"") enables metric
//     recording at process start; obs::set_enabled() overrides at runtime.
//   * Tracing is separate: obs::start_tracing() begins collecting scoped-
//     phase events; obs::write_chrome_trace() emits the standard Chrome
//     trace-event JSON (load it in chrome://tracing or Perfetto).
//   * Compiling with -DGPUHMS_DISABLE_OBS turns every macro below into
//     ((void)0) for a hard zero-overhead build.
//
// Naming convention: "layer.metric[_unit]", e.g. "predictor.predict_ns",
// "search.evaluated", "queuing.bank_utilization_pct". Snapshots render
// metrics sorted by name, so stable names give stable output.
#pragma once

#include <array>
#include <atomic>
#include <bit>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.hpp"

namespace gpuhms::obs {

// --- toggles -----------------------------------------------------------------

// True when metric recording is on (GPUHMS_METRICS env or set_enabled).
// One relaxed atomic load; safe to call from any thread at any time.
bool metrics_active();
void set_enabled(bool on);

// Trace-event collection (independent of metrics_active). start_tracing
// clears previously collected events and restarts the trace clock.
bool tracing_active();
void start_tracing();
void stop_tracing();

// --- metric primitives -------------------------------------------------------

inline constexpr int kValueShards = 8;

// Monotonic counter. add() is wait-free: one fetch_add on this thread's
// shard. value() sums the shards (reader-side cost only).
class Counter {
 public:
  void add(std::uint64_t delta) {
    shards_[shard_index()].v.fetch_add(delta, std::memory_order_relaxed);
  }
  std::uint64_t value() const;
  void reset();

 private:
  static unsigned shard_index();
  struct alignas(64) Cell {
    std::atomic<std::uint64_t> v{0};
  };
  std::array<Cell, kValueShards> shards_{};
};

// Last-writer-wins signed gauge.
class Gauge {
 public:
  void set(std::int64_t v) { v_.store(v, std::memory_order_relaxed); }
  void add(std::int64_t d) { v_.fetch_add(d, std::memory_order_relaxed); }
  std::int64_t value() const { return v_.load(std::memory_order_relaxed); }
  void reset() { v_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<std::int64_t> v_{0};
};

// Histogram over unsigned 64-bit samples with fixed log2 buckets: bucket i
// counts samples whose bit_width is i (bucket 0 holds v == 0, bucket i>0
// holds v in [2^(i-1), 2^i)). 65 buckets cover the full range — nothing to
// configure, nothing to allocate. Sum/count/min/max are tracked exactly.
class Histogram {
 public:
  static constexpr int kBuckets = 65;

  void record(std::uint64_t v);
  std::uint64_t count() const;
  std::uint64_t sum() const;
  std::uint64_t min() const;  // 0 when empty
  std::uint64_t max() const;  // 0 when empty
  double mean() const;
  std::uint64_t bucket_count(int b) const;
  // Inclusive lower bound of bucket b (0, 1, 2, 4, 8, ...).
  static std::uint64_t bucket_lo(int b) {
    return b == 0 ? 0 : std::uint64_t{1} << (b - 1);
  }
  void reset();

 private:
  static unsigned shard_index();
  struct alignas(64) Cell {
    std::array<std::atomic<std::uint64_t>, kBuckets> buckets{};
    std::atomic<std::uint64_t> count{0};
    std::atomic<std::uint64_t> sum{0};
    std::atomic<std::uint64_t> min{~std::uint64_t{0}};
    std::atomic<std::uint64_t> max{0};
  };
  std::array<Cell, kValueShards> shards_{};
};

// --- registry ----------------------------------------------------------------

// Returns the process-wide metric with this name, registering it on first
// use. References stay valid for the process lifetime (reset() zeroes
// values, it never unregisters). Cold path: meant to be called once per
// call site and cached (the GPUHMS_* macros below do this).
Counter& counter(std::string_view name);
Gauge& gauge(std::string_view name);
Histogram& histogram(std::string_view name);

// Zero every registered metric (registrations survive). For tests/benches
// that want a clean window.
void reset_all_metrics();

// --- snapshot ----------------------------------------------------------------

struct MetricsSnapshot {
  struct CounterEntry {
    std::string name;
    std::uint64_t value = 0;
  };
  struct GaugeEntry {
    std::string name;
    std::int64_t value = 0;
  };
  struct HistogramEntry {
    std::string name;
    std::uint64_t count = 0;
    std::uint64_t sum = 0;
    std::uint64_t min = 0;
    std::uint64_t max = 0;
    double mean = 0.0;
    // (bucket lower bound, count), nonzero buckets only, ascending.
    std::vector<std::pair<std::uint64_t, std::uint64_t>> buckets;
  };

  std::vector<CounterEntry> counters;      // sorted by name
  std::vector<GaugeEntry> gauges;          // sorted by name
  std::vector<HistogramEntry> histograms;  // sorted by name

  // Empty-result lookups return nullptr.
  const CounterEntry* find_counter(std::string_view name) const;
  const GaugeEntry* find_gauge(std::string_view name) const;
  const HistogramEntry* find_histogram(std::string_view name) const;

  // Stable renderings: one metric per line (text) / one object per metric
  // kind (JSON), both sorted by name.
  std::string to_text() const;
  std::string to_json() const;
};

// Consistent-enough point-in-time view of every registered metric. (Each
// cell is read atomically; a snapshot taken while writers run may split a
// logical update across cells — fine for the profiling use, documented so
// nobody builds an invariant on it.)
MetricsSnapshot snapshot();

// --- scoped phase timers -----------------------------------------------------

// Monotonic nanosecond clock used by the timers (exposed for tests).
std::uint64_t now_ns();

// Times a scope. On destruction records the duration into `hist` (when
// metrics are active) and emits a Chrome trace event named `name` (when
// tracing is active). `name` must outlive the recorder — string literals
// only. When both toggles are off, construction is two relaxed loads and
// destruction is one branch.
class ScopedPhase {
 public:
  ScopedPhase(Histogram& hist, const char* name)
      : hist_(&hist), name_(name),
        metrics_(metrics_active()), tracing_(tracing_active()) {
    if (metrics_ || tracing_) start_ = now_ns();
  }
  ~ScopedPhase();

  ScopedPhase(const ScopedPhase&) = delete;
  ScopedPhase& operator=(const ScopedPhase&) = delete;

 private:
  Histogram* hist_;
  const char* name_;
  bool metrics_;
  bool tracing_;
  std::uint64_t start_ = 0;
};

// --- Chrome trace export -----------------------------------------------------

// Writes every event collected since start_tracing() as Chrome trace-event
// JSON ({"traceEvents": [...]}, "X" complete events, microsecond
// timestamps relative to start_tracing). Loadable in chrome://tracing and
// Perfetto. Does not stop or clear the trace.
Status write_chrome_trace(const std::string& path);
// Same, rendered to a string (for tests / stdout).
std::string chrome_trace_json();

// Internal: append one complete event (used by ScopedPhase; exposed for
// instrumentation that cannot use RAII).
void trace_emit(const char* name, std::uint64_t start_ns,
                std::uint64_t dur_ns);

}  // namespace gpuhms::obs

// --- instrumentation macros --------------------------------------------------
//
// Each macro caches its metric handle in a function-local static resolved on
// the first *active* execution, so the disabled path never touches the
// registry. Names must be string literals (they key the registry and outlive
// the call).

#define GPUHMS_OBS_CONCAT2(a, b) a##b
#define GPUHMS_OBS_CONCAT(a, b) GPUHMS_OBS_CONCAT2(a, b)

#ifdef GPUHMS_DISABLE_OBS

#define GPUHMS_COUNTER_ADD(name, delta) ((void)0)
#define GPUHMS_GAUGE_SET(name, value) ((void)0)
#define GPUHMS_HISTOGRAM_RECORD(name, value) ((void)0)
#define GPUHMS_SCOPED_PHASE(name) ((void)0)

#else

#define GPUHMS_COUNTER_ADD(name, delta)                               \
  do {                                                                \
    if (::gpuhms::obs::metrics_active()) {                            \
      static ::gpuhms::obs::Counter& gpuhms_obs_c =                   \
          ::gpuhms::obs::counter(name);                               \
      gpuhms_obs_c.add(static_cast<std::uint64_t>(delta));            \
    }                                                                 \
  } while (0)

#define GPUHMS_GAUGE_SET(name, value)                                 \
  do {                                                                \
    if (::gpuhms::obs::metrics_active()) {                            \
      static ::gpuhms::obs::Gauge& gpuhms_obs_g =                     \
          ::gpuhms::obs::gauge(name);                                 \
      gpuhms_obs_g.set(static_cast<std::int64_t>(value));             \
    }                                                                 \
  } while (0)

#define GPUHMS_HISTOGRAM_RECORD(name, value)                          \
  do {                                                                \
    if (::gpuhms::obs::metrics_active()) {                            \
      static ::gpuhms::obs::Histogram& gpuhms_obs_h =                 \
          ::gpuhms::obs::histogram(name);                             \
      gpuhms_obs_h.record(static_cast<std::uint64_t>(value));         \
    }                                                                 \
  } while (0)

// Times the enclosing scope into histogram `name` and (when tracing) emits
// a trace event of the same name. The histogram is registered eagerly so it
// appears in snapshots even before its first active pass.
#define GPUHMS_SCOPED_PHASE(name)                                     \
  static ::gpuhms::obs::Histogram& GPUHMS_OBS_CONCAT(                 \
      gpuhms_obs_ph_, __LINE__) = ::gpuhms::obs::histogram(name);     \
  const ::gpuhms::obs::ScopedPhase GPUHMS_OBS_CONCAT(                 \
      gpuhms_obs_sp_, __LINE__)(                                      \
      GPUHMS_OBS_CONCAT(gpuhms_obs_ph_, __LINE__), name)

#endif  // GPUHMS_DISABLE_OBS
