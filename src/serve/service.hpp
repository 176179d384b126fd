// gpuhms_serve: a long-lived, batched, cached prediction/search service.
//
// Every earlier entry point (placement_advisor, quickstart) pays kernel
// profiling and trace lowering per process invocation; the north-star
// deployment is a daemon that answers placement questions from memory. This
// layer is that daemon's engine: a thread-safe request handler speaking
// newline-delimited JSON (protocol grammar in DESIGN §11) over any byte
// stream, layered on the existing Predictor/search engine with
//
//   * a bounded cache of *kernel entries* — the expensive per-kernel
//     state: a profiled Predictor plus its lowered TraceSkeleton — keyed by
//     (benchmark name, arch backend), fingerprinted structurally
//     (common/hashing.hpp); the optional request `arch` field selects an
//     ArchRegistry backend per request, and the arch fingerprint in every
//     prediction-cache key keeps cross-arch entries from ever colliding.
//     Entries of one benchmark on archs of one skeleton geometry (cache-line
//     size, shared bank count) share one recording of the benchmark and its
//     skeleton;
//   * a bounded cache of memoized Predictions keyed by
//     (kernel fingerprint, arch fingerprint, placement) so repeated predicts
//     are a map lookup, not a trace replay. Both caches (and the idem-replay
//     cache) are the sharded LRU ConcurrentCache of DESIGN §14: one mutex
//     per shard, so warm hits from concurrent clients contend only when
//     their keys share a shard;
//   * request batching: predict_batch requests (and pipelined runs of
//     same-kernel predicts, see handle_pipeline) coalesce their cache misses
//     into ONE Predictor::predict_batch call on the shared ThreadPool;
//   * admission control: oversized lines, oversized batches, over-cap
//     searches and too many concurrent requests are rejected with structured
//     Status-coded error responses (never a crash — the PR 2 try_* API is
//     the only model surface used).
//
// Determinism: responses are built from bit-deterministic predictions and
// dumped with round-trip number formatting, so an identical request yields a
// byte-identical response for any GPUHMS_THREADS and any cache state.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "common/concurrent_cache.hpp"
#include "common/thread_pool.hpp"
#include "model/search.hpp"
#include "serve/json.hpp"
#include "workloads/workloads.hpp"

namespace gpuhms::serve {

struct ServeOptions {
  // LRU capacities. kernel_cache bounds profiled Predictor+TraceSkeleton
  // entries (the heavyweight state); prediction_cache bounds memoized
  // Prediction values. 0 disables the respective cache.
  std::size_t kernel_cache_capacity = 16;
  std::size_t prediction_cache_capacity = 4096;
  // Admission control.
  std::size_t max_inflight = 64;       // concurrent requests admitted
  std::size_t max_batch = 1024;        // placements per predict_batch
  std::size_t max_line_bytes = 1 << 16;  // request line size bound
  std::size_t max_search_cap = 65536;  // largest accepted search "cap"
  // Shared ThreadPool size for batch prediction / search; 0 picks
  // ThreadPool::default_threads() (the GPUHMS_THREADS env var).
  int num_threads = 0;
  // Train the Eq. 11 T_overlap model on the Table IV training suite at
  // construction (seconds of startup; the daemon flag --train-overlap).
  // Off by default so tests and short-lived services start instantly.
  bool train_overlap = false;
  // Per-request watchdog: a search may run at most this long, counted from
  // dispatch (time queued for the shared pool included). It is passed to the
  // search as its deadline when tighter than the request's own deadline_ms;
  // a search it stops answers the anytime best-so-far with `cancelled` set,
  // never a lost response. 0 disables the watchdog.
  std::size_t watchdog_ms = 0;
  // Idempotency-replay cache: responses of successful predict/predict_batch/
  // search requests carrying an "idem" fingerprint are memoized, so a client
  // retry (serve/client.hpp) returns the original bytes without re-executing.
  // 0 disables.
  std::size_t idem_cache_capacity = 1024;
  // Unused, one value: kept only because hmsbench/drive.cpp assigns it.
  CacheBackend cache_backend = CacheBackend::kSharded;
};

// Point-in-time service counters (exact, independent of GPUHMS_METRICS; the
// obs registry mirrors them under serve.* when metrics are enabled).
struct ServeStats {
  std::uint64_t requests = 0;    // lines received
  std::uint64_t responses = 0;   // lines produced (== requests)
  std::uint64_t errors = 0;      // responses with ok:false
  std::uint64_t rejected = 0;    // admission-control rejections (subset of errors)
  std::uint64_t predictions = 0;       // placements answered (batch elements)
  std::uint64_t batched_predicts = 0;  // cache misses coalesced into batch calls
  std::uint64_t batch_calls = 0;       // Predictor::predict_batch invocations
  std::uint64_t searches = 0;
  // Supervision counters.
  bool draining = false;
  std::uint64_t inflight = 0;
  std::uint64_t shed_draining = 0;    // requests refused while draining
  std::uint64_t watchdog_cancels = 0; // searches stopped by the watchdog
  std::uint64_t idem_hits = 0;        // responses replayed from the idem cache
  struct CacheStats {
    std::size_t size = 0;
    std::size_t capacity = 0;
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    std::uint64_t inserts = 0;
    std::uint64_t updates = 0;
    std::uint64_t evictions = 0;
  };
  CacheStats kernel_cache;
  CacheStats prediction_cache;
  CacheStats idem_cache;
  // Trace recordings: alive now (held by kernel entries, each shared by
  // every entry of its benchmark at its cache-line size) and made since
  // start.
  std::uint64_t recordings_live = 0;
  std::uint64_t recordings_recorded = 0;
};

// Thread-safe: any number of client threads may call handle_line /
// handle_pipeline concurrently; shared-pool work (batch prediction, search)
// is serialized internally, cache hits run lock-free of the pool.
class PredictionService {
 public:
  explicit PredictionService(ServeOptions options = {});
  PredictionService(ServeOptions options, const GpuArch& arch);
  ~PredictionService();

  PredictionService(const PredictionService&) = delete;
  PredictionService& operator=(const PredictionService&) = delete;

  // One request line in, one response line out (no trailing newline).
  // Never throws and never returns malformed JSON: every failure — parse
  // error, unknown op/benchmark, illegal placement, admission rejection,
  // injected serve.parse fault — degrades to an ok:false response carrying
  // the Status code and message.
  std::string handle_line(std::string_view line);

  // Pipelined handling: responses in request order, one per line. Runs of
  // adjacent predict requests naming the same benchmark and arch are
  // coalesced so their cache misses share one predict_batch call (a lone
  // predict is a run of one) — the daemon feeds every already-buffered line
  // of input through this.
  std::vector<std::string> handle_pipeline(
      std::span<const std::string> lines);

  // True once a shutdown request has been answered; subsequent requests are
  // refused with FAILED_PRECONDITION.
  bool stopped() const { return stopped_.load(std::memory_order_acquire); }

  // --- graceful drain --------------------------------------------------------
  // Flips the service into draining mode: requests already dispatched finish
  // and get their responses; NEW requests are answered with a structured
  // UNAVAILABLE rejection (still one response per request line — a drain
  // never loses or drops a response). Idempotency replays keep working so
  // retried already-executed requests return their original bytes. The
  // daemon calls this from its SIGTERM/SIGINT handler path.
  void begin_drain();
  bool draining() const { return draining_.load(std::memory_order_acquire); }
  // Requests currently being executed (admitted, response not yet built).
  std::size_t inflight() const {
    return inflight_.load(std::memory_order_acquire);
  }
  // Drain complete: draining was requested and nothing is in flight.
  bool drained() const { return draining() && inflight() == 0; }

  ServeStats stats() const;
  const ServeOptions& options() const { return options_; }
  const GpuArch& arch() const { return arch_; }

 private:
  struct KernelEntry;
  using KernelEntryPtr = std::shared_ptr<const KernelEntry>;
  struct Recording;
  struct PendingPredict;

  Json handle_request(const Json& request, std::string_view op);
  Json handle_predict_batch(const Json& request);
  Json handle_search(const Json& request);
  Json handle_metrics() const;
  Json handle_health() const;

  // Builds (or returns the cached) per-kernel state for `benchmark` under
  // the named architecture backend: "" selects the service's construction
  // arch, any other name resolves through ArchRegistry::builtin() (unknown
  // names are a structured INVALID_ARGUMENT listing the registered
  // backends). Entries are cached per (benchmark, arch) — the profiled
  // predictor and the cache-key prefix are arch-specific — and adopt a live
  // recording of the benchmark whose skeleton fits the arch instead of
  // recording their own.
  StatusOr<KernelEntryPtr> kernel_entry(const std::string& benchmark,
                                        const std::string& arch_name);
  // Every predict placement becomes a PendingPredict here — lone and
  // pipelined predicts and each predict_batch element — so they all fail in
  // one order with one message: parse, then validate against the entry's
  // kernel and arch.
  static StatusOr<PendingPredict> parse_placement(
      const KernelEntryPtr& entry, const std::string& placement);
  // A predict request's fields in order — benchmark, arch, placement — then
  // the kernel lookup, then parse_placement. `entry` memoizes the lookup
  // across a run of requests naming the same benchmark and arch.
  StatusOr<PendingPredict> parse_predict(
      const Json& request, std::optional<StatusOr<KernelEntryPtr>>* entry);
  // Answers each (entry, placement) pair, coalescing cache misses into one
  // predict_batch call per distinct kernel. Results align with `pending`.
  Status predict_many(std::span<PendingPredict> pending);
  static Json prediction_json(const DataPlacement& placement,
                              const Prediction& prediction);

  const ServeOptions options_;
  const GpuArch arch_;  // copied: cached entries must outlive the caller's ref
  ToverlapModel overlap_;
  // Recordings alive and made since start (ServeStats). Declared before the
  // kernel cache, whose entries' recordings count down on destruction.
  std::atomic<std::uint64_t> live_recordings_{0}, recordings_made_{0};

  ConcurrentCache<std::string, KernelEntryPtr> kernel_cache_;
  struct PredictionKeyHash {
    std::size_t operator()(const std::string& k) const;
  };
  // Key: "<kernel fp hex>|<arch fp hex>|<model fp hex>|<placement>".
  ConcurrentCache<std::string, Prediction, PredictionKeyHash> prediction_cache_;

  ThreadPool pool_;
  std::mutex pool_mu_;   // parallel_for admits one job at a time
  std::mutex build_mu_;  // serializes kernel-entry construction (profiling)
  // Live recordings by (benchmark, cache_line): held by the kernel entries
  // that use them, so a recording dies with its last entry. Guarded by
  // build_mu_; an expired one is erased when looked up.
  std::map<std::pair<std::string, std::size_t>, std::weak_ptr<const Recording>>
      recordings_;

  std::atomic<bool> stopped_{false};
  std::atomic<bool> draining_{false};
  std::atomic<std::size_t> inflight_{0};
  std::atomic<std::uint64_t> requests_{0}, errors_{0}, rejected_{0},
      predictions_{0}, batched_predicts_{0}, batch_calls_{0}, searches_{0};
  std::atomic<std::uint64_t> shed_draining_{0}, watchdog_cancels_{0},
      idem_hits_{0};
  const std::chrono::steady_clock::time_point start_ =
      std::chrono::steady_clock::now();

  // Idempotency replay: idem fingerprint -> the exact response bytes served.
  ConcurrentCache<std::string, std::string> idem_cache_;
};

// Serves newline-delimited requests read from `in_fd`, writing one response
// line per request to `out_fd`, in order. Every complete line already read
// goes through handle_pipeline in batches of at most ServeOptions::max_batch
// lines, so piped same-kernel predicts coalesce. Returns OK after EOF or a
// shutdown request (a partial trailing line was never a request and gets no
// response). When `wake_fd` (-1: none) turns readable the loop drains
// instead: begin_drain(), one response for every complete line read so far
// (shed with UNAVAILABLE), the partial tail dropped, return OK — the daemon's
// signal path. A failed read, poll or response write is an error status.
Status run_stdio_loop(int in_fd, int out_fd, int wake_fd,
                      PredictionService& service);

}  // namespace gpuhms::serve
