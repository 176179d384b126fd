#include "serve/service.hpp"

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <exception>
#include <iterator>
#include <optional>
#include <string_view>
#include <unordered_map>
#include <utility>

#include <poll.h>
#include <unistd.h>

#include "arch/arch_registry.hpp"
#include "common/deadline.hpp"
#include "common/fault_injection.hpp"
#include "common/hashing.hpp"
#include "common/obs.hpp"
#include "serve/session.hpp"

namespace gpuhms::serve {

namespace {

// RAII admission slot: counts the request against max_inflight and releases
// on scope exit. admitted() false means the service is over capacity and the
// request must be rejected without doing model work.
class InflightSlot {
 public:
  InflightSlot(std::atomic<std::size_t>& inflight, std::size_t limit)
      : inflight_(inflight) {
    const std::size_t now = inflight_.fetch_add(1, std::memory_order_acq_rel);
    admitted_ = now < limit;
  }
  ~InflightSlot() { inflight_.fetch_sub(1, std::memory_order_acq_rel); }
  bool admitted() const { return admitted_; }

 private:
  std::atomic<std::size_t>& inflight_;
  bool admitted_ = false;
};

// Status message + context chain, without the code prefix (the code gets its
// own response field).
std::string status_message(const Status& st) {
  std::string msg = st.message();
  if (!st.context().empty()) msg += " (while " + st.context() + ")";
  return msg;
}

std::string hex64(std::uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx",
                static_cast<unsigned long long>(v));
  return std::string(buf);
}

// Required string member, or INVALID_ARGUMENT naming the field.
StatusOr<std::string> get_string(const Json& req, std::string_view key) {
  const Json* v = req.find(key);
  if (v == nullptr)
    return InvalidArgumentError("missing required field '" +
                                std::string(key) + "'");
  if (!v->is_string())
    return InvalidArgumentError("field '" + std::string(key) +
                                "' must be a string");
  return v->as_string();
}

// Optional "arch" member naming an ArchRegistry backend; "" (also the value
// when absent) selects the service's default arch. Resolution and the
// unknown-name INVALID_ARGUMENT happen in kernel_entry.
StatusOr<std::string> get_arch_name(const Json& req) {
  const Json* v = req.find("arch");
  if (v == nullptr) return std::string();
  if (!v->is_string())
    return InvalidArgumentError("field 'arch' must be a string");
  return v->as_string();
}

// The request keys each verb accepts, space-separated, besides the keys
// every verb accepts (kEveryVerbKeys). A key outside its verb's row is an
// INVALID_ARGUMENT, so a misspelt or retired field is never silently
// ignored. docs/SERVING.md's request grammar is checked against this table.
constexpr std::string_view kEveryVerbKeys = "id op idem";
constexpr std::pair<std::string_view, std::string_view> kVerbKeys[] = {
    {"predict", "benchmark arch placement"},
    {"predict_batch", "benchmark arch placements"},
    {"search", "benchmark arch algo cap deadline_ms"},
    {"metrics", ""},
    {"health", ""},
    {"shutdown", ""},
};

bool in_key_list(std::string_view list, std::string_view key) {
  while (!list.empty()) {
    const std::size_t end = std::min(list.find(' '), list.size());
    if (list.substr(0, end) == key) return true;
    list.remove_prefix(std::min(end + 1, list.size()));
  }
  return false;
}

// OK when every member of `req` is a key `op` accepts; INVALID_ARGUMENT
// naming the first other key and listing the accepted ones. An unknown op
// passes here and is answered by dispatch.
Status check_request_keys(const Json& req, std::string_view op) {
  const auto row = std::find_if(std::begin(kVerbKeys), std::end(kVerbKeys),
                                [&](const auto& r) { return r.first == op; });
  if (row == std::end(kVerbKeys)) return OkStatus();
  for (const auto& [key, value] : req.members()) {
    if (in_key_list(kEveryVerbKeys, key) || in_key_list(row->second, key))
      continue;
    std::string accepted(kEveryVerbKeys);
    if (!row->second.empty()) accepted += " " + std::string(row->second);
    std::string msg = "unknown field '" + key + "' for op '" +
                      std::string(op) + "': expected one of ";
    for (const char c : accepted) {
      if (c == ' ') msg += ',';
      msg += c;
    }
    return InvalidArgumentError(msg);
  }
  return OkStatus();
}

// Optional non-negative integer member; `fallback` when absent. -0 counts
// as negative, and an integer the double rounded (2^53 + 1) is refused
// rather than read as its neighbour.
StatusOr<std::uint64_t> get_uint(const Json& req, std::string_view key,
                                 std::uint64_t fallback) {
  const Json* v = req.find(key);
  if (v == nullptr) return fallback;
  if (!v->is_number())
    return InvalidArgumentError("field '" + std::string(key) +
                                "' must be a number");
  const double d = v->as_number();
  if (std::signbit(d) || d != std::floor(d) || d > 1e18)
    return InvalidArgumentError("field '" + std::string(key) +
                                "' must be a non-negative integer");
  if (!v->is_exact_integer())
    return InvalidArgumentError(
        "field '" + std::string(key) +
        "' must be an integer a double holds exactly; it reads as " +
        json_number(d));
  return static_cast<std::uint64_t>(d);
}

}  // namespace

// --- service -----------------------------------------------------------------

// A benchmark and the TraceSkeleton recorded from its kernel, in one
// immutable object: the skeleton points into `bench.kernel`, so neither can
// outlive the other. Every kernel entry of the benchmark on an arch the
// skeleton fits shares it. `live` counts the recordings alive.
struct PredictionService::Recording {
  Recording(workloads::BenchmarkCase c, const GpuArch& arch,
            std::atomic<std::uint64_t>& live)
      : bench(std::move(c)), skeleton(bench.kernel, arch), live_(live) {
    live_.fetch_add(1, std::memory_order_relaxed);
  }
  ~Recording() { live_.fetch_sub(1, std::memory_order_relaxed); }
  Recording(const Recording&) = delete;
  Recording& operator=(const Recording&) = delete;
  const workloads::BenchmarkCase bench;
  const TraceSkeleton skeleton;

 private:
  std::atomic<std::uint64_t>& live_;
};

// The heavyweight per-kernel state a long-lived service amortizes: the
// shared recording (owning the KernelInfo the predictor points into and the
// skeleton every prediction of this kernel replays) and one profiled
// Predictor. Immutable once published to the cache; the shared_ptr keeps an
// entry alive while in use even after LRU eviction.
struct PredictionService::KernelEntry {
  std::shared_ptr<const Recording> recording;
  const workloads::BenchmarkCase& bench() const { return recording->bench; }
  // The backend this entry was profiled under: the service default when the
  // request named no arch, otherwise the resolved registry backend. Owned by
  // value — the predictor points into it, and the entry outlives the request.
  GpuArch arch;
  std::string arch_name;  // "" for the service default
  std::unique_ptr<Predictor> predictor;
  // Prediction-cache key prefix: kernel|arch|model fingerprints. The arch
  // fingerprint mixes the full address-map spec, so entries for different
  // backends (even ones differing only in their bank decode) never alias.
  std::string key_prefix;
};

// One predict awaiting an answer; predict_many fills `result`.
struct PredictionService::PendingPredict {
  KernelEntryPtr entry;
  DataPlacement placement;
  std::string key;  // entry->key_prefix + placement string
  Prediction result;
  bool from_cache = false;
};

std::size_t PredictionService::PredictionKeyHash::operator()(
    const std::string& k) const {
  return static_cast<std::size_t>(Fnv1a().mix(std::string_view(k)).digest());
}

PredictionService::PredictionService(ServeOptions options)
    : PredictionService(std::move(options), kepler_arch()) {}

PredictionService::PredictionService(ServeOptions options, const GpuArch& arch)
    : options_(options),
      arch_(arch),
      kernel_cache_(options.kernel_cache_capacity),
      prediction_cache_(options.prediction_cache_capacity),
      pool_(options.num_threads),
      idem_cache_(options.idem_cache_capacity) {
  if (options_.train_overlap) {
    std::vector<TrainingCase> cases;
    const std::vector<workloads::BenchmarkCase> training =
        workloads::training_suite();
    // The suite outlives this loop only locally; train_overlap_model
    // consumes the cases before returning, so pointers into `training` are
    // safe here and nothing is retained.
    for (const auto& c : training) {
      cases.push_back({&c.kernel, c.sample});
      for (const auto& t : c.tests) cases.push_back({&c.kernel, t.placement});
    }
    overlap_ = train_overlap_model(cases, arch_, ModelOptions{}, 1e-3, &pool_);
  }
}

PredictionService::~PredictionService() = default;

void PredictionService::begin_drain() {
  draining_.store(true, std::memory_order_release);
  GPUHMS_COUNTER_ADD("serve.drains", 1);
}

StatusOr<PredictionService::KernelEntryPtr> PredictionService::kernel_entry(
    const std::string& benchmark, const std::string& arch_name) {
  // Per-(benchmark, arch) cache key. '\n' cannot appear in either component
  // (benchmark names are identifiers, arch names come from the registry), so
  // distinct pairs never collide.
  const std::string cache_key = benchmark + "\n" + arch_name;
  if (auto hit = kernel_cache_.get(cache_key)) {
    GPUHMS_COUNTER_ADD("serve.kernel_cache_hits", 1);
    return *hit;
  }
  // Build outside the cache under one lock: profiling a sample runs the
  // simulator substrate (milliseconds), and two clients racing on the same
  // cold benchmark must not both pay it.
  std::lock_guard<std::mutex> build_lock(build_mu_);
  if (auto hit = kernel_cache_.get(cache_key)) {
    GPUHMS_COUNTER_ADD("serve.kernel_cache_hits", 1);
    return *hit;
  }
  GPUHMS_COUNTER_ADD("serve.kernel_cache_misses", 1);
  GPUHMS_SCOPED_PHASE("serve.kernel_build_ns");

  auto entry = std::make_shared<KernelEntry>();
  entry->arch_name = arch_name;
  if (arch_name.empty()) {
    entry->arch = arch_;
  } else {
    StatusOr<const ArchBackend*> backend =
        ArchRegistry::builtin().try_find(arch_name);
    if (!backend.ok()) return backend.status();
    entry->arch = (*backend)->arch;
  }
  // Adopt the live recording whose skeleton fits this arch, or record one.
  const auto recording_key = std::make_pair(benchmark, entry->arch.cache_line);
  if (auto it = recordings_.find(recording_key); it != recordings_.end()) {
    entry->recording = it->second.lock();
    if (!entry->recording) recordings_.erase(it);
  }
  if (!entry->recording) {
    std::optional<workloads::BenchmarkCase> bench =
        workloads::find_benchmark(benchmark);
    if (!bench)
      return InvalidArgumentError("unknown benchmark '" + benchmark +
                                  "' (not in the Table IV training or "
                                  "evaluation suite)");
    try {
      entry->recording = std::make_shared<const Recording>(
          std::move(*bench), entry->arch, live_recordings_);
    } catch (const std::exception& e) {
      return InternalError(e.what()).annotate(
          "recording the trace skeleton of benchmark '" + benchmark + "'");
    }
    recordings_[recording_key] = entry->recording;
    recordings_made_.fetch_add(1, std::memory_order_relaxed);
  }
  const workloads::BenchmarkCase& bench = entry->bench();

  const ModelOptions model_options{};
  // The aliasing pointer shares ownership of the whole recording.
  entry->predictor = std::make_unique<Predictor>(
      bench.kernel, entry->arch, model_options, overlap_,
      std::shared_ptr<const TraceSkeleton>(entry->recording,
                                           &entry->recording->skeleton));
  GPUHMS_RETURN_IF_ERROR(
      entry->predictor->try_profile_sample(bench.sample)
          .annotate("profiling the sample placement of benchmark '" +
                    benchmark + "'"));
  entry->key_prefix = hex64(fingerprint(bench.kernel)) + "|" +
                      hex64(fingerprint(entry->arch)) + "|" +
                      hex64(fingerprint(model_options)) + "|";
  KernelEntryPtr published = std::move(entry);
  kernel_cache_.put(cache_key, published);
  return published;
}

Status PredictionService::predict_many(std::span<PendingPredict> pending) {
  // Pass 1: answer from the prediction cache.
  std::uint64_t hits = 0;
  for (PendingPredict& p : pending) {
    p.key = p.entry->key_prefix + p.placement.to_string();
    if (auto cached = prediction_cache_.get(p.key)) {
      p.result = *cached;
      p.from_cache = true;
      ++hits;
    }
  }
  GPUHMS_COUNTER_ADD("serve.prediction_cache_hits", hits);
  GPUHMS_COUNTER_ADD("serve.prediction_cache_misses", pending.size() - hits);

  // Pass 2: coalesce the misses into one predict_batch call per kernel,
  // deduplicating identical placements within the batch.
  std::unordered_map<std::string, std::vector<std::size_t>> by_kernel;
  for (std::size_t i = 0; i < pending.size(); ++i)
    if (!pending[i].from_cache)
      by_kernel[pending[i].entry->key_prefix].push_back(i);

  for (auto& [prefix, indices] : by_kernel) {
    std::unordered_map<std::string, std::vector<std::size_t>> by_key;
    std::vector<DataPlacement> targets;
    for (const std::size_t i : indices) {
      auto [it, inserted] = by_key.try_emplace(pending[i].key);
      if (inserted) targets.push_back(pending[i].placement);
      it->second.push_back(i);
    }
    const Predictor& predictor = *pending[indices.front()].entry->predictor;
    StatusOr<std::vector<Prediction>> batch = [&] {
      GPUHMS_SCOPED_PHASE("serve.batch_predict_ns");
      std::lock_guard<std::mutex> pool_lock(pool_mu_);
      return predictor.try_predict_batch(targets, &pool_);
    }();
    if (!batch.ok())
      return batch.status().annotate(
          "batch predicting " + std::to_string(targets.size()) +
          " placements of benchmark '" +
          pending[indices.front()].entry->bench().name + "'");
    batch_calls_.fetch_add(1, std::memory_order_relaxed);
    batched_predicts_.fetch_add(targets.size(), std::memory_order_relaxed);
    GPUHMS_HISTOGRAM_RECORD("serve.batch_size", targets.size());

    std::size_t t = 0;
    for (const std::size_t lead : indices) {
      if (pending[lead].from_cache) continue;  // filled via an earlier alias
      const Prediction& pr = (*batch)[t++];
      for (const std::size_t i : by_key[pending[lead].key]) {
        pending[i].result = pr;
        pending[i].from_cache = true;  // mark filled
      }
      prediction_cache_.put(pending[lead].key, pr);
    }
  }
  predictions_.fetch_add(pending.size(), std::memory_order_relaxed);
  return OkStatus();
}

Json PredictionService::prediction_json(const DataPlacement& placement,
                                        const Prediction& prediction) {
  Json o = Json::object();
  o.set("placement", placement.to_string());
  o.set("predicted_cycles", prediction.total_cycles);
  o.set("t_comp", prediction.t_comp);
  o.set("t_mem", prediction.t_mem);
  o.set("t_overlap", prediction.t_overlap);
  o.set("amat", prediction.amat);
  o.set("queue_saturated", prediction.queue_saturated);
  return o;
}

namespace {

Json make_response_shell(const Json* id, std::string_view op) {
  Json r = Json::object();
  r.set("id", id != nullptr ? *id : Json());
  if (!op.empty()) r.set("op", op);
  return r;
}

Json error_response(const Json* id, std::string_view op, const Status& st) {
  Json r = make_response_shell(id, op);
  r.set("ok", false);
  Json e = Json::object();
  e.set("code", std::string(gpuhms::to_string(st.code())));
  e.set("message", status_message(st));
  r.set("error", std::move(e));
  return r;
}

}  // namespace

// Status -> error-response plumbing for the Json-returning handlers; the
// dispatch wrapper fills in id/op afterwards.
#define GPUHMS_ASSIGN_OR_RETURN_JSON(lhs, expr)                        \
  GPUHMS_SERVE_AOR_IMPL_(                                              \
      GPUHMS_STATUS_CONCAT_(gpuhms_serve_sor_, __LINE__), lhs, expr)
#define GPUHMS_SERVE_AOR_IMPL_(tmp, lhs, expr)                         \
  auto tmp = (expr);                                                   \
  if (!tmp.ok()) return error_response(nullptr, "", tmp.status());     \
  lhs = std::move(tmp).value()

StatusOr<PredictionService::PendingPredict>
PredictionService::parse_placement(const KernelEntryPtr& entry,
                                   const std::string& placement) {
  const KernelInfo& kernel = entry->bench().kernel;
  const std::optional<DataPlacement> p =
      DataPlacement::from_string(kernel, placement);
  if (!p)
    return InvalidArgumentError(
        "cannot parse placement '" + placement + "' for benchmark '" +
        entry->bench().name + "' (" + std::to_string(kernel.arrays.size()) +
        " arrays; codes G,S,C,T,2T)");
  GPUHMS_RETURN_IF_ERROR(validate(kernel, *p, entry->arch));
  return PendingPredict{entry, *p, {}, {}, false};
}

StatusOr<PredictionService::PendingPredict> PredictionService::parse_predict(
    const Json& request, std::optional<StatusOr<KernelEntryPtr>>* entry) {
  GPUHMS_ASSIGN_OR_RETURN(std::string benchmark,
                          get_string(request, "benchmark"));
  GPUHMS_ASSIGN_OR_RETURN(std::string arch_name, get_arch_name(request));
  GPUHMS_ASSIGN_OR_RETURN(std::string placement,
                          get_string(request, "placement"));
  std::optional<StatusOr<KernelEntryPtr>>& memo = *entry;
  if (!memo) memo = kernel_entry(benchmark, arch_name);
  if (!memo->ok()) return memo->status();
  return parse_placement(**memo, placement);
}

Json PredictionService::handle_predict_batch(const Json& request) {
  GPUHMS_ASSIGN_OR_RETURN_JSON(std::string benchmark,
                               get_string(request, "benchmark"));
  GPUHMS_ASSIGN_OR_RETURN_JSON(std::string arch_name, get_arch_name(request));
  const Json* placements = request.find("placements");
  if (placements == nullptr || !placements->is_array())
    return error_response(
        nullptr, "",
        InvalidArgumentError("field 'placements' must be an array of "
                             "placement strings"));
  if (placements->size() > options_.max_batch) {
    rejected_.fetch_add(1, std::memory_order_relaxed);
    GPUHMS_COUNTER_ADD("serve.rejected", 1);
    return error_response(
        nullptr, "",
        ResourceExhaustedError(
            "batch of " + std::to_string(placements->size()) +
            " placements exceeds max_batch " +
            std::to_string(options_.max_batch)));
  }
  GPUHMS_ASSIGN_OR_RETURN_JSON(KernelEntryPtr entry,
                               kernel_entry(benchmark, arch_name));

  std::vector<PendingPredict> pending;
  pending.reserve(placements->size());
  for (std::size_t i = 0; i < placements->size(); ++i) {
    const Json& s = placements->at(i);
    if (!s.is_string())
      return error_response(nullptr, "",
                            InvalidArgumentError("placements[" +
                                                 std::to_string(i) +
                                                 "] is not a string"));
    StatusOr<PendingPredict> p = parse_placement(entry, s.as_string());
    if (!p.ok())
      return error_response(
          nullptr, "",
          p.status().annotate("placements[" + std::to_string(i) + "]"));
    pending.push_back(*std::move(p));
  }
  if (Status st = predict_many(pending); !st.ok())
    return error_response(nullptr, "", st);

  Json r = Json::object();
  r.set("ok", true);
  r.set("benchmark", benchmark);
  if (!arch_name.empty()) r.set("arch", arch_name);
  Json results = Json::array();
  for (const PendingPredict& p : pending)
    results.push_back(prediction_json(p.placement, p.result));
  r.set("results", std::move(results));
  return r;
}

Json PredictionService::handle_search(const Json& request) {
  GPUHMS_ASSIGN_OR_RETURN_JSON(std::string benchmark,
                               get_string(request, "benchmark"));
  GPUHMS_ASSIGN_OR_RETURN_JSON(std::string arch_name, get_arch_name(request));
  std::string algo_name = "bnb";
  if (request.find("algo") != nullptr) {
    GPUHMS_ASSIGN_OR_RETURN_JSON(algo_name, get_string(request, "algo"));
  }
  const StatusOr<SearchAlgo> algo = parse_search_algo(algo_name);
  if (!algo.ok()) return error_response(nullptr, "", algo.status());

  GPUHMS_ASSIGN_OR_RETURN_JSON(std::uint64_t cap,
                               get_uint(request, "cap", 4096));
  GPUHMS_ASSIGN_OR_RETURN_JSON(
      std::uint64_t deadline_ms,
      get_uint(request, "deadline_ms", ~std::uint64_t{0}));
  if (cap == 0 || cap > options_.max_search_cap) {
    rejected_.fetch_add(1, std::memory_order_relaxed);
    GPUHMS_COUNTER_ADD("serve.rejected", 1);
    return error_response(
        nullptr, "",
        ResourceExhaustedError("search cap " + std::to_string(cap) +
                               " outside [1, " +
                               std::to_string(options_.max_search_cap) + "]"));
  }

  GPUHMS_ASSIGN_OR_RETURN_JSON(KernelEntryPtr entry,
                               kernel_entry(benchmark, arch_name));

  SearchOptions so;
  so.cap = static_cast<std::size_t>(cap);
  // Per-request deadline: the anytime contract — on expiry the search
  // returns its best-so-far placement with deadline_hit set, never an error.
  // One too far out to represent is no deadline.
  so.deadline = deadline_from_ms(deadline_ms);
  // Per-request watchdog: its clock starts before the wait for the shared
  // pool, so time spent queued counts against it. When it leaves less time
  // than the request's own deadline it becomes the search deadline, and a
  // search it stops reads as `cancelled` (not `deadline_hit`) — the anytime
  // best-so-far either way, never a hung request.
  std::optional<std::chrono::steady_clock::time_point> watchdog_end;
  if (options_.watchdog_ms > 0) {
    if (const auto watchdog = deadline_from_ms(options_.watchdog_ms))
      watchdog_end = std::chrono::steady_clock::now() + *watchdog;
  }
  bool watchdog_deadline = false;
  const StatusOr<SearchResult> result = [&] {
    GPUHMS_SCOPED_PHASE("serve.search_ns");
    std::lock_guard<std::mutex> pool_lock(pool_mu_);
    SearchOptions pooled = so;
    pooled.pool = &pool_;
    if (watchdog_end) {
      const auto left =
          std::max(*watchdog_end - std::chrono::steady_clock::now(),
                   std::chrono::steady_clock::duration::zero());
      if (!pooled.deadline || left < *pooled.deadline) {
        pooled.deadline = left;
        watchdog_deadline = true;
      }
    }
    return try_search(*entry->predictor, *algo, pooled);
  }();
  if (!result.ok()) return error_response(nullptr, "", result.status());
  searches_.fetch_add(1, std::memory_order_relaxed);
  GPUHMS_COUNTER_ADD("serve.searches", 1);

  const SearchResult& sr = *result;
  const bool watchdog_stop = watchdog_deadline && sr.deadline_hit;
  if (watchdog_stop) {
    watchdog_cancels_.fetch_add(1, std::memory_order_relaxed);
    GPUHMS_COUNTER_ADD("serve.watchdog_cancels", 1);
  }
  Json r = Json::object();
  r.set("ok", true);
  r.set("benchmark", benchmark);
  if (!arch_name.empty()) r.set("arch", arch_name);
  r.set("algo", std::string(to_string(*algo)));
  r.set("placement", sr.placement.to_string());
  r.set("predicted_cycles", sr.predicted_cycles);
  r.set("evaluated", sr.evaluated);
  r.set("pruned", sr.pruned_subtrees);
  r.set("space_truncated", sr.space_truncated);
  r.set("deadline_hit", sr.deadline_hit && !watchdog_stop);
  r.set("cancelled", sr.cancelled || watchdog_stop);
  r.set("lower_bound", sr.lower_bound);
  r.set("optimality_gap", sr.optimality_gap);
  r.set("proven_optimal", sr.proven_optimal);
  return r;
}

Json PredictionService::handle_metrics() const {
  const ServeStats s = stats();
  Json r = Json::object();
  r.set("ok", true);
  auto cache_json = [](const ServeStats::CacheStats& c) {
    Json o = Json::object();
    o.set("size", c.size);
    o.set("capacity", c.capacity);
    o.set("hits", c.hits);
    o.set("misses", c.misses);
    o.set("inserts", c.inserts);
    o.set("updates", c.updates);
    o.set("evictions", c.evictions);
    return o;
  };
  r.set("requests", s.requests);
  r.set("responses", s.responses);
  r.set("errors", s.errors);
  r.set("rejected", s.rejected);
  r.set("predictions", s.predictions);
  r.set("batched_predicts", s.batched_predicts);
  r.set("batch_calls", s.batch_calls);
  r.set("searches", s.searches);
  r.set("draining", s.draining);
  r.set("shed_draining", s.shed_draining);
  r.set("watchdog_cancels", s.watchdog_cancels);
  r.set("idem_hits", s.idem_hits);
  r.set("kernel_cache", cache_json(s.kernel_cache));
  r.set("prediction_cache", cache_json(s.prediction_cache));
  r.set("idem_cache", cache_json(s.idem_cache));
  Json recordings = Json::object();
  recordings.set("live", s.recordings_live);
  recordings.set("recorded", s.recordings_recorded);
  r.set("recordings", std::move(recordings));
  return r;
}

// Liveness/readiness snapshot for supervisors and the drain path. Unlike
// `metrics` this includes uptime, which is wall-clock nondeterministic — so
// it lives under its own verb and stays out of byte-identity tests.
Json PredictionService::handle_health() const {
  Json r = Json::object();
  r.set("ok", true);
  r.set("status", stopped()     ? std::string("stopped")
                  : draining()  ? std::string("draining")
                                : std::string("serving"));
  r.set("uptime_ms",
        static_cast<double>(
            std::chrono::duration_cast<std::chrono::milliseconds>(
                std::chrono::steady_clock::now() - start_)
                .count()));
  r.set("draining", draining());
  r.set("inflight", inflight_.load(std::memory_order_acquire));
  r.set("requests", requests_.load(std::memory_order_relaxed));
  r.set("shed_draining", shed_draining_.load(std::memory_order_relaxed));
  r.set("watchdog_cancels", watchdog_cancels_.load(std::memory_order_relaxed));
  r.set("idem_hits", idem_hits_.load(std::memory_order_relaxed));
  return r;
}

Json PredictionService::handle_request(const Json& request,
                                       std::string_view op) {
  if (op == "predict_batch") return handle_predict_batch(request);
  if (op == "search") return handle_search(request);
  if (op == "metrics") return handle_metrics();
  if (op == "health") return handle_health();
  if (op == "shutdown") {
    stopped_.store(true, std::memory_order_release);
    Json r = Json::object();
    r.set("ok", true);
    r.set("stopped", true);
    return r;
  }
  return error_response(
      nullptr, "",
      InvalidArgumentError("unknown op '" + std::string(op) +
                           "': expected predict, predict_batch, search, "
                           "metrics, health, or shutdown"));
}

std::string PredictionService::handle_line(std::string_view line) {
  const std::string lines[1] = {std::string(line)};
  return handle_pipeline(lines).front();
}

std::vector<std::string> PredictionService::handle_pipeline(
    std::span<const std::string> lines) {
  GPUHMS_SCOPED_PHASE("serve.pipeline_ns");
  // Per-line parse state; `response` set means the line is already decided.
  struct ParsedLine {
    Json request;
    Json id;            // echoed verbatim (null when absent/unparseable)
    std::string op;
    // Predict run key: adjacent predicts naming the same benchmark and arch
    // (both strings) share one kernel lookup and one predict_many call.
    bool coalescable = false;
    std::string benchmark;
    std::string arch_name;  // "" = service default
    std::string idem;       // idempotency fingerprint ("" when absent)
    std::string raw;        // replayed response bytes (wins over `response`)
    std::optional<Json> response;
  };
  std::vector<ParsedLine> parsed(lines.size());

  for (std::size_t i = 0; i < lines.size(); ++i) {
    ParsedLine& pl = parsed[i];
    requests_.fetch_add(1, std::memory_order_relaxed);
    GPUHMS_COUNTER_ADD("serve.requests", 1);

    // Admission: bound the request size before even parsing it.
    if (lines[i].size() > options_.max_line_bytes) {
      rejected_.fetch_add(1, std::memory_order_relaxed);
      GPUHMS_COUNTER_ADD("serve.rejected", 1);
      pl.response = error_response(
          nullptr, "",
          ResourceExhaustedError(
              "request line of " + std::to_string(lines[i].size()) +
              " bytes exceeds max_line_bytes " +
              std::to_string(options_.max_line_bytes)));
      continue;
    }
    // Deterministic fault site for robustness tests: a poisoned request
    // must degrade to an error response, never take the service down.
    if (GPUHMS_FAULT_POINT("serve.parse")) {
      pl.response = error_response(
          nullptr, "", InternalError("injected fault at site 'serve.parse'"));
      continue;
    }
    StatusOr<Json> req = Json::parse(lines[i]);
    if (!req.ok()) {
      pl.response = error_response(nullptr, "", req.status());
      continue;
    }
    if (!req->is_object()) {
      pl.response = error_response(
          nullptr, "",
          InvalidArgumentError("request must be a JSON object"));
      continue;
    }
    pl.request = std::move(*req);
    if (const Json* id = pl.request.find("id")) pl.id = *id;
    const StatusOr<std::string> op = get_string(pl.request, "op");
    if (!op.ok()) {
      pl.response = error_response(&pl.id, "", op.status());
      continue;
    }
    pl.op = *op;
    if (const Status keys = check_request_keys(pl.request, pl.op);
        !keys.ok()) {
      pl.response = error_response(&pl.id, pl.op, keys);
      continue;
    }
    if (pl.request.find("idem") != nullptr) {
      const StatusOr<std::string> idem = get_string(pl.request, "idem");
      if (!idem.ok()) {
        pl.response = error_response(&pl.id, pl.op, idem.status());
        continue;
      }
      pl.idem = *idem;
    }
    if (pl.op == "predict") {
      const StatusOr<std::string> benchmark =
          get_string(pl.request, "benchmark");
      const StatusOr<std::string> arch_name = get_arch_name(pl.request);
      pl.coalescable = benchmark.ok() && arch_name.ok();
      if (pl.coalescable) {
        pl.benchmark = *benchmark;
        pl.arch_name = *arch_name;
      }
    }
  }

  // Dispatch, coalescing adjacent same-benchmark predicts: their cache
  // misses ride one predict_batch call (predict_many dedups and batches).
  std::size_t i = 0;
  while (i < lines.size()) {
    ParsedLine& pl = parsed[i];
    if (pl.response.has_value()) {
      ++i;
      continue;
    }
    // Checked at dispatch (not parse) time so a shutdown earlier in this
    // very pipeline already refuses the lines behind it. This check MUST
    // precede the idempotency replay: whether a replay hits depends on the
    // cache's eviction choices, so a trailing line after shutdown would
    // otherwise answer bytes that depend on cache history. Stopped is
    // stopped — the same FAILED_PRECONDITION whatever the cache holds.
    if (stopped_.load(std::memory_order_acquire)) {
      pl.response = error_response(
          &pl.id, pl.op, FailedPreconditionError("service is shut down"));
      ++i;
      continue;
    }
    // Idempotency replay: a retried request carrying a previously-served
    // idem fingerprint gets the ORIGINAL response bytes back without
    // re-executing — exactly-once visible effects across client retries,
    // even while draining (a replay does no model work).
    if (!pl.idem.empty() && options_.idem_cache_capacity > 0) {
      if (auto hit = idem_cache_.get(pl.idem)) {
        idem_hits_.fetch_add(1, std::memory_order_relaxed);
        GPUHMS_COUNTER_ADD("serve.idem_hits", 1);
        pl.raw = *hit;
        ++i;
        continue;
      }
    }
    // Graceful drain: model work is refused with a retryable UNAVAILABLE
    // (still one response per line — a drain never drops a response).
    // Supervision verbs keep working so operators can watch the drain.
    if (draining_.load(std::memory_order_acquire) && pl.op != "health" &&
        pl.op != "metrics" && pl.op != "shutdown") {
      shed_draining_.fetch_add(1, std::memory_order_relaxed);
      GPUHMS_COUNTER_ADD("serve.shed_draining", 1);
      pl.response = error_response(
          &pl.id, pl.op,
          UnavailableError("service is draining; retry after restart"));
      ++i;
      continue;
    }
    // Deterministic admission fault site: a shed at accept must degrade to
    // a structured retryable rejection, never a lost response or a crash.
    if (GPUHMS_FAULT_POINT("serve.accept")) {
      rejected_.fetch_add(1, std::memory_order_relaxed);
      GPUHMS_COUNTER_ADD("serve.rejected", 1);
      pl.response = error_response(
          &pl.id, pl.op,
          UnavailableError("injected fault at site 'serve.accept'"));
      ++i;
      continue;
    }
    // Supervision verbs bypass admission control: they are cheap in-memory
    // introspection, and a health poll holding an inflight slot would keep
    // drained() false for exactly the operator watching the drain finish.
    std::optional<InflightSlot> slot;
    if (pl.op != "health" && pl.op != "metrics" && pl.op != "shutdown") {
      slot.emplace(inflight_, options_.max_inflight);
      if (!slot->admitted()) {
        rejected_.fetch_add(1, std::memory_order_relaxed);
        GPUHMS_COUNTER_ADD("serve.rejected", 1);
        pl.response = error_response(
            &pl.id, pl.op,
            ResourceExhaustedError(
                "service over capacity (" +
                std::to_string(options_.max_inflight) +
                " requests in flight); retry later"));
        ++i;
        continue;
      }
    }
    if (pl.op == "predict") {
      // A run of adjacent same-(benchmark, arch) predicts — a lone predict
      // is a run of one — shares one kernel lookup and one coalesced
      // predict_many; every line still gets its own parse and its own error.
      std::size_t j = i + 1;
      while (pl.coalescable && j < lines.size() &&
             !parsed[j].response.has_value() && parsed[j].op == "predict" &&
             parsed[j].coalescable && parsed[j].benchmark == pl.benchmark &&
             parsed[j].arch_name == pl.arch_name)
        ++j;
      std::optional<StatusOr<KernelEntryPtr>> entry;
      std::vector<PendingPredict> pending;
      std::vector<std::size_t> owners;
      for (std::size_t k = i; k < j; ++k) {
        StatusOr<PendingPredict> p = parse_predict(parsed[k].request, &entry);
        if (!p.ok()) {
          parsed[k].response =
              error_response(&parsed[k].id, parsed[k].op, p.status());
          continue;
        }
        pending.push_back(*std::move(p));
        owners.push_back(k);
      }
      const Status st = pending.empty() ? OkStatus() : predict_many(pending);
      for (std::size_t t = 0; t < owners.size(); ++t) {
        ParsedLine& run = parsed[owners[t]];
        if (!st.ok()) {
          run.response = error_response(&run.id, run.op, st);
          continue;
        }
        const KernelEntry& e = *pending[t].entry;
        Json r = make_response_shell(&run.id, run.op);
        r.set("ok", true);
        r.set("benchmark", e.bench().name);
        // Echoed only when the request named a backend: default-arch
        // responses stay byte-identical to the pre-registry protocol.
        if (!e.arch_name.empty()) r.set("arch", e.arch_name);
        const Json fields =
            prediction_json(pending[t].placement, pending[t].result);
        for (const auto& [key, value] : fields.members()) r.set(key, value);
        run.response = std::move(r);
      }
      i = j;
      continue;
    }
    // Other verbs: handlers return either a success body (ok:true, no id/op
    // yet) or a complete error_response carrying a placeholder null id; the
    // shell's id/op (from the request) are authoritative and go first.
    const Json body = handle_request(pl.request, pl.op);
    Json r = make_response_shell(&pl.id, pl.op);
    for (const auto& [key, value] : body.members())
      if (key != "id" && key != "op") r.set(key, value);
    pl.response = std::move(r);
    ++i;
  }

  std::vector<std::string> out;
  out.reserve(lines.size());
  for (ParsedLine& pl : parsed) {
    GPUHMS_COUNTER_ADD("serve.responses", 1);
    if (!pl.raw.empty()) {
      // Idempotency replay: the cached bytes were an ok:true response.
      out.push_back(std::move(pl.raw));
      continue;
    }
    const Json* ok = pl.response->find("ok");
    const bool is_ok = ok != nullptr && ok->is_bool() && ok->as_bool();
    if (!is_ok) {
      errors_.fetch_add(1, std::memory_order_relaxed);
      GPUHMS_COUNTER_ADD("serve.errors", 1);
    }
    std::string dumped = pl.response->dump();
    // Memoize successful model-work responses under their idem fingerprint
    // so client retries replay the exact bytes (drain-safe exactly-once).
    if (is_ok && !pl.idem.empty() && options_.idem_cache_capacity > 0 &&
        (pl.op == "predict" || pl.op == "predict_batch" ||
         pl.op == "search"))
      idem_cache_.put(pl.idem, dumped);
    out.push_back(std::move(dumped));
  }
  return out;
}

ServeStats PredictionService::stats() const {
  ServeStats s;
  s.requests = requests_.load(std::memory_order_relaxed);
  s.responses = s.requests;
  s.errors = errors_.load(std::memory_order_relaxed);
  s.rejected = rejected_.load(std::memory_order_relaxed);
  s.predictions = predictions_.load(std::memory_order_relaxed);
  s.batched_predicts = batched_predicts_.load(std::memory_order_relaxed);
  s.batch_calls = batch_calls_.load(std::memory_order_relaxed);
  s.searches = searches_.load(std::memory_order_relaxed);
  s.draining = draining_.load(std::memory_order_acquire);
  s.inflight = inflight_.load(std::memory_order_acquire);
  s.shed_draining = shed_draining_.load(std::memory_order_relaxed);
  s.watchdog_cancels = watchdog_cancels_.load(std::memory_order_relaxed);
  s.idem_hits = idem_hits_.load(std::memory_order_relaxed);
  s.recordings_live = live_recordings_.load(std::memory_order_relaxed);
  s.recordings_recorded = recordings_made_.load(std::memory_order_relaxed);
  // Cache snapshots: every counter is one atomic read (per shard, summed),
  // so each is individually exact and — counters being monotone — a later
  // snapshot never shows a smaller total than an earlier one, even taken
  // concurrently with traffic (the serve.cache.* monotonicity contract,
  // locked by test_serve_soak's MetricsTotalsMonotoneDuringSoak).
  auto cache_stats = [](const auto& cache) {
    const CacheCounters c = cache.stats();
    return ServeStats::CacheStats{cache.size(),  cache.capacity(), c.hits,
                                  c.misses,      c.inserts,        c.updates,
                                  c.evictions};
  };
  s.kernel_cache = cache_stats(kernel_cache_);
  s.prediction_cache = cache_stats(prediction_cache_);
  s.idem_cache = cache_stats(idem_cache_);
  return s;
}

Status run_stdio_loop(int in_fd, int out_fd, int wake_fd,
                      PredictionService& service) {
  LineFramer framer;
  // Answers every complete line read so far, max_batch lines per pipeline.
  auto answer_buffered = [&]() -> Status {
    for (std::vector<std::string> lines =
             framer.take_lines(service.options().max_batch);
         !lines.empty();
         lines = framer.take_lines(service.options().max_batch)) {
      std::string out;
      for (const std::string& response : service.handle_pipeline(lines)) {
        out += response;
        out += '\n';
      }
      // A failed response write is data loss: stop rather than execute
      // requests nobody can hear answered.
      for (std::size_t written = 0; written < out.size();) {
        const ssize_t w =
            ::write(out_fd, out.data() + written, out.size() - written);
        if (w < 0 && errno == EINTR) continue;
        if (w < 0)
          return DataLossError(std::string("writing responses: ") +
                               std::strerror(errno));
        written += static_cast<std::size_t>(w);
      }
    }
    return OkStatus();
  };

  char chunk[1 << 16];
  for (;;) {
    pollfd pfds[2] = {{in_fd, POLLIN, 0}, {wake_fd, POLLIN, 0}};
    if (::poll(pfds, 2, -1) < 0) {
      if (errno == EINTR) continue;
      return InternalError(std::string("poll(): ") + std::strerror(errno));
    }
    bool eof = false;
    if (pfds[0].revents != 0) {
      const ssize_t n = ::read(in_fd, chunk, sizeof chunk);
      if (n < 0 && errno != EINTR)
        return InternalError(std::string("read(): ") + std::strerror(errno));
      eof = n == 0;
      if (n > 0)
        framer.feed(std::string_view(chunk, static_cast<std::size_t>(n)));
    }
    // Woken: every complete line read so far is owed a response (the
    // draining service sheds them with a retryable UNAVAILABLE); the
    // partial tail was never a complete request and is dropped.
    if (pfds[1].revents != 0) {
      service.begin_drain();
      return answer_buffered();
    }
    GPUHMS_RETURN_IF_ERROR(answer_buffered());
    if (eof || service.stopped()) return OkStatus();
  }
}

}  // namespace gpuhms::serve
