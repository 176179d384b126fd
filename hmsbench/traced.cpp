// Traced mode: an untraced daemon pass (checks, socket round trips, the
// `metrics` verb, client turnaround) followed by an in-process replay of the
// same stream with a span around every call into a layer's public functions.
// The library's own phase timers (GPUHMS_SCOPED_PHASE) are recorded at the
// same time and merged in as "lib.<phase>" spans under the benchmark span
// that contains them, so a replayed request's time splits into the phases
// inside handle_line. Spans carry name, start, end, parent and the request
// id; they stay in memory and are written to
// <workdir>/<workload>-seed<N>-spans.json at the end. Self time is a span's
// duration minus its children's; time outside every span is reported as its
// own line.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <map>
#include <memory>

#include "bench.hpp"
#include "common/concurrent_cache.hpp"
#include "common/obs.hpp"
#include "common/thread_pool.hpp"
#include "model/predictor.hpp"
#include "model/search.hpp"
#include "model/trace_analysis.hpp"
#include "serve/json.hpp"
#include "serve/service.hpp"
#include "sim/simulator.hpp"
#include "trace/generator.hpp"
#include "trace/soa.hpp"

namespace hmsbench {

namespace {

using gpuhms::serve::Json;

struct Span {
  std::string name;
  std::string request;
  int parent = -1;
  Clock::time_point start, end;
};

class Tracer {
 public:
  class Scope {
   public:
    Scope(Tracer& t, std::string name, std::string request = "") : t_(t) {
      index_ = static_cast<int>(t_.spans_.size());
      const int parent = t_.open_.empty() ? -1 : t_.open_.back();
      if (request.empty() && parent >= 0)
        request = t_.spans_[static_cast<std::size_t>(parent)].request;
      t_.spans_.push_back({std::move(name), std::move(request), parent, Clock::now(), {}});
      t_.open_.push_back(index_);
    }
    ~Scope() {
      t_.spans_[static_cast<std::size_t>(index_)].end = Clock::now();
      t_.open_.pop_back();
    }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;
    // Duration so far (ms); valid inside the scope.
    double ms() const {
      return ms_between(t_.spans_[static_cast<std::size_t>(index_)].start, Clock::now());
    }
    int index() const { return index_; }

   private:
    Tracer& t_;
    int index_;
  };

  const std::vector<Span>& spans() const { return spans_; }
  double duration_ms(std::size_t i) const { return ms_between(spans_[i].start, spans_[i].end); }

  // Adds spans recorded elsewhere on this thread (no parent yet), each under
  // the innermost span that contains it. A span that overhangs its parent's
  // end by a clock tick is cut there.
  void merge(std::vector<Span> added) {
    const std::size_t own = spans_.size();
    for (Span& s : added) spans_.push_back(std::move(s));
    std::vector<std::size_t> order(spans_.size());
    for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
    std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
      if (spans_[a].start != spans_[b].start) return spans_[a].start < spans_[b].start;
      if (spans_[a].end != spans_[b].end) return spans_[a].end > spans_[b].end;
      return a < b;
    });
    std::vector<std::size_t> open;
    for (std::size_t i : order) {
      Span& s = spans_[i];
      while (!open.empty() && spans_[open.back()].end <= s.start) open.pop_back();
      if (i >= own && !open.empty()) {
        const Span& parent = spans_[open.back()];
        s.parent = static_cast<int>(open.back());
        s.request = parent.request;
        s.end = std::min(s.end, parent.end);
      }
      open.push_back(i);
    }
  }

  bool descends_from(std::size_t i, int ancestor) const {
    for (int p = spans_[i].parent; p >= 0; p = spans_[static_cast<std::size_t>(p)].parent)
      if (p == ancestor) return true;
    return false;
  }

  // Durations (ms) of every span called `name`.
  std::vector<double> durations(std::string_view name) const {
    std::vector<double> v;
    for (std::size_t i = 0; i < spans_.size(); ++i)
      if (spans_[i].name == name) v.push_back(duration_ms(i));
    return v;
  }

  // Self time per span name, plus the wall time no root span covers.
  std::map<std::string, double> self_ms(Clock::time_point begin, Clock::time_point end,
                                        double* uncovered) const {
    std::map<std::string, double> self;
    double roots = 0;
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      self[spans_[i].name] += duration_ms(i);
      if (spans_[i].parent >= 0)
        self[spans_[static_cast<std::size_t>(spans_[i].parent)].name] -= duration_ms(i);
      else
        roots += duration_ms(i);
    }
    *uncovered = ms_between(begin, end) - roots;
    return self;
  }

  void write(const std::string& path, Clock::time_point origin) const {
    std::ofstream f(path);
    f << "[";
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      char buf[96];
      std::snprintf(buf, sizeof buf, "\"start_us\":%.3f,\"end_us\":%.3f,\"parent\":%d}",
                    ms_between(origin, s.start) * 1000, ms_between(origin, s.end) * 1000,
                    s.parent);
      f << (i ? ",\n" : "\n") << "{\"id\":" << i << ",\"name\":\"" << s.name
        << "\",\"request\":\"" << s.request << "\"," << buf;
    }
    f << "\n]\n";
  }

 private:
  std::vector<Span> spans_;
  std::vector<int> open_;
};

// The library's phase timers, recorded while an instance lives. finish()
// returns the phases that ran on the constructing thread as spans named
// "lib.<phase>" and sums, per phase, the time other threads spent in them.
class LibraryTrace {
 public:
  LibraryTrace() {
    gpuhms::obs::start_tracing();
    // The export gives times relative to a hidden origin; this marker pins
    // it and names the constructing thread.
    origin_ns_ = gpuhms::obs::now_ns();
    gpuhms::obs::trace_emit(kOrigin, origin_ns_, 0);
  }
  ~LibraryTrace() { gpuhms::obs::stop_tracing(); }
  LibraryTrace(const LibraryTrace&) = delete;
  LibraryTrace& operator=(const LibraryTrace&) = delete;

  std::vector<Span> finish(std::map<std::string, double>* other_threads_ms) {
    gpuhms::obs::stop_tracing();
    std::vector<Span> spans;
    auto trace = Json::parse(gpuhms::obs::chrome_trace_json());
    const Json* events = trace.ok() ? trace->find("traceEvents") : nullptr;
    if (events == nullptr || !events->is_array()) return spans;
    auto ns = [](const Json& e, std::string_view key) {
      return std::llround(e.find(key)->as_number() * 1000);
    };
    std::int64_t t0 = 0;
    double tid = -1;
    for (std::size_t i = 0; i < events->size(); ++i) {
      const Json& e = events->at(i);
      if (e.find("name")->as_string() == kOrigin) {
        t0 = static_cast<std::int64_t>(origin_ns_) - ns(e, "ts");
        tid = e.find("tid")->as_number();
      }
    }
    for (std::size_t i = 0; i < events->size(); ++i) {
      const Json& e = events->at(i);
      std::string name = e.find("name")->as_string();
      if (name == kOrigin) continue;
      if (name.ends_with("_ns")) name.resize(name.size() - 3);
      const std::int64_t start = t0 + ns(e, "ts"), dur = ns(e, "dur");
      if (e.find("tid")->as_number() != tid) {
        (*other_threads_ms)["lib." + name] += static_cast<double>(dur) / 1e6;
        continue;
      }
      auto at = [](std::int64_t t) {
        return Clock::time_point(std::chrono::duration_cast<Clock::duration>(std::chrono::nanoseconds(t)));
      };
      spans.push_back({"lib." + name, "", -1, at(start), at(start + dur)});
    }
    return spans;
  }

 private:
  static constexpr const char* kOrigin = "hmsbench.origin";
  std::uint64_t origin_ns_ = 0;
};

// A profiled predictor for one (benchmark, arch) pair, built under spans.
struct Entry {
  std::unique_ptr<gpuhms::Predictor> predictor;
  std::shared_ptr<const gpuhms::TraceSkeleton> skeleton;
  const gpuhms::KernelInfo* kernel = nullptr;
  const gpuhms::GpuArch* arch = nullptr;
};

Entry build_entry(Tracer& t, const Pair& p, const gpuhms::ToverlapModel& overlap,
                  gpuhms::workloads::BenchmarkCase* holder) {
  Tracer::Scope entry(t, "serve.kernel_entry", p.benchmark + "/" + p.arch);
  {
    Tracer::Scope s(t, "workloads.build");
    *holder = gpuhms::workloads::get_benchmark(p.benchmark);
  }
  Entry e;
  e.kernel = &holder->kernel;
  e.arch = &arch_named(p.arch);
  {
    Tracer::Scope s(t, "sim.profile");
    e.predictor = std::make_unique<gpuhms::Predictor>(*e.kernel, *e.arch,
                                                      gpuhms::ModelOptions{}, overlap);
    e.predictor->profile_sample(holder->sample);
  }
  {
    Tracer::Scope s(t, "trace.skeleton");
    e.skeleton = e.predictor->memoize_trace();
  }
  return e;
}

struct CandidateCosts {
  std::vector<double> lower_ms, replay_ms, replay_ns_per_dram, offchip_records;
};

// Per candidate: SoA lowering alone and the whole analysis, each the fastest
// of three rounds (the first round also pays the candidate's one-time memo
// and arena growth). Replay = analysis - lowering.
void probe_candidates(Tracer& t, const Entry& e, const std::vector<std::string>& placements,
                      const std::string& tag, CandidateCosts* c) {
  gpuhms::TraceAnalyzer analyzer = e.predictor->make_analyzer();
  gpuhms::SoaLowering soa;
  for (const std::string& text : placements) {
    const auto placement = gpuhms::DataPlacement::from_string(*e.kernel, text);
    Tracer::Scope cand(t, "probe.candidate", tag + ":" + text);
    double lower = 1e300, analyze = 1e300;
    std::uint64_t records = 0, dram = 0;
    for (int round = 0; round < 3; ++round) {
      {
        Tracer::Scope s(t, "trace.lower");
        const gpuhms::TraceMaterializer mat(*e.kernel, *placement, *e.arch);
        soa.bind(mat, *e.skeleton, *e.arch);
        const std::int64_t wave_blocks =
            static_cast<std::int64_t>(e.arch->num_sms) * mat.layout().blocks_per_sm(*e.arch);
        records = 0;
        for (std::int64_t b0 = 0; b0 < e.kernel->num_blocks; b0 += wave_blocks)
          records += soa.lower_wave(b0, std::min(e.kernel->num_blocks, b0 + wave_blocks)).mem_n;
        lower = std::min(lower, s.ms());
      }
      {
        Tracer::Scope s(t, "model.analyze");
        dram = analyzer.analyze(*placement, e.skeleton.get()).dram_requests;
        analyze = std::min(analyze, s.ms());
      }
    }
    c->lower_ms.push_back(lower);
    c->replay_ms.push_back(analyze - lower);
    c->replay_ns_per_dram.push_back((analyze - lower) * 1e6 /
                                    static_cast<double>(std::max<std::uint64_t>(1, dram)));
    c->offchip_records.push_back(static_cast<double>(records));
  }
}

std::vector<std::string> sample_space(const Entry& e, std::size_t n, std::uint64_t seed) {
  std::vector<std::string> space;
  for (const auto& p : gpuhms::enumerate_placement_space(*e.kernel, *e.arch, 1 << 20).placements)
    space.push_back(p.to_string());
  Rng(seed).shuffle(space);
  if (space.size() > n) space.resize(n);
  return space;
}

double ratio(double a, double b) { return b > 0 ? a / b : 0; }

}  // namespace

Outcome traced(const RunArgs& args) {
  const Workload& w = *args.workload;
  RunArgs pass_args = args;
  pass_args.setups = 1;
  DaemonPass pass;
  Outcome out = drive_daemon(pass_args, &pass);
  if (pass.round_trip_ms.empty()) return out;  // nothing was sent to replay
  for (const auto& [name, metric] : out.metrics) out.note("untraced." + name, metric.value, metric.unit);
  out.metrics.clear();
  Metrics& m = out.metrics;

  Tracer t;
  LibraryTrace library;
  const Clock::time_point begin = Clock::now();

  // Set-up: T_overlap training alone, then the service the stream replays
  // through (it trains again inside its constructor, like the daemon).
  gpuhms::ThreadPool pool(w.threads);
  const gpuhms::GpuArch& kepler = arch_named("kepler");
  gpuhms::ToverlapModel overlap;
  {
    Tracer::Scope s(t, "sim.train", "setup");
    const auto training = gpuhms::workloads::training_suite();
    std::vector<gpuhms::TrainingCase> cases;
    for (const auto& c : training) {
      cases.push_back({&c.kernel, c.sample});
      for (const auto& test : c.tests) cases.push_back({&c.kernel, test.placement});
    }
    overlap = gpuhms::train_overlap_model(cases, kepler, gpuhms::ModelOptions{}, 1e-3, &pool);
    m["sim.train_s"] = {s.ms() / 1000, "s"};
  }
  std::unique_ptr<gpuhms::serve::PredictionService> service;
  {
    Tracer::Scope s(t, "serve.setup", "setup");
    service = std::make_unique<gpuhms::serve::PredictionService>(serve_options(w));
    Stream warm(w, args.seed);
    for (const Request& r : warm.warmup()) {
      Tracer::Scope h(t, "serve.handle", r.id);
      service->handle_line(r.line);
    }
  }

  // Replay: the same lines the daemon pass sent, capped at half the run.
  Stream stream(w, args.seed);
  std::map<std::string, std::vector<double>> handle_by_kind;
  std::vector<double> handle_ms, parse_us, dump_us, request_ms, transport_us;
  const double replay_budget_ms = args.seconds * 500;
  const Clock::time_point replay_start = Clock::now();
  for (std::size_t i = 0; i < pass.round_trip_ms.size(); ++i) {
    if (i > 0 && ms_between(replay_start, Clock::now()) > replay_budget_ms) break;
    const Request r = stream.next();
    Tracer::Scope req(t, "request", r.id);
    {
      Tracer::Scope s(t, "serve.json_parse");
      (void)Json::parse(r.line);
      parse_us.push_back(s.ms() * 1000);
    }
    std::string response;
    double handled = 0;
    {
      Tracer::Scope s(t, "serve.handle");
      response = service->handle_line(r.line);
      handled = s.ms();
    }
    auto parsed = Json::parse(response);
    if (!parsed.ok()) out.fail("in-process response is malformed for " + r.id);
    {
      Tracer::Scope s(t, "serve.json_dump");
      if (parsed.ok()) (void)parsed->dump();
      dump_us.push_back(s.ms() * 1000);
    }
    handle_ms.push_back(handled);
    const std::string kind = r.verb + (r.verb == "predict" ? (r.expect_hit ? "/hit" : "/miss") : "");
    handle_by_kind[kind].push_back(handled);
    if (pass.round_trip_ms[i].first == r.line)
      transport_us.push_back((pass.round_trip_ms[i].second - handled) * 1000);
    request_ms.push_back(req.ms());
  }
  m["serve.json_parse_us"] = {median(parse_us), "us"};
  m["serve.json_dump_us"] = {median(dump_us), "us"};
  m["serve.handle_us"] = {median(handle_ms) * 1000, "us"};
  m["serve.transport_us"] = {median(transport_us), "us"};
  for (const auto& [kind, v] : handle_by_kind) {
    out.note("serve.handle_us." + kind, median(v) * 1000, "us");
    out.note("serve.handle_samples." + kind, static_cast<double>(v.size()), "count");
  }
  out.note("trace.replayed_requests", static_cast<double>(request_ms.size()), "count");
  out.note("trace.request_p50_ms", median(request_ms), "ms");
  out.note("trace.overhead_ms", median(request_ms) - pass.latency_p50_ms, "ms");
  service.reset();

  // Kernel entries: build + profile + skeleton for up to eight cold pairs.
  std::vector<gpuhms::workloads::BenchmarkCase> holders(std::min<std::size_t>(8, w.pairs.size()));
  std::vector<Entry> entries;
  for (std::size_t i = 0; i < holders.size(); ++i)
    entries.push_back(build_entry(t, w.pairs[i], overlap, &holders[i]));
  m["workloads.build_ms"] = {median(t.durations("workloads.build")), "ms"};
  m["sim.profile_ms"] = {median(t.durations("sim.profile")), "ms"};
  m["trace.skeleton_ms"] = {median(t.durations("trace.skeleton")), "ms"};
  m["serve.kernel_entry_ms"] = {median(t.durations("serve.kernel_entry")), "ms"};

  // Candidates: the workload's own placements.
  CandidateCosts costs;
  if (w.mix == Mix::kSearch) {
    probe_candidates(t, entries.front(), sample_space(entries.front(), 32, 0xca4d1d47e5ull),
                     "search", &costs);
  } else {
    Stream keys(w, args.seed);
    for (const Request& r : keys.accuracy_keys())
      probe_candidates(t, entries[static_cast<std::size_t>(r.pair) % entries.size()],
                       r.placements, "key", &costs);
  }
  m["trace.lower_ms"] = {median(costs.lower_ms), "ms"};
  m["trace.offchip_records"] = {median(costs.offchip_records), "count"};
  m["model.replay_ms"] = {median(costs.replay_ms), "ms"};
  m["model.replay_ns_per_dram_req"] = {median(costs.replay_ns_per_dram), "ns"};

  // Simulator throughput on the scored keys.
  {
    double insts = 0, ms = 0;
    Stream keys(w, args.seed);
    for (const Request& r : keys.accuracy_keys()) {
      const Pair& p = w.pairs[static_cast<std::size_t>(r.pair)];
      const auto& bc = benchmark_case(p.benchmark);
      Tracer::Scope s(t, "sim.simulate", r.id);
      const auto res = gpuhms::simulate(
          bc.kernel, *gpuhms::DataPlacement::from_string(bc.kernel, r.placements.front()),
          arch_named(p.arch));
      insts += static_cast<double>(res.counters.inst_executed);
      ms += s.ms();
    }
    m["sim.minst_per_s"] = {insts / 1e6 / (ms / 1000), "Minst/s"};
  }

  // Search: B&B on the workload's search pair (matrixmul/kepler for the
  // serve workloads) on one thread, the search the overhead and equation
  // costs are read from once the library's spans are merged. Then the 1- vs
  // 2-thread pool speedup on matrixmul/kepler: one untimed search warms the
  // predictor's memos, then three pairs in alternating order.
  int search_span = -1;
  {
    gpuhms::workloads::BenchmarkCase mm_holder;
    Entry mm;
    if (w.mix != Mix::kSearch || w.pairs.front().benchmark != "matrixmul")
      mm = build_entry(t, {"matrixmul", "kepler"}, overlap, &mm_holder);
    const Entry& target = w.mix == Mix::kSearch ? entries.front() : mm;
    const Entry& matrixmul = mm.predictor ? mm : entries.front();
    auto bnb = [&](const Entry& e, int threads) {
      gpuhms::ThreadPool search_pool(threads);
      gpuhms::SearchOptions opts;
      opts.pool = &search_pool;
      Tracer::Scope s(t, "search.bnb", e.kernel->name + "-" + std::to_string(threads) + "t");
      const gpuhms::SearchResult r = gpuhms::search_branch_and_bound(*e.predictor, opts);
      return std::make_pair(r, s.index());
    };
    const auto [result, span] = bnb(target, 1);
    search_span = span;
    m["search.candidates"] = {static_cast<double>(result.evaluated), "count"};
    m["search.nodes_expanded"] = {static_cast<double>(result.nodes_expanded), "count"};
    m["search.pruned_subtrees"] = {static_cast<double>(result.pruned_subtrees), "count"};
    m["search.prune_yield"] = {ratio(static_cast<double>(result.pruned_subtrees),
                                     static_cast<double>(result.nodes_expanded)),
                               "fraction"};
    if (&matrixmul != &target) bnb(matrixmul, 1);
    std::vector<double> wall_1t, wall_2t;
    for (int threads : {1, 2, 2, 1, 1, 2}) {
      const int index = bnb(matrixmul, threads).second;
      (threads == 1 ? wall_1t : wall_2t).push_back(t.duration_ms(static_cast<std::size_t>(index)));
    }
    m["pool.speedup_2t"] = {ratio(median(wall_1t), median(wall_2t)), "x"};
  }

  // Cache: the sharded cache on the workload's key shape, that of the
  // service's prediction keys: "<kernel fp>|<arch fp>|<model fp>|<placement>"
  // over the placements the stream asks for (a search asks for its sample).
  {
    std::vector<std::string> keys;
    auto add = [&](const Request& r) {
      const Pair& p = w.pairs[static_cast<std::size_t>(r.pair)];
      const std::string fp = hex64(0x9e3779b97f4a7c15ull * static_cast<std::uint64_t>(r.pair + 1));
      for (const std::string& placement : r.placements.empty()
                                              ? std::vector<std::string>{benchmark_case(p.benchmark).sample.to_string()}
                                              : r.placements)
        keys.push_back(fp + "|" + fp + "|" + fp + "|" + placement);
    };
    Stream s(w, args.seed);
    for (const Request& r : s.warmup())
      if (r.pair >= 0) add(r);
    while (keys.size() < 64) add(s.next());
    gpuhms::ConcurrentCache<std::string, gpuhms::Prediction> cache(w.prediction_cache);
    constexpr std::size_t kRounds = 200;
    {
      Tracer::Scope put(t, "cache.put", "cache");
      for (std::size_t round = 0; round < kRounds; ++round)
        for (const std::string& k : keys) cache.put(k, gpuhms::Prediction{});
      m["cache.put_ns"] = {put.ms() * 1e6 / static_cast<double>(kRounds * keys.size()), "ns"};
    }
    {
      Tracer::Scope get(t, "cache.get", "cache");
      std::size_t found = 0;
      for (std::size_t round = 0; round < kRounds; ++round)
        for (const std::string& k : keys) found += cache.get(k).has_value();
      m["cache.get_ns"] = {get.ms() * 1e6 / static_cast<double>(kRounds * keys.size()), "ns"};
      out.note("cache.get_found", static_cast<double>(found), "count");
    }
  }

  // Daemon-side counters and the client's turnaround between requests.
  auto& st = pass.stats;
  m["serve.kernel_cache_hit_ratio"] = {
      ratio(st["kernel_cache.hits"], st["kernel_cache.hits"] + st["kernel_cache.misses"]), "fraction"};
  m["serve.prediction_cache_hit_ratio"] = {
      ratio(st["prediction_cache.hits"], st["prediction_cache.hits"] + st["prediction_cache.misses"]),
      "fraction"};
  m["serve.kernel_evictions"] = {st["kernel_cache.evictions"], "count"};
  m["serve.batch_coalescing"] = {ratio(st["batched_predicts"], st["batch_calls"]), "predicts/call"};
  m["client.lag_ms"] = {median(pass.lag_ms), "ms"};

  // The library's phases join the span tree. The one-thread search ran
  // every predict_with on this thread: its overhead is the search's time
  // outside them, and each call's equations are the call minus the
  // analysis inside it.
  const Clock::time_point end = Clock::now();
  std::map<std::string, double> other_threads_ms;
  t.merge(library.finish(&other_threads_ms));
  for (const auto& [name, ms] : other_threads_ms) out.note("other_threads." + name, ms, "ms");
  {
    const auto& spans = t.spans();
    std::vector<double> predict_ms, equations_us;
    std::map<std::size_t, double> analyze_ms;  // predict span -> analysis inside it
    for (std::size_t i = 0; i < spans.size(); ++i)
      if (spans[i].name == "lib.trace.analyze" && spans[i].parent >= 0 &&
          spans[static_cast<std::size_t>(spans[i].parent)].name == "lib.predictor.predict")
        analyze_ms[static_cast<std::size_t>(spans[i].parent)] += t.duration_ms(i);
    for (std::size_t i = 0; i < spans.size(); ++i) {
      if (spans[i].name != "lib.predictor.predict" || !t.descends_from(i, search_span)) continue;
      predict_ms.push_back(t.duration_ms(i));
      equations_us.push_back((t.duration_ms(i) - analyze_ms[i]) * 1000);
    }
    if (predict_ms.empty()) out.fail("the library recorded no predict_with phase inside the search");
    double predict_total = 0;
    for (double v : predict_ms) predict_total += v;
    m["search.overhead_ms"] = {
        t.duration_ms(static_cast<std::size_t>(search_span)) - predict_total, "ms"};
    m["model.equations_us"] = {median(equations_us), "us"};
    out.note("search.predict_calls", static_cast<double>(predict_ms.size()), "count");
    out.note("search.predict_ms", predict_total, "ms");
  }

  // What one span costs: open and close an empty span many times.
  {
    Tracer probe;
    constexpr int kSpans = 20000;
    const Clock::time_point t0 = Clock::now();
    for (int i = 0; i < kSpans; ++i) Tracer::Scope s(probe, "probe");
    const double span_ns = ms_between(t0, Clock::now()) * 1e6 / kSpans;
    out.note("trace.span_cost_ns", span_ns, "ns");
    out.note("trace.span_cost_share",
             span_ns * 1e-6 * static_cast<double>(t.spans().size()) / ms_between(begin, end),
             "fraction");
  }

  // Self times: every named layer plus what no span covers.
  double uncovered = 0;
  double total = 0;
  for (const auto& [name, ms] : t.self_ms(begin, end, &uncovered)) {
    out.note("self." + name, ms, "ms");
    total += ms;
  }
  out.note("self.(not in a named layer)", uncovered, "ms");
  out.note("trace.wall_ms", ms_between(begin, end), "ms");
  out.note("trace.self_sum_ms", total + uncovered, "ms");
  out.note("trace.spans", static_cast<double>(t.spans().size()), "count");
  t.write(args.workdir + "/" + w.name + "-seed" + std::to_string(args.seed) + "-spans.json", begin);
  return out;
}

}  // namespace hmsbench
