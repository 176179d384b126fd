// Untraced mode: spawn gpuhms_serve with pinned threads, drive it from this
// single-threaded client over one Unix-socket connection, check every
// response, and score the end-to-end metrics.
#include <fcntl.h>
#include <poll.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <memory>
#include <optional>
#include <stdexcept>

#include "bench.hpp"
#include "serve/json.hpp"
#include "serve/service.hpp"
#include "sim/simulator.hpp"

namespace hmsbench {

namespace {

using gpuhms::serve::Json;

constexpr double kConnectTimeoutMs = 120000;
constexpr double kResponseTimeoutMs = 60000;
constexpr double kSpinMs = 1;
constexpr std::size_t kMaxProblems = 8;

// --- the daemon process ------------------------------------------------------
class Daemon {
 public:
  Daemon(const RunArgs& args, int index) {
    const Workload& w = *args.workload;
    socket_ = args.workdir + "/d" + std::to_string(index) + ".sock";
    argv_ = {args.daemon,
             "--socket=" + socket_,
             "--train-overlap",
             "--threads=" + std::to_string(w.threads),
             "--executor-threads=" + std::to_string(w.executor_threads),
             "--kernel-cache=" + std::to_string(w.kernel_cache),
             "--prediction-cache=" + std::to_string(w.prediction_cache)};
    ::unlink(socket_.c_str());
    const std::string log = args.workdir + "/daemon" + std::to_string(index) + ".log";
    pid_ = ::fork();
    if (pid_ < 0) throw std::runtime_error("fork failed");
    if (pid_ == 0) {
      ::prctl(PR_SET_PDEATHSIG, SIGKILL);  // never outlive the benchmark
      const int fd = ::open(log.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
      if (fd >= 0) {
        ::dup2(fd, STDOUT_FILENO);
        ::dup2(fd, STDERR_FILENO);
      }
      // Responses must not depend on the caller's environment.
      for (const char* v : {"GPUHMS_THREADS", "GPUHMS_LEGACY_CACHE",
                            "GPUHMS_LEGACY_REPLAY", "GPUHMS_METRICS",
                            "GPUHMS_FAULT"})
        ::unsetenv(v);
      std::vector<char*> cargv;
      for (std::string& a : argv_) cargv.push_back(a.data());
      cargv.push_back(nullptr);
      ::execv(cargv[0], cargv.data());
      std::_Exit(127);
    }
  }
  ~Daemon() {
    if (pid_ > 0) {
      ::kill(pid_, SIGKILL);
      ::waitpid(pid_, nullptr, 0);
    }
    ::unlink(socket_.c_str());
  }
  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;

  std::string flag_line() const {
    std::string s;
    for (std::size_t i = 1; i < argv_.size(); ++i) s += (i > 1 ? " " : "") + argv_[i];
    return s;
  }
  const std::string& socket_path() const { return socket_; }
  bool alive() {
    if (pid_ <= 0) return false;
    int status = 0;
    if (::waitpid(pid_, &status, WNOHANG) == pid_) {
      pid_ = -1;
      return false;
    }
    return true;
  }
  double vm_hwm_mb() const {
    std::ifstream f("/proc/" + std::to_string(pid_) + "/status");
    std::string key;
    while (f >> key) {
      if (key == "VmHWM:") {
        double kb = 0;
        f >> kb;
        return kb / 1024.0;
      }
    }
    return 0;
  }
  // Waits for the exit a shutdown request started; returns its status.
  int reap(double timeout_ms) {
    const Clock::time_point end =
        Clock::now() + std::chrono::microseconds(static_cast<long>(timeout_ms * 1000));
    while (pid_ > 0) {
      int status = 0;
      const pid_t r = ::waitpid(pid_, &status, WNOHANG);
      if (r == pid_) {
        pid_ = -1;
        return WIFEXITED(status) ? WEXITSTATUS(status) : 128 + WTERMSIG(status);
      }
      if (Clock::now() > end) return -1;
      ::usleep(2000);
    }
    return -1;
  }

 private:
  pid_t pid_ = -1;
  std::string socket_;
  std::vector<std::string> argv_;
};

// --- one client connection ---------------------------------------------------
class Conn {
 public:
  explicit Conn(Daemon& d) {
    const Clock::time_point start = Clock::now();
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    if (d.socket_path().size() >= sizeof addr.sun_path)
      throw std::runtime_error("socket path too long: " + d.socket_path());
    std::memcpy(addr.sun_path, d.socket_path().c_str(), d.socket_path().size() + 1);
    for (;;) {
      fd_ = ::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC | SOCK_NONBLOCK, 0);
      if (fd_ < 0) throw std::runtime_error("socket() failed");
      if (::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof addr) == 0) return;
      ::close(fd_);
      fd_ = -1;
      if (!d.alive()) throw std::runtime_error("daemon exited before listening");
      if (ms_between(start, Clock::now()) > kConnectTimeoutMs)
        throw std::runtime_error("daemon never accepted a connection");
      ::usleep(2000);
    }
  }
  ~Conn() {
    if (fd_ >= 0) ::close(fd_);
  }
  Conn(const Conn&) = delete;
  Conn& operator=(const Conn&) = delete;

  // Sends one request line and returns the response line. `spin` polls
  // the socket without sleeping for the first kSpinMs: a sleeping client
  // adds its own wake-up latency to every short request, and on a virtual
  // machine that latency varies from run to run. Past that, the client
  // sleeps, so it does not take a CPU from a long request's worker threads.
  std::string exchange(const std::string& line, bool spin) {
    std::string out = line + "\n";
    for (std::size_t off = 0; off < out.size();) {
      const ssize_t n = ::send(fd_, out.data() + off, out.size() - off, MSG_NOSIGNAL);
      if (n > 0) {
        off += static_cast<std::size_t>(n);
      } else if (n < 0 && errno != EAGAIN && errno != EWOULDBLOCK && errno != EINTR) {
        throw std::runtime_error("daemon closed the connection");
      } else {
        pollfd p{fd_, POLLOUT, 0};
        ::poll(&p, 1, 100);
      }
    }
    const Clock::time_point start = Clock::now();
    for (;;) {
      if (const std::size_t nl = in_.find('\n'); nl != std::string::npos) {
        std::string response = in_.substr(0, nl);
        in_.erase(0, nl + 1);
        return response;
      }
      char buf[1 << 16];
      const ssize_t n = ::recv(fd_, buf, sizeof buf, 0);
      if (n > 0) {
        in_.append(buf, static_cast<std::size_t>(n));
        continue;
      }
      if (n == 0 || (errno != EAGAIN && errno != EWOULDBLOCK && errno != EINTR))
        throw std::runtime_error("daemon closed the connection");
      if (ms_between(start, Clock::now()) > kResponseTimeoutMs)
        throw std::runtime_error("no response within " +
                                 std::to_string(static_cast<int>(kResponseTimeoutMs)) +
                                 " ms to " + line.substr(0, 120));
      if (!spin || ms_between(start, Clock::now()) > kSpinMs) {
        pollfd p{fd_, POLLIN, 0};
        ::poll(&p, 1, 100);
      }
    }
  }

 private:
  int fd_ = -1;
  std::string in_;
};

// --- response checks ---------------------------------------------------------
// Empty when `response` is a correct answer to `req`.
std::string check_response(const Request& req, const std::string& response,
                           std::optional<Json>* parsed_out = nullptr) {
  auto parsed = Json::parse(response);
  if (!parsed.ok()) return "malformed response: " + response.substr(0, 120);
  const Json& j = *parsed;
  if (!j.is_object()) return "response is not an object";
  const Json* id = j.find("id");
  if (id == nullptr || !id->is_string() || id->as_string() != req.id)
    return "response id does not echo " + req.id;
  const Json* op = j.find("op");
  if (op == nullptr || !op->is_string() || op->as_string() != req.verb)
    return "response op does not echo " + req.verb;
  const Json* ok = j.find("ok");
  if (ok == nullptr || !ok->is_bool() || !ok->as_bool())
    return "ok:false for " + req.id + ": " + response.substr(0, 160);
  auto good_cycles = [](const Json& o) {
    const Json* c = o.find("predicted_cycles");
    return c != nullptr && c->is_number() && std::isfinite(c->as_number()) &&
           c->as_number() > 0;
  };
  if (req.verb == "predict") {
    const Json* p = j.find("placement");
    if (p == nullptr || !p->is_string() || p->as_string() != req.placements.front())
      return "predict answered another placement";
    if (!good_cycles(j)) return "predict without positive predicted_cycles";
  } else if (req.verb == "predict_batch") {
    const Json* r = j.find("results");
    if (r == nullptr || !r->is_array() || r->size() != req.placements.size())
      return "predict_batch result count mismatch";
    for (std::size_t i = 0; i < r->size(); ++i) {
      const Json* p = r->at(i).find("placement");
      if (p == nullptr || !p->is_string() || p->as_string() != req.placements[i] ||
          !good_cycles(r->at(i)))
        return "predict_batch element " + std::to_string(i) + " is wrong";
    }
  } else if (req.verb == "search") {
    const Json* proven = j.find("proven_optimal");
    const Json* p = j.find("placement");
    if (proven == nullptr || !proven->is_bool() || !proven->as_bool())
      return "search did not prove its optimum";
    if (p == nullptr || !p->is_string() || !good_cycles(j))
      return "search without a placement";
  }
  if (parsed_out != nullptr) *parsed_out = std::move(*parsed);
  return "";
}

double number_at(const Json& j, std::string_view key) {
  const Json* v = j.find(key);
  return v != nullptr && v->is_number() ? v->as_number() : 0;
}

// --- the timed window --------------------------------------------------------
// One closed loop on one connection: the next request goes out as soon as
// the previous answer is in, until `ms` elapse or `limit` requests were
// sent (0 = no limit). Every response is checked as it arrives.
class Driver {
 public:
  // Byte-checks up to `byte_sample` responses, each request picked with
  // probability `share` by a hash of (seed, id).
  Driver(Stream& stream, Outcome& out, std::uint64_t seed, std::size_t byte_sample,
         double share)
      : stream_(stream), out_(out), seed_(seed), byte_sample_(byte_sample), share_(share) {}

  void run(Conn& conn, double ms, std::size_t limit) {
    start_ = Clock::now();
    const Clock::time_point end = start_ + std::chrono::duration_cast<Clock::duration>(
                                               std::chrono::duration<double, std::milli>(ms));
    Clock::time_point previous = start_;
    while (limit > 0 ? log_.size() < limit : Clock::now() < end) {
      Request req = stream_.next();
      const Clock::time_point sent = Clock::now();
      lag_.push_back(ms_between(previous, sent));
      ++out_.attempted;
      std::string response;
      try {
        response = conn.exchange(req.line, true);
      } catch (const std::exception& e) {
        ++out_.failed;
        out_.fail(std::string("request ") + req.id + ": " + e.what());
        return;
      }
      const Clock::time_point done = Clock::now();
      previous = done;
      check(req, response);
      log_.push_back({std::move(req), ms_between(sent, done), limit > 0 || done <= end, done});
    }
  }

  // Latencies (ms) of the window's requests, all or by kind: predict/hit,
  // predict/miss, predict_batch, search.
  std::vector<double> latencies() const {
    std::vector<double> v;
    for (const Sent& s : log_) v.push_back(s.latency_ms);
    return v;
  }
  std::map<std::string, std::vector<double>> latencies_by_kind() const {
    std::map<std::string, std::vector<double>> by;
    for (const Sent& s : log_)
      by[s.req.verb + (s.req.verb == "predict" ? (s.req.expect_hit ? "/hit" : "/miss") : "")]
          .push_back(s.latency_ms);
    return by;
  }
  // Completed requests per second: the median over consecutive slices of
  // `period` completions inside the window (one full period of the stream's
  // mix each), so a passing host stall moves one slice, not the result.
  double throughput(std::size_t period) const {
    std::vector<double> rates;
    Clock::time_point from = start_;
    for (std::size_t i = period; i <= log_.size() && log_[i - 1].in_window; i += period) {
      rates.push_back(static_cast<double>(period) * 1000.0 / ms_between(from, log_[i - 1].done));
      from = log_[i - 1].done;
    }
    return median(rates);
  }
  std::vector<std::pair<std::string, double>> round_trips() const {
    std::vector<std::pair<std::string, double>> v;
    for (const Sent& s : log_) v.emplace_back(s.req.line, s.latency_ms);
    return v;
  }
  const std::vector<double>& lag() const { return lag_; }
  const std::vector<std::pair<Request, std::string>>& byte_samples() const { return samples_; }
  const std::vector<std::string>& search_answers() const { return searches_; }

 private:
  struct Sent {
    Request req;
    double latency_ms;
    bool in_window;
    Clock::time_point done;
  };

  void check(const Request& req, const std::string& response) {
    std::optional<Json> parsed;
    if (const std::string problem = check_response(req, response, &parsed); !problem.empty()) {
      ++out_.failed;
      if (out_.problems.size() < kMaxProblems) out_.fail(problem);
      out_.correct = false;
      return;
    }
    if (req.verb == "search")
      searches_.push_back(parsed->find("placement")->as_string() + " " +
                          gpuhms::serve::json_number(number_at(*parsed, "predicted_cycles")));
    if (samples_.size() < byte_sample_ && sampled(req.id)) samples_.emplace_back(req, response);
  }

  bool sampled(const std::string& id) const {
    std::uint64_t h = seed_ ^ 0xb17e5ull;
    for (char c : id) h = (h ^ static_cast<unsigned char>(c)) * 1099511628211ull;
    return Rng(h).uniform() < share_;
  }

  Stream& stream_;
  Outcome& out_;
  std::uint64_t seed_;
  std::size_t byte_sample_;
  double share_;
  Clock::time_point start_;
  std::vector<Sent> log_;
  std::vector<double> lag_;
  std::vector<std::pair<Request, std::string>> samples_;
  std::vector<std::string> searches_;
};

void flatten(const Json& j, const std::string& prefix,
             std::map<std::string, double>* out) {
  for (const auto& [k, v] : j.members()) {
    if (v.is_number()) (*out)[prefix + k] = v.as_number();
    if (v.is_object()) flatten(v, prefix + k + ".", out);
  }
}

}  // namespace

gpuhms::serve::ServeOptions serve_options(const Workload& w) {
  gpuhms::serve::ServeOptions so;
  so.train_overlap = true;
  so.num_threads = w.threads;
  so.kernel_cache_capacity = w.kernel_cache;
  so.prediction_cache_capacity = w.prediction_cache;
  so.cache_backend = gpuhms::CacheBackend::kSharded;
  return so;
}

void Outcome::note(const std::string& name, double value, const std::string& unit) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", value);
  notes.push_back(name + " = " + buf + " " + unit);
}

void Outcome::text(const std::string& name, const std::string& value) {
  notes.push_back(name + " = " + value);
}

Outcome drive_daemon(const RunArgs& args, DaemonPass* pass) {
  const Workload& w = *args.workload;
  Outcome out;
  Stream stream(w, args.seed);
  const std::size_t limit =
      w.requests_per_10s * static_cast<std::size_t>(std::max(1.0, std::round(args.seconds / 10)));
  if (!stream.can_issue(limit)) {
    out.attempted = out.failed = limit;
    out.fail(w.name + " cannot send " + std::to_string(limit) + " requests for --seconds " +
             std::to_string(std::lround(args.seconds)) + " without running out of fresh placements");
    return out;
  }

  // Set-up: spawn -> trained daemon -> workload warm state built, repeated;
  // the last daemon serves the timed window.
  std::vector<double> setup_s;
  std::unique_ptr<Daemon> daemon;
  for (int s = 0; s < args.setups; ++s) {
    const Clock::time_point t0 = Clock::now();
    daemon = std::make_unique<Daemon>(args, s);
    Conn conn(*daemon);
    for (const Request& r : stream.warmup()) {
      const std::string problem = check_response(r, conn.exchange(r.line, false));
      if (!problem.empty()) out.fail("warm-up: " + problem);
    }
    setup_s.push_back(ms_between(t0, Clock::now()) / 1000.0);
    if (s + 1 < args.setups) {
      conn.exchange("{\"op\":\"shutdown\"}", false);
      if (daemon->reap(30000) != 0) out.fail("daemon did not exit cleanly");
    }
  }
  out.metrics["setup_s"] = {median(setup_s), "s"};
  out.text("daemon.flags", daemon->flag_line());
  out.note("setup.samples", static_cast<double>(setup_s.size()), "count");

  // Timed window.
  const bool warm = w.mix == Mix::kWarm;
  const bool churn = w.mix == Mix::kChurn;
  Driver driver(stream, out, args.seed, warm ? 24 : (churn ? 4 : 2),
                warm ? 0.005 : (churn ? 0.06 : 1.0));
  {
    Conn conn(*daemon);
    driver.run(conn, args.seconds * 1000.0, limit);
  }
  const double peak_rss = daemon->vm_hwm_mb();
  const std::vector<double> latencies = driver.latencies();
  const std::size_t period =
      warm ? w.miss_every * w.batch_every : (churn ? w.requests_per_10s : 1);

  // Latency and throughput are diagnostics, not bounded metrics: the host's
  // speed moves them by more than any bound BENCHMARK.json may set
  // (steadiness/README.md).
  out.note("latency_p50_ms", median(latencies), "ms");
  out.note("throughput_per_s", driver.throughput(period), "1/s");
  out.metrics["peak_rss_mb"] = {peak_rss, "MiB"};
  out.note("latency.samples", static_cast<double>(latencies.size()), "count");
  for (const auto& [kind, v] : driver.latencies_by_kind()) {
    out.note("latency_p50_ms." + kind, median(v), "ms");
    out.note("latency.samples." + kind, static_cast<double>(v.size()), "count");
  }
  if (latencies.size() >= 100) out.note("latency_p90_ms", quantile(latencies, 0.9), "ms");
  if (latencies.size() >= 1000) out.note("latency_p99_ms", quantile(latencies, 0.99), "ms");
  if (w.slo_ms > 0) {
    std::size_t within = 0;
    for (double l : latencies) within += l <= w.slo_ms;
    out.note("slo_attainment",
             static_cast<double>(within) / static_cast<double>(out.attempted), "fraction");
    out.note("slo_limit_ms", w.slo_ms, "ms");
  }
  out.text("stream.hash", hex64(stream_hash(w, args.seed)));

  // Post-window, untimed: cache counters, accuracy keys, clean shutdown.
  Conn conn(*daemon);
  std::map<std::string, double> stats;
  if (auto m = Json::parse(conn.exchange("{\"op\":\"metrics\"}", false)); m.ok())
    flatten(*m, "", &stats);
  else
    out.fail("metrics verb answered malformed JSON");
  if (warm && (stats["kernel_cache.evictions"] != 0 || stats["prediction_cache.evictions"] != 0))
    out.fail("serve-warm evicted cache entries; the key sets outgrew the caches");

  std::vector<double> errors_pct;
  for (const Request& r : stream.accuracy_keys()) {
    std::optional<Json> parsed;
    const std::string problem = check_response(r, conn.exchange(r.line, false), &parsed);
    if (!problem.empty()) {
      out.fail("accuracy key: " + problem);
      continue;
    }
    const Pair& p = w.pairs[static_cast<std::size_t>(r.pair)];
    const auto& bc = benchmark_case(p.benchmark);
    const auto placement = gpuhms::DataPlacement::from_string(bc.kernel, r.placements.front());
    const double sim = static_cast<double>(
        gpuhms::simulate(bc.kernel, *placement, arch_named(p.arch)).cycles);
    errors_pct.push_back(std::fabs(number_at(*parsed, "predicted_cycles") - sim) / sim * 100);
  }
  double mean_err = 0;
  for (double e : errors_pct) mean_err += e / static_cast<double>(errors_pct.size());
  out.metrics["pred_error_pct"] = {mean_err, "%"};

  conn.exchange("{\"op\":\"shutdown\"}", false);
  if (daemon->reap(30000) != 0) out.fail("daemon did not exit cleanly after shutdown");

  // In-process reference: the same options answer the sampled lines with
  // the same bytes, and each search's placement re-predicts to its score.
  gpuhms::serve::PredictionService reference(serve_options(w));
  std::size_t compared = 0;
  for (const auto& [req, bytes] : driver.byte_samples()) {
    ++compared;
    if (reference.handle_line(req.line) != bytes)
      out.fail("daemon bytes differ from in-process handle_line for " + req.id);
  }
  out.note("check.byte_compared", static_cast<double>(compared), "lines");
  const auto& answers = driver.search_answers();
  for (const std::string& a : answers)
    if (a != answers.front()) out.fail("searches of one run disagree: " + a);
  if (!answers.empty()) {
    const std::string placement = answers.front().substr(0, answers.front().find(' '));
    const Pair& p = w.pairs.front();
    const std::string line = "{\"id\":\"recheck\",\"op\":\"predict\",\"benchmark\":\"" +
                             p.benchmark + "\",\"arch\":\"" + p.arch +
                             "\",\"placement\":\"" + placement + "\"}";
    auto re = Json::parse(reference.handle_line(line));
    const std::string score =
        re.ok() ? gpuhms::serve::json_number(number_at(*re, "predicted_cycles")) : "?";
    if (placement + " " + score != answers.front())
      out.fail("search result re-predicts to " + score + ", not " + answers.front());
    const auto& bc = benchmark_case(p.benchmark);
    out.note("advised_cycles",
             static_cast<double>(gpuhms::simulate(bc.kernel,
                                                  *gpuhms::DataPlacement::from_string(bc.kernel, placement),
                                                  arch_named(p.arch))
                                     .cycles),
             "cycles");
  }
  out.note("error_rate",
           out.attempted ? static_cast<double>(out.failed) / static_cast<double>(out.attempted) : 0,
           "fraction");

  if (pass != nullptr) {
    pass->latency_p50_ms = median(latencies);
    pass->lag_ms = driver.lag();
    pass->round_trip_ms = driver.round_trips();
    pass->stats = std::move(stats);
  }
  return out;
}

Outcome drive(const RunArgs& args) { return drive_daemon(args, nullptr); }

}  // namespace hmsbench
