// Serving-layer throughput: requests/sec through PredictionService for a
// cold cache (every predict runs the full model) versus a warm cache (every
// predict answers from the prediction cache), plus the pipelined batch path
// and a multithreaded warm-hit sweep (1..16 client threads on handle_line).
// Self-asserting: the warm phase must beat the cold phase by at least
// kMinWarmSpeedup, every multithreaded warm response must be byte-identical
// to the single-threaded reference, and the 1->16-thread scaling of the
// service over its per-shard-locked caches (DESIGN §14) must clear a
// hardware-aware floor — 4x on >=16 cores, pro-rated by min(16, cores)
// below that, never under the no-collapse 0.3x (the floor applied is
// recorded in the JSON). Emits BENCH_serve.json in the working directory
// for the perf trajectory.
//
// A connection-scaling phase drives the epoll event-loop SocketServer
// (DESIGN §15) with K mostly-idle Unix-socket connections for K in --conns
// (default 64,256,1024, capped under the fd soft limit) and measures p50/p99
// round-trip latency on one active connection. Self-asserting flat-p99
// envelope: the largest point (when >=256 connections) must stay within
// kConnP99Factor x the smallest point's p99 plus kConnP99SlackUs — idle
// connections must cost O(ready events), not O(open fds).
//
// Usage: ./bench/bench_serve_throughput [placements-per-kernel] [repeats]
//            [--conns=64,256,1024]
#include <algorithm>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include <poll.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <unistd.h>

#include "bench_stamp.hpp"
#include "kernel/placement.hpp"
#include "serve/server.hpp"
#include "serve/service.hpp"
#include "workloads/workloads.hpp"

using namespace gpuhms;

namespace {

// Conservative: measured warm/cold ratios are >20x (a warm hit is an LRU
// lookup plus JSON assembly; a cold miss runs the whole Eq. 1 model).
constexpr double kMinWarmSpeedup = 3.0;

// Graceful-drain ceiling: from begin_drain() to drained() (zero inflight)
// under concurrent client load. Requests are short (predicts), so a drain
// measured in seconds would mean the shed path is broken.
constexpr double kMaxDrainMs = 2000.0;

double now_ms() {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

std::vector<std::string> build_requests(std::size_t per_kernel) {
  std::vector<std::string> lines;
  int id = 0;
  for (const char* name : {"triad", "spmv", "md", "transpose"}) {
    const workloads::BenchmarkCase bench = workloads::get_benchmark(name);
    const std::vector<DataPlacement> placements =
        enumerate_placements(bench.kernel, kepler_arch(), per_kernel);
    for (const DataPlacement& p : placements)
      lines.push_back("{\"id\":" + std::to_string(id++) +
                      ",\"op\":\"predict\",\"benchmark\":\"" +
                      std::string(name) + "\",\"placement\":\"" +
                      p.to_string() + "\"}");
  }
  return lines;
}

double time_pipeline(serve::PredictionService& service,
                     const std::vector<std::string>& lines,
                     std::vector<std::string>* responses_out) {
  const double t0 = now_ms();
  std::vector<std::string> responses = service.handle_pipeline(lines);
  const double wall = now_ms() - t0;
  if (responses_out) *responses_out = std::move(responses);
  return wall;
}

double time_line_at_a_time(serve::PredictionService& service,
                           const std::vector<std::string>& lines) {
  const double t0 = now_ms();
  for (const std::string& line : lines) (void)service.handle_line(line);
  return now_ms() - t0;
}

// Warm-hit scaling: `threads` client threads split the (already cached)
// request lines between them and hammer handle_line. Every response must be
// byte-identical to the single-threaded reference for the same line — the
// concurrency must never leak into the bytes. Returns the wall time.
double time_warm_multithread(serve::PredictionService& service,
                             const std::vector<std::string>& lines,
                             const std::vector<std::string>& reference,
                             int threads) {
  // Enough rounds over the request set that per-thread work dwarfs thread
  // spawn cost — otherwise the 16-thread point measures pthread_create.
  const std::size_t rounds =
      lines.size() >= 4096 ? 1 : (4096 + lines.size() - 1) / lines.size();
  const std::size_t total = lines.size() * rounds;
  std::atomic<bool> corrupt{false};
  std::vector<std::thread> workers;
  const double t0 = now_ms();
  for (int t = 0; t < threads; ++t) {
    workers.emplace_back([&, t] {
      for (std::size_t i = static_cast<std::size_t>(t); i < total;
           i += static_cast<std::size_t>(threads)) {
        const std::size_t line = i % lines.size();
        if (service.handle_line(lines[line]) != reference[line]) {
          corrupt.store(true);
          return;
        }
      }
    });
  }
  for (std::thread& w : workers) w.join();
  const double wall = now_ms() - t0;
  if (corrupt.load()) {
    std::fprintf(stderr,
                 "FAIL: a warm response diverged from the single-threaded "
                 "reference (%d threads)\n",
                 threads);
    std::exit(1);
  }
  // Normalized to one pass over `lines`, so callers can keep computing
  // requests/sec as lines.size() / (wall / 1000) regardless of rounds.
  return wall / static_cast<double>(rounds);
}

// Drain latency under load: client threads hammer a warm service, the main
// thread flips begin_drain() mid-stream and measures how long until the
// service reports drained() (no inflight work; later requests are shed with
// structured UNAVAILABLE responses, never dropped).
double measure_drain_latency_ms(const std::vector<std::string>& lines) {
  serve::PredictionService service{serve::ServeOptions{}};
  (void)service.handle_line(lines.front());  // warm the kernel cache

  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> served{0};
  std::vector<std::thread> clients;
  for (int t = 0; t < 4; ++t) {
    clients.emplace_back([&, t] {
      for (std::size_t i = static_cast<std::size_t>(t); !stop.load();
           i = (i + 1) % lines.size())
        (void)service.handle_line(lines[i]), served.fetch_add(1);
    });
  }
  while (served.load() < 64) std::this_thread::yield();  // mid-load, not idle

  const double t0 = now_ms();
  service.begin_drain();
  while (!service.drained()) std::this_thread::yield();
  const double drain_ms = now_ms() - t0;

  stop.store(true);
  for (std::thread& c : clients) c.join();
  const serve::ServeStats stats = service.stats();
  if (stats.responses != stats.requests) {
    std::fprintf(stderr, "FAIL: drain lost responses (%llu of %llu)\n",
                 static_cast<unsigned long long>(stats.responses),
                 static_cast<unsigned long long>(stats.requests));
    std::exit(1);
  }
  return drain_ms;
}

// ---- connection-count scaling over the event-loop socket server ----------

// Flat-p99 envelope: p99 at the largest connection count must stay within
// factor x the smallest count's p99 plus an absolute slack. The factor is
// deliberately generous — this asserts the epoll server is O(ready events),
// not a latency SLO — and the slack absorbs single-core CI scheduler jitter.
constexpr double kConnP99Factor = 5.0;
constexpr double kConnP99SlackUs = 2000.0;

struct ConnScalingPoint {
  int connections = 0;  // open connections during the measurement (incl. active)
  double p50_us = 0.0;
  double p99_us = 0.0;
};

std::size_t fd_soft_limit() {
  rlimit rl{};
  if (::getrlimit(RLIMIT_NOFILE, &rl) != 0) return 1024;
  return static_cast<std::size_t>(rl.rlim_cur);
}

// One '\n'-terminated round trip on a blocking connected socket.
bool round_trip(int fd, const std::string& line) {
  std::string out = line;
  out += '\n';
  std::size_t sent = 0;
  while (sent < out.size()) {
    const ssize_t w =
        ::send(fd, out.data() + sent, out.size() - sent, MSG_NOSIGNAL);
    if (w < 0 && errno == EINTR) continue;
    if (w <= 0) return false;
    sent += static_cast<std::size_t>(w);
  }
  char c = 0;
  for (;;) {  // responses are small; byte-at-a-time keeps this dependency-free
    const ssize_t r = ::read(fd, &c, 1);
    if (r < 0 && errno == EINTR) continue;
    if (r <= 0) return false;
    if (c == '\n') return true;
  }
}

// Measures p50/p99 round-trip latency on one active connection while
// `target_conns - 1` idle connections sit on the same event loop. Uses a
// fresh warmed service per point so every point measures identical
// (cache-hit) work. Exits the process on any protocol failure.
ConnScalingPoint measure_conn_scaling(int target_conns,
                                      const std::string& request_line,
                                      int samples) {
  serve::ServeOptions serve_options;
  serve::PredictionService service{serve_options};
  (void)service.handle_line(request_line);  // prime kernel + prediction caches

  serve::ServerOptions server_options;
  server_options.socket_path = "/tmp/gpuhms_bench_" +
                               std::to_string(::getpid()) + "_" +
                               std::to_string(target_conns) + ".sock";
  server_options.listen_backlog = std::max(256, target_conns);
  serve::SocketServer server{service, server_options};
  const Status st = server.listen();
  if (!st.ok()) {
    std::fprintf(stderr, "FAIL: conn-scaling listen: %s\n",
                 st.to_string().c_str());
    std::exit(1);
  }
  std::thread runner{[&server] { (void)server.run(); }};

  std::vector<int> fds;
  fds.reserve(static_cast<std::size_t>(target_conns));
  for (int i = 0; i < target_conns; ++i) {
    StatusOr<int> fd = serve::connect_unix(server_options.socket_path);
    if (!fd.ok()) {
      std::fprintf(stderr, "FAIL: conn-scaling connect %d/%d: %s\n", i,
                   target_conns, fd.status().to_string().c_str());
      std::exit(1);
    }
    fds.push_back(*fd);
  }
  // Every connection must be accepted (not parked in the listen backlog)
  // before we measure, or the point under-reports its own fd load.
  while (server.stats().connections_open <
         static_cast<std::uint64_t>(target_conns))
    std::this_thread::yield();

  const int active = fds.front();
  for (int i = 0; i < 32; ++i) {  // warm the server-side session path
    if (!round_trip(active, request_line)) {
      std::fprintf(stderr, "FAIL: conn-scaling warmup round trip\n");
      std::exit(1);
    }
  }
  std::vector<double> lat_us(static_cast<std::size_t>(samples));
  for (double& sample : lat_us) {
    const auto t0 = std::chrono::steady_clock::now();
    if (!round_trip(active, request_line)) {
      std::fprintf(stderr, "FAIL: conn-scaling measured round trip\n");
      std::exit(1);
    }
    sample = std::chrono::duration<double, std::micro>(
                 std::chrono::steady_clock::now() - t0)
                 .count();
  }

  for (int fd : fds) ::close(fd);
  server.stop();  // hard stop: clients are gone, nothing left to flush
  runner.join();

  ConnScalingPoint point;
  point.connections = target_conns;
  std::sort(lat_us.begin(), lat_us.end());
  point.p50_us = lat_us[lat_us.size() / 2];
  point.p99_us = lat_us[(lat_us.size() * 99) / 100 < lat_us.size()
                            ? (lat_us.size() * 99) / 100
                            : lat_us.size() - 1];
  return point;
}

std::vector<int> parse_conns_flag(int argc, char** argv) {
  std::vector<int> conns = {64, 256, 1024};
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--conns=", 8) != 0) continue;
    conns.clear();
    const char* p = argv[i] + 8;
    while (*p) {
      char* end = nullptr;
      const long v = std::strtol(p, &end, 10);
      if (end == p) break;
      if (v > 0) conns.push_back(static_cast<int>(v));
      p = (*end == ',') ? end + 1 : end;
    }
  }
  std::sort(conns.begin(), conns.end());
  return conns;
}

}  // namespace

int main(int argc, char** argv) {
  const std::size_t per_kernel =
      (argc > 1 && argv[1][0] != '-') ? std::strtoul(argv[1], nullptr, 10) : 64;
  const int repeats =
      (argc > 2 && argv[2][0] != '-') ? std::atoi(argv[2]) : 3;
  const std::vector<int> conns_requested = parse_conns_flag(argc, argv);

  const std::vector<std::string> lines = build_requests(per_kernel);
  std::printf("serve throughput (%zu requests over 4 kernels, best of %d)\n\n",
              lines.size(), repeats);

  // Cold: fresh service each repeat, so every request misses both caches
  // (kernel profiling + full model evaluation). Pipelined, so this is the
  // best the service can do without memoization.
  double cold_ms = 1e300;
  std::vector<std::string> cold_responses;
  for (int r = 0; r < repeats; ++r) {
    serve::PredictionService service{serve::ServeOptions{}};
    std::vector<std::string> responses;
    cold_ms = std::min(cold_ms, time_pipeline(service, lines, &responses));
    if (r == 0) cold_responses = std::move(responses);
  }

  // Warm: one service, primed by a first pass; then the same requests answer
  // from the prediction cache. Byte-identical responses are part of the
  // serving contract, so assert them here too.
  serve::PredictionService warm_service{serve::ServeOptions{}};
  (void)time_pipeline(warm_service, lines, nullptr);
  double warm_ms = 1e300;
  std::vector<std::string> warm_responses;
  for (int r = 0; r < repeats; ++r) {
    std::vector<std::string> responses;
    warm_ms = std::min(warm_ms, time_pipeline(warm_service, lines, &responses));
    if (r == 0) warm_responses = std::move(responses);
  }
  if (warm_responses != cold_responses) {
    std::fprintf(stderr,
                 "FAIL: warm responses diverge from cold responses\n");
    return 1;
  }
  const serve::ServeStats warm_stats = warm_service.stats();
  if (warm_stats.prediction_cache.hits == 0) {
    std::fprintf(stderr, "FAIL: warm phase never hit the prediction cache\n");
    return 1;
  }

  // Warm, one line at a time: what an interactive (unpipelined) client sees.
  double warm_line_ms = 1e300;
  for (int r = 0; r < repeats; ++r)
    warm_line_ms = std::min(warm_line_ms,
                            time_line_at_a_time(warm_service, lines));

  // Warm-hit scaling sweep: 1..16 client threads on handle_line, every
  // response checked against the single-threaded warm reference bytes.
  const int kThreadPoints[] = {1, 2, 4, 8, 16};
  double warm_mt_ms[5];
  for (std::size_t p = 0; p < 5; ++p) {
    warm_mt_ms[p] = 1e300;
    for (int r = 0; r < repeats; ++r)
      warm_mt_ms[p] = std::min(
          warm_mt_ms[p], time_warm_multithread(warm_service, lines,
                                               warm_responses,
                                               kThreadPoints[p]));
  }
  const double mt_scaling = warm_mt_ms[0] / warm_mt_ms[4];
  const unsigned hw = std::thread::hardware_concurrency();
  const double achievable = hw >= 16 ? 16.0 : static_cast<double>(hw);
  const double mt_floor = achievable / 4.0 > 0.3 ? achievable / 4.0 : 0.3;

  // Graceful drain under load (best of repeats; jitter-prone by nature).
  double drain_ms = 1e300;
  for (int r = 0; r < repeats; ++r)
    drain_ms = std::min(drain_ms, measure_drain_latency_ms(lines));

  // Connection-count scaling over the epoll socket server: K-1 idle
  // connections plus one active one, p50/p99 round-trip latency on the
  // active connection. Points that would not fit under the fd soft limit
  // (with headroom for the process's own fds) are dropped, loudly.
  const std::size_t fd_limit = fd_soft_limit();
  const int max_conns =
      static_cast<int>(fd_limit > 256 ? fd_limit - 256 : fd_limit / 2);
  std::vector<ConnScalingPoint> conn_points;
  for (int requested : conns_requested) {
    if (requested > max_conns) {
      std::printf("conn-scaling: skipping %d connections (fd soft limit %zu "
                  "allows at most %d)\n",
                  requested, fd_limit, max_conns);
      continue;
    }
    conn_points.push_back(
        measure_conn_scaling(requested, lines.front(), /*samples=*/400));
  }

  const double n = static_cast<double>(lines.size());
  const double speedup = cold_ms / warm_ms;
  std::printf("  %-22s %10s %14s\n", "phase", "wall ms", "requests/sec");
  std::printf("  %-22s %10.2f %14.1f\n", "cold (pipelined)", cold_ms,
              n / (cold_ms / 1000.0));
  std::printf("  %-22s %10.2f %14.1f\n", "warm (pipelined)", warm_ms,
              n / (warm_ms / 1000.0));
  std::printf("  %-22s %10.2f %14.1f\n", "warm (line-at-a-time)", warm_line_ms,
              n / (warm_line_ms / 1000.0));
  for (std::size_t p = 0; p < 5; ++p)
    std::printf("  warm (%2d threads)      %10.2f %14.1f\n", kThreadPoints[p],
                warm_mt_ms[p], n / (warm_mt_ms[p] / 1000.0));
  std::printf("\ncached-hit speedup: %.1fx (floor %.1fx)\n", speedup,
              kMinWarmSpeedup);
  std::printf("warm-hit scaling 1->16 threads: %.2fx (floor %.2fx, "
              "%u hardware threads)\n",
              mt_scaling, mt_floor, hw);
  std::printf("drain latency under load: %.2f ms (ceiling %.0f ms)\n",
              drain_ms, kMaxDrainMs);
  if (!conn_points.empty()) {
    std::printf("\nconnection scaling (event-loop backend, 1 active + K-1 "
                "idle, %d samples)\n", 400);
    std::printf("  %-14s %12s %12s\n", "connections", "p50 us", "p99 us");
    for (const ConnScalingPoint& point : conn_points)
      std::printf("  %-14d %12.1f %12.1f\n", point.connections, point.p50_us,
                  point.p99_us);
  }

  std::FILE* json = std::fopen("BENCH_serve.json", "w");
  if (!json) {
    std::fprintf(stderr, "cannot open BENCH_serve.json\n");
    return 1;
  }
  std::fprintf(json, "{\n");
  bench::write_stamp(json);
  std::fprintf(json,
               "  \"requests\": %zu,\n"
               "  \"cold_pipelined_ms\": %.3f,\n"
               "  \"warm_pipelined_ms\": %.3f,\n"
               "  \"warm_line_at_a_time_ms\": %.3f,\n"
               "  \"cold_requests_per_sec\": %.1f,\n"
               "  \"warm_requests_per_sec\": %.1f,\n"
               "  \"cached_hit_speedup\": %.2f,\n"
               "  \"speedup_floor\": %.1f,\n"
               "  \"drain_latency_ms\": %.3f,\n"
               "  \"drain_latency_ceiling_ms\": %.1f,\n"
               "  \"prediction_cache_hits\": %llu,\n"
               "  \"prediction_cache_misses\": %llu,\n"
               "  \"hardware_concurrency\": %u,\n"
               "  \"warm_mt_requests_per_sec\": {\n"
               "    \"threads_1\": %.1f,\n"
               "    \"threads_2\": %.1f,\n"
               "    \"threads_4\": %.1f,\n"
               "    \"threads_8\": %.1f,\n"
               "    \"threads_16\": %.1f\n"
               "  },\n"
               "  \"warm_mt_scaling_1_to_16\": %.3f,\n"
               "  \"warm_mt_scaling_floor_applied\": %.3f,\n"
               "  \"fd_soft_limit\": %zu,\n"
               "  \"conn_scaling_p99_factor\": %.1f,\n"
               "  \"conn_scaling_p99_slack_us\": %.1f,\n"
               "  \"conn_scaling\": [",
               lines.size(), cold_ms, warm_ms, warm_line_ms,
               n / (cold_ms / 1000.0), n / (warm_ms / 1000.0), speedup,
               kMinWarmSpeedup, drain_ms, kMaxDrainMs,
               static_cast<unsigned long long>(warm_stats.prediction_cache.hits),
               static_cast<unsigned long long>(
                   warm_stats.prediction_cache.misses),
               hw,
               n / (warm_mt_ms[0] / 1000.0), n / (warm_mt_ms[1] / 1000.0),
               n / (warm_mt_ms[2] / 1000.0), n / (warm_mt_ms[3] / 1000.0),
               n / (warm_mt_ms[4] / 1000.0), mt_scaling, mt_floor, fd_limit,
               kConnP99Factor, kConnP99SlackUs);
  for (std::size_t i = 0; i < conn_points.size(); ++i)
    std::fprintf(json,
                 "%s\n    {\"connections\": %d, \"p50_us\": %.1f, "
                 "\"p99_us\": %.1f}",
                 i ? "," : "", conn_points[i].connections,
                 conn_points[i].p50_us, conn_points[i].p99_us);
  std::fprintf(json, "%s]\n}\n", conn_points.empty() ? "" : "\n  ");
  std::fclose(json);
  std::printf("wrote BENCH_serve.json\n");

  if (speedup < kMinWarmSpeedup) {
    std::fprintf(stderr,
                 "FAIL: cached-hit speedup %.2fx is below the %.1fx floor\n",
                 speedup, kMinWarmSpeedup);
    return 1;
  }
  if (drain_ms > kMaxDrainMs) {
    std::fprintf(stderr,
                 "FAIL: drain latency %.2f ms exceeds the %.0f ms ceiling\n",
                 drain_ms, kMaxDrainMs);
    return 1;
  }
  if (mt_scaling < mt_floor) {
    std::fprintf(stderr,
                 "FAIL: warm-hit 1->16 scaling %.2fx is below the %.2fx "
                 "floor for this hardware (%u threads)\n",
                 mt_scaling, mt_floor, hw);
    return 1;
  }
  // Flat-p99 envelope: only meaningful with at least two points and a
  // largest point of >=256 connections (the smoke run measures 64 alone).
  if (conn_points.size() >= 2 && conn_points.back().connections >= 256) {
    const double bound =
        kConnP99Factor * conn_points.front().p99_us + kConnP99SlackUs;
    if (conn_points.back().p99_us > bound) {
      std::fprintf(stderr,
                   "FAIL: p99 %.1f us at %d connections exceeds the flat "
                   "envelope %.1f us (%.1fx p99 at %d connections + %.0f us)\n",
                   conn_points.back().p99_us, conn_points.back().connections,
                   bound, kConnP99Factor, conn_points.front().connections,
                   kConnP99SlackUs);
      return 1;
    }
  }
  return 0;
}
