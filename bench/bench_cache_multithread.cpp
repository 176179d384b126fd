// Multithreaded warm-hit cache throughput: gets/sec through the sharded
// ConcurrentCache (DESIGN §14) at 1/2/4/8/16 threads. This is the
// microbenchmark behind the serve hot path:
// at high hit rates the cache, not the model, decides how the daemon scales
// with client threads.
//
// Self-asserting on two axes:
//   * Correctness: every get must hit and return byte-identical bytes to
//     what was inserted — a read that returns torn or stale data would
//     "win" any throughput race, so the checksum guards the numbers.
//   * Scaling: sharded 1->16-thread throughput must not fall below a
//     hardware-aware floor. On >=16 cores the floor is the ISSUE's 4x; with
//     fewer cores the achievable parallelism is min(16, cores), so the
//     floor degrades to max(0.3, min(16, cores)/4) — on the single-core CI
//     container that means "16 threads must not collapse below 0.3x of one
//     thread" (per-shard locks exist so that it does not collapse), and the
//     real 4x assertion arms itself automatically on real multicore
//     hardware. The floor actually applied is recorded in BENCH_cache.json
//     next to hardware_concurrency, so a reader can tell which contract a
//     checked-in snapshot locked.
//
// Usage: ./bench/bench_cache_multithread [keys] [total-gets-per-point]
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>
#include <vector>

#include "bench_stamp.hpp"
#include "common/concurrent_cache.hpp"

using namespace gpuhms;

namespace {

using Cache = ConcurrentCache<std::string, std::string>;

constexpr int kThreadPoints[] = {1, 2, 4, 8, 16};

double now_ms() {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// Serve-shaped keys and values: fingerprint-style hex keys, JSON-ish values
// big enough that the value copy-out (made under the shard lock) is a real
// fraction of the lookup.
std::string key_for(std::size_t i) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%016llx|G,T,S",
                static_cast<unsigned long long>(i) * 0x9e3779b97f4a7c15ULL);
  return buf;
}
std::string value_for(std::size_t i) {
  return "{\"placement\":\"G,T,S\",\"predicted_cycles\":" +
         std::to_string(1000.0 + static_cast<double>(i)) + "}";
}

struct Point {
  int threads = 0;
  double wall_ms = 0;
  double gets_per_sec = 0;
};

// One measurement: `total_gets` warm hits split evenly across `threads`
// threads, all hammering the same cache. Every returned value is compared
// against the expected bytes; a single mismatch aborts the bench.
Point measure(Cache& cache, std::size_t keys, int threads,
              std::size_t total_gets) {
  std::atomic<bool> corrupt{false};
  std::vector<std::thread> workers;
  workers.reserve(static_cast<std::size_t>(threads));
  const std::size_t per_thread = total_gets / static_cast<std::size_t>(threads);
  const double t0 = now_ms();
  for (int t = 0; t < threads; ++t) {
    workers.emplace_back([&cache, &corrupt, keys, per_thread, t] {
      // Stride by a thread-unique odd step so threads touch different keys
      // at any instant (no artificial same-line sharing) but cover the
      // whole key set.
      std::size_t i = static_cast<std::size_t>(t) * 7919;
      const std::size_t step = 2 * static_cast<std::size_t>(t) + 1;
      for (std::size_t n = 0; n < per_thread; ++n) {
        const std::size_t k = i % keys;
        const std::optional<std::string> got = cache.get(key_for(k));
        if (!got.has_value() || *got != value_for(k)) {
          corrupt.store(true);
          return;
        }
        i += step;
      }
    });
  }
  for (std::thread& w : workers) w.join();
  const double wall = now_ms() - t0;
  if (corrupt.load()) {
    std::fprintf(stderr,
                 "FAIL: a warm get missed or returned wrong bytes "
                 "(%d threads)\n",
                 threads);
    std::exit(1);
  }
  const double done =
      static_cast<double>(per_thread) * static_cast<double>(threads);
  return {threads, wall, done / (wall / 1000.0)};
}

std::vector<Point> sweep(Cache& cache, std::size_t keys,
                         std::size_t total_gets) {
  std::vector<Point> points;
  for (const int threads : kThreadPoints) {
    // Best of 3: thread spawn jitter dominates short runs.
    Point best{threads, 1e300, 0};
    for (int r = 0; r < 3; ++r) {
      const Point p = measure(cache, keys, threads, total_gets);
      if (p.wall_ms < best.wall_ms) best = p;
    }
    points.push_back(best);
  }
  return points;
}

void print_points(const char* name, const std::vector<Point>& points) {
  std::printf("  %s\n", name);
  for (const Point& p : points)
    std::printf("    %2d threads: %10.2f ms  %14.0f gets/sec\n", p.threads,
                p.wall_ms, p.gets_per_sec);
}

}  // namespace

int main(int argc, char** argv) {
  const std::size_t keys =
      argc > 1 ? std::strtoul(argv[1], nullptr, 10) : 4096;
  const std::size_t total_gets =
      argc > 2 ? std::strtoul(argv[2], nullptr, 10) : 1 << 21;

  // Capacity 2x the key count: the warm phase must never evict, so every
  // get is a hit and must return the inserted bytes.
  Cache sharded(keys * 2);
  for (std::size_t i = 0; i < keys; ++i) sharded.put(key_for(i), value_for(i));

  const unsigned hw = std::thread::hardware_concurrency();
  std::printf(
      "cache warm-hit throughput (%zu keys, %zu gets per point, "
      "%u hardware threads)\n\n",
      keys, total_gets, hw);

  const std::vector<Point> sharded_points = sweep(sharded, keys, total_gets);
  print_points("sharded", sharded_points);

  const double sharded_scaling =
      sharded_points.back().gets_per_sec / sharded_points.front().gets_per_sec;
  // Hardware-aware floor: 4x on >=16 cores (the ISSUE contract), pro-rated
  // by achievable parallelism below that, never below the no-collapse 0.3x.
  const double achievable = hw >= 16 ? 16.0 : static_cast<double>(hw);
  const double floor =
      achievable / 4.0 > 0.3 ? achievable / 4.0 : 0.3;
  std::printf("\nsharded scaling 1->16 threads: %.2fx (floor %.2fx)\n",
              sharded_scaling, floor);

  std::FILE* json = std::fopen("BENCH_cache.json", "w");
  if (!json) {
    std::fprintf(stderr, "cannot open BENCH_cache.json\n");
    return 1;
  }
  auto dump_points = [json](const char* name,
                            const std::vector<Point>& points) {
    std::fprintf(json, "  \"%s\": {\n", name);
    for (std::size_t i = 0; i < points.size(); ++i)
      std::fprintf(json, "    \"threads_%d\": %.0f%s\n", points[i].threads,
                   points[i].gets_per_sec, i + 1 < points.size() ? "," : "");
    std::fprintf(json, "  },\n");
  };
  std::fprintf(json, "{\n");
  bench::write_stamp(json);
  std::fprintf(json, "  \"keys\": %zu,\n  \"gets_per_point\": %zu,\n", keys,
               total_gets);
  std::fprintf(json, "  \"hardware_concurrency\": %u,\n", hw);
  dump_points("sharded_gets_per_sec", sharded_points);
  std::fprintf(json,
               "  \"sharded_scaling_1_to_16\": %.3f,\n"
               "  \"scaling_floor_applied\": %.3f\n"
               "}\n",
               sharded_scaling, floor);
  std::fclose(json);
  std::printf("wrote BENCH_cache.json\n");

  if (sharded_scaling < floor) {
    std::fprintf(stderr,
                 "FAIL: sharded 1->16 scaling %.2fx is below the %.2fx "
                 "floor for this hardware (%u threads)\n",
                 sharded_scaling, floor, hw);
    return 1;
  }
  return 0;
}
