// hmsbench command line:
//   hmsbench --workload NAME --seed N --seconds S --trace 0|1
//            --daemon PATH --workdir DIR [--commit SHA]
// Prints diagnostics as "# name = value unit" lines and, last, one JSON
// result line. Exit code 0 only when every output check passed.
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <fstream>
#include <sstream>
#include <thread>

#include "bench.hpp"

namespace hmsbench {
namespace {

volatile std::uint64_t g_probe_sink = 88172645463325252ull;

// Fixed CPU + memory work that uses no library code: a dependent multiply
// chain and a pointer chase over a 16 MiB random cycle. Its time before and
// after a workload tells host drift apart from a regression.
double probe_ms() {
  constexpr std::size_t kSlots = std::size_t{1} << 22;
  static const std::vector<std::uint32_t> cycle = [] {
    std::vector<std::uint32_t> next(kSlots);
    for (std::size_t i = 0; i < kSlots; ++i) next[i] = static_cast<std::uint32_t>(i);
    Rng rng(42);
    for (std::size_t i = kSlots - 1; i > 0; --i)  // Sattolo: one cycle
      std::swap(next[i], next[rng.below(i)]);
    return next;
  }();
  std::vector<double> reps;
  for (int rep = 0; rep < 9; ++rep) {
    const Clock::time_point t0 = Clock::now();
    std::uint64_t x = g_probe_sink | 1;
    for (int i = 0; i < (1 << 21); ++i) x = (x ^ (x << 13) ^ (x >> 7)) * 2654435761ull;
    std::uint32_t at = static_cast<std::uint32_t>(x % kSlots);
    for (std::size_t i = 0; i < kSlots / 16; ++i) at = cycle[at];
    g_probe_sink = x ^ at;  // keeps both loops live
    reps.push_back(ms_between(t0, Clock::now()));
  }
  return median(reps);
}

std::string read_first_line(const char* path) {
  std::ifstream f(path);
  std::string line;
  std::getline(f, line);
  return line;
}

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) < 0x20) continue;
    out += c;
  }
  return out + "\"";
}

std::string number(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

int usage(const char* why) {
  std::fprintf(stderr,
               "hmsbench: %s\nusage: hmsbench --workload NAME --seed N "
               "--seconds S --trace 0|1 --daemon PATH --workdir DIR "
               "[--commit SHA]\nworkloads:",
               why);
  for (const Workload& w : workloads()) std::fprintf(stderr, " %s", w.name.c_str());
  std::fputc('\n', stderr);
  return 2;
}

int run(int argc, char** argv) {
  RunArgs args;
  std::string workload, commit = "unknown", build = HMSBENCH_BUILD;
  int trace = 0;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i], value = argv[i + 1];
    if (flag == "--workload") workload = value;
    else if (flag == "--seed") args.seed = std::strtoull(value.c_str(), nullptr, 10);
    else if (flag == "--seconds") args.seconds = std::atof(value.c_str());
    else if (flag == "--trace") trace = std::atoi(value.c_str());
    else if (flag == "--daemon") args.daemon = value;
    else if (flag == "--workdir") args.workdir = value;
    else if (flag == "--commit") commit = value;
    else return usage(("unknown flag " + flag).c_str());
  }
  args.workload = find_workload(workload);
  if (args.workload == nullptr) return usage(("unknown workload '" + workload + "'").c_str());
  if (args.seconds <= 0 || args.daemon.empty() || args.workdir.empty())
    return usage("--seconds, --daemon and --workdir are required");
  if (::access(args.daemon.c_str(), X_OK) != 0)
    return usage(("daemon binary not found: " + args.daemon).c_str());

  const double probe_before = probe_ms();
  const Outcome out = trace ? traced(args) : drive(args);
  const double probe_after = probe_ms();

  std::ostringstream stamp;
  stamp << "{\"workload\":" << json_string(workload) << ",\"seed\":" << args.seed
        << ",\"seconds\":" << number(args.seconds) << ",\"trace\":" << trace
        << ",\"nproc\":" << ::sysconf(_SC_NPROCESSORS_ONLN)
        << ",\"hardware_concurrency\":" << std::thread::hardware_concurrency()
        << ",\"commit\":" << json_string(commit)
        << ",\"compiler\":" << json_string(__VERSION__)
        << ",\"build\":" << json_string(build)
        << ",\"loadavg\":" << json_string(read_first_line("/proc/loadavg"))
        << ",\"probe_before_ms\":" << number(probe_before)
        << ",\"probe_after_ms\":" << number(probe_after) << "}";

  std::ostringstream result;
  result << "{\"correct\":" << (out.correct ? "true" : "false")
         << ",\"attempted\":" << out.attempted << ",\"failed\":" << out.failed
         << ",\"metrics\":{";
  bool first = true;
  for (const auto& [name, m] : out.metrics) {
    result << (first ? "" : ",") << json_string(name) << ":{\"value\":" << number(m.value)
           << ",\"unit\":" << json_string(m.unit) << "}";
    first = false;
  }
  result << "}}";

  std::ostringstream record;
  record << "{\"stamp\":" << stamp.str() << ",\"notes\":[";
  for (std::size_t i = 0; i < out.notes.size(); ++i)
    record << (i ? "," : "") << json_string(out.notes[i]);
  record << "],\"problems\":[";
  for (std::size_t i = 0; i < out.problems.size(); ++i)
    record << (i ? "," : "") << json_string(out.problems[i]);
  record << "],\"result\":" << result.str() << "}\n";
  std::ofstream(args.workdir + "/" + workload + "-seed" + std::to_string(args.seed) +
                "-trace" + std::to_string(trace) + ".json")
      << record.str();

  std::printf("# stamp = %s\n", stamp.str().c_str());
  for (const std::string& n : out.notes) std::printf("# %s\n", n.c_str());
  for (const std::string& p : out.problems) std::printf("# CHECK FAILED: %s\n", p.c_str());
  for (const auto& [name, m] : out.metrics)
    std::printf("# %s = %s %s\n", name.c_str(), number(m.value).c_str(), m.unit.c_str());
  std::printf("%s\n", result.str().c_str());
  std::fflush(stdout);
  return out.correct ? 0 : 1;
}

}  // namespace
}  // namespace hmsbench

int main(int argc, char** argv) {
  try {
    return hmsbench::run(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "hmsbench: %s\n", e.what());
    return 3;
  }
}
