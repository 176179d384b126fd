// gpuhms_serve: the long-running prediction/search daemon.
//
// Speaks the newline-delimited JSON protocol of DESIGN §11 (operator guide:
// docs/SERVING.md) over stdin/stdout (the default; pipe requests in, read
// responses out) or over a Unix domain socket (--socket=PATH) served by the
// epoll event-loop backend of DESIGN §15 — one reactor thread holds every
// connection, request batches execute on a small worker pool, and all
// clients share one PredictionService (one kernel/prediction cache).
//
// Quickstart (see README "Serving"):
//   $ ./examples/gpuhms_serve
//   {"id":1,"op":"predict","benchmark":"spmv","placement":"G,G,G,G"}
//   {"id":1,"op":"predict","ok":true,...}
//
// The daemon exits after a {"op":"shutdown"} request, EOF on stdin, or a
// SIGTERM/SIGINT — the signals trigger a graceful drain (DESIGN §13): stop
// accepting work, answer everything already received (new requests get a
// structured retryable UNAVAILABLE — one response per request line, never a
// dropped one), flush metrics to stderr, exit 0. A drain that cannot finish
// within --drain-timeout-ms forces exit code 3.
#include <atomic>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <optional>
#include <string>
#include <thread>

#include <poll.h>
#include <signal.h>
#include <unistd.h>

#include "arch/arch_registry.hpp"
#include "serve/server.hpp"
#include "serve/service.hpp"

using namespace gpuhms;

namespace {

[[noreturn]] void die(const std::string& message) {
  std::fprintf(stderr, "gpuhms_serve: %s\n", message.c_str());
  std::exit(1);
}

std::size_t parse_size(const char* arg, const char* what) {
  errno = 0;
  char* end = nullptr;
  const unsigned long long v = std::strtoull(arg, &end, 10);
  if (end == arg || *end != '\0' || errno == ERANGE)
    die(std::string("invalid ") + what + " '" + arg +
        "': expected a non-negative integer");
  return static_cast<std::size_t>(v);
}

const char* flag_value(const char* arg, const char* flag, int argc,
                       char** argv, int* i) {
  const std::size_t len = std::strlen(flag);
  if (std::strncmp(arg, flag, len) != 0) return nullptr;
  if (arg[len] == '=') return arg + len + 1;
  if (arg[len] != '\0') return nullptr;
  if (*i + 1 >= argc) die(std::string("missing value for ") + flag);
  return argv[++*i];
}

void print_help() {
  std::printf(
      "usage: gpuhms_serve [flags]\n"
      "\n"
      "Long-running placement prediction/search daemon. Reads one JSON\n"
      "request per line, writes one JSON response per line, in order.\n"
      "Ops: predict, predict_batch, search (algo=bnb|exhaustive),\n"
      "metrics, health, shutdown. Protocol grammar: DESIGN.md section 11;\n"
      "full operator and wire-protocol reference: docs/SERVING.md.\n"
      "SIGTERM/SIGINT drain gracefully: in-flight requests finish, new ones\n"
      "are shed with a retryable UNAVAILABLE, no response is ever lost.\n"
      "\n"
      "flags:\n"
      "  --socket=PATH        listen on a Unix domain socket instead of\n"
      "                       stdin/stdout (epoll event loop, one shared\n"
      "                       cache). The path is unlinked first.\n"
      "  --executor-threads=N event-loop worker threads executing request\n"
      "                       batches off the reactor (default: hardware,\n"
      "                       clamped to [1,4])\n"
      "  --max-write-buffer=N per-connection response-buffer bound in bytes\n"
      "                       before dispatch stalls on a slow reader\n"
      "                       (default 262144)\n"
      "  --arch=NAME          default backend for requests that name no arch:\n"
      "                       kepler (default), fermi, maxwell, or hbm2\n"
      "                       (ArchRegistry; requests may override per line\n"
      "                       with an \"arch\" field)\n"
      "  --train-overlap      fit the Eq. 11 T_overlap model on the Table IV\n"
      "                       training suite at startup (seconds; better\n"
      "                       absolute predictions)\n"
      "  --threads=N          worker threads for batch prediction/search\n"
      "                       (default: GPUHMS_THREADS or hardware)\n"
      "  --kernel-cache=N     profiled-kernel cache capacity (default 16)\n"
      "  --prediction-cache=N memoized-prediction cache capacity (default 4096)\n"
      "  --max-inflight=N     concurrent requests admitted (default 64)\n"
      "  --watchdog-ms=N      stop searches running longer than N ms from\n"
      "                       dispatch (a deadline; anytime best-so-far\n"
      "                       response with cancelled set; default off)\n"
      "  --idem-cache=N       idempotency-replay cache capacity: retried\n"
      "                       requests carrying an 'idem' fingerprint replay\n"
      "                       their original response bytes (default 1024)\n"
      "  --drain-timeout-ms=N bound on the SIGTERM/SIGINT graceful drain;\n"
      "                       exceeded -> forced exit code 3 (default 5000)\n"
      "  --help               this text\n"
      "\n"
      "environment (full list: docs/SERVING.md):\n"
      "  GPUHMS_THREADS       default worker-thread count (responses are\n"
      "                       bit-identical for any value)\n"
      "  GPUHMS_METRICS       =1 mirrors serve.* counters into the obs\n"
      "                       registry (the metrics op works regardless)\n");
}

// --- signal plumbing ---------------------------------------------------------
// Classic self-pipe: the handler only touches a sig_atomic_t-ish flag and
// write(2) (both async-signal-safe); the serving loops poll the pipe's read
// end so a signal wakes a blocked poll immediately. No SA_RESTART, so
// blocked read(2) calls return EINTR promptly too.
int g_signal_pipe[2] = {-1, -1};
std::atomic<int> g_signal{0};

void on_signal(int sig) {
  g_signal.store(sig, std::memory_order_relaxed);
  const char byte = 1;
  [[maybe_unused]] const ssize_t r = ::write(g_signal_pipe[1], &byte, 1);
}

void install_signal_handlers() {
  if (::pipe(g_signal_pipe) != 0)
    die("pipe(): " + std::string(std::strerror(errno)));
  struct sigaction sa {};
  sa.sa_handler = on_signal;
  sigemptyset(&sa.sa_mask);
  sa.sa_flags = 0;
  if (::sigaction(SIGTERM, &sa, nullptr) != 0 ||
      ::sigaction(SIGINT, &sa, nullptr) != 0)
    die("sigaction(): " + std::string(std::strerror(errno)));
}

void log_drain_stats(const serve::PredictionService& service, int sig) {
  const serve::ServeStats s = service.stats();
  std::fprintf(stderr,
               "gpuhms_serve: drained after signal %d: requests=%llu "
               "responses=%llu errors=%llu shed_draining=%llu "
               "watchdog_cancels=%llu idem_hits=%llu\n",
               sig, static_cast<unsigned long long>(s.requests),
               static_cast<unsigned long long>(s.responses),
               static_cast<unsigned long long>(s.errors),
               static_cast<unsigned long long>(s.shed_draining),
               static_cast<unsigned long long>(s.watchdog_cancels),
               static_cast<unsigned long long>(s.idem_hits));
}

// --- stdio mode --------------------------------------------------------------
// The library loop serves stdin/stdout and wakes on the self-pipe: a signal
// drains (every complete line already read is answered, shed with
// UNAVAILABLE; a partial trailing line is dropped). The daemon adds one
// structured shutdown line and the drain-stats summary, then exits 0 —
// also when the signal lands just as the loop returned on EOF.
int run_stdio_server(serve::PredictionService& service) {
  const Status st = serve::run_stdio_loop(STDIN_FILENO, STDOUT_FILENO,
                                          g_signal_pipe[0], service);
  if (!st.ok()) die(st.to_string());
  const int sig = g_signal.load();
  if (sig != 0) {
    if (!service.draining()) service.begin_drain();
    serve::Json bye = serve::Json::object();
    bye.set("op", "shutdown");
    bye.set("ok", true);
    bye.set("signal", sig);
    bye.set("draining", true);
    bye.set("drained", service.drained());
    if (std::printf("%s\n", bye.dump().c_str()) < 0 ||
        std::fflush(stdout) != 0)
      die("writing the shutdown line to stdout failed: " +
          std::string(std::strerror(errno)));
    log_drain_stats(service, sig);
  }
  return 0;
}

// --- socket mode -------------------------------------------------------------
// Accept/drain/dispatch live in the library now (serve/server.hpp); the
// daemon contributes only the signal-to-drain bridge: a watcher thread parks
// on the self-pipe and calls begin_drain() when a signal lands.
int run_socket_server(serve::PredictionService& service,
                      const serve::ServerOptions& server_options) {
  serve::SocketServer server(service, server_options);
  const Status st = server.listen();
  if (!st.ok()) die(st.to_string());
  std::fprintf(stderr, "gpuhms_serve: listening on %s\n",
               server_options.socket_path.c_str());

  int done_pipe[2] = {-1, -1};
  if (::pipe(done_pipe) != 0)
    die("pipe(): " + std::string(std::strerror(errno)));
  std::thread watcher([&server, &done_pipe] {
    for (;;) {
      pollfd pfds[2] = {{g_signal_pipe[0], POLLIN, 0},
                        {done_pipe[0], POLLIN, 0}};
      const int ready = ::poll(pfds, 2, -1);
      if (ready < 0 && errno == EINTR) continue;
      if (ready < 0) return;
      if (pfds[0].revents != 0) {
        std::fprintf(stderr,
                     "gpuhms_serve: signal %d: draining (%llu connections, "
                     "timeout %zu ms)\n",
                     g_signal.load(),
                     static_cast<unsigned long long>(
                         server.stats().connections_open),
                     server.options().drain_timeout_ms);
        server.begin_drain();
        return;
      }
      if (pfds[1].revents != 0) return;  // clean exit: stop watching
    }
  });
  const int rc = server.run();
  {
    const char byte = 1;
    [[maybe_unused]] const ssize_t w = ::write(done_pipe[1], &byte, 1);
  }
  watcher.join();
  ::close(done_pipe[0]);
  ::close(done_pipe[1]);

  const int sig = g_signal.load();
  if (rc == 3) {
    std::fprintf(stderr,
                 "gpuhms_serve: drain timed out with %llu connections still "
                 "active; forcing exit\n",
                 static_cast<unsigned long long>(
                     server.stats().connections_open));
    std::fflush(stderr);
    // Worker threads may still be running; a normal exit would run
    // static destructors under them. _Exit skips that — the kernel closes
    // the fds.
    std::_Exit(3);
  }
  if (sig != 0) log_drain_stats(service, sig);
  return rc;
}

}  // namespace

int main(int argc, char** argv) {
  serve::ServeOptions options;
  serve::ServerOptions server_options;
  std::optional<std::string> socket_path;
  std::string arch_name = "kepler";
  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    if (std::strcmp(arg, "--help") == 0 || std::strcmp(arg, "-h") == 0) {
      print_help();
      return 0;
    }
    if (std::strcmp(arg, "--train-overlap") == 0) {
      options.train_overlap = true;
    } else if (const char* v = flag_value(arg, "--socket", argc, argv, &i)) {
      socket_path = v;
    } else if (const char* v = flag_value(arg, "--arch", argc, argv, &i)) {
      arch_name = v;
    } else if (const char* v = flag_value(arg, "--threads", argc, argv, &i)) {
      options.num_threads = static_cast<int>(parse_size(v, "--threads"));
    } else if (const char* v =
                   flag_value(arg, "--executor-threads", argc, argv, &i)) {
      server_options.executor_threads =
          static_cast<int>(parse_size(v, "--executor-threads"));
    } else if (const char* v =
                   flag_value(arg, "--max-write-buffer", argc, argv, &i)) {
      server_options.max_write_buffer_bytes =
          parse_size(v, "--max-write-buffer");
    } else if (const char* v =
                   flag_value(arg, "--kernel-cache", argc, argv, &i)) {
      options.kernel_cache_capacity = parse_size(v, "--kernel-cache");
    } else if (const char* v =
                   flag_value(arg, "--prediction-cache", argc, argv, &i)) {
      options.prediction_cache_capacity = parse_size(v, "--prediction-cache");
    } else if (const char* v =
                   flag_value(arg, "--max-inflight", argc, argv, &i)) {
      options.max_inflight = parse_size(v, "--max-inflight");
    } else if (const char* v =
                   flag_value(arg, "--watchdog-ms", argc, argv, &i)) {
      options.watchdog_ms = parse_size(v, "--watchdog-ms");
    } else if (const char* v =
                   flag_value(arg, "--idem-cache", argc, argv, &i)) {
      options.idem_cache_capacity = parse_size(v, "--idem-cache");
    } else if (const char* v =
                   flag_value(arg, "--drain-timeout-ms", argc, argv, &i)) {
      server_options.drain_timeout_ms = parse_size(v, "--drain-timeout-ms");
    } else {
      die(std::string("unexpected argument '") + arg + "' (--help lists "
          "the flags)");
    }
  }
  const StatusOr<const ArchBackend*> backend =
      ArchRegistry::builtin().try_find(arch_name);
  if (!backend.ok()) die(backend.status().to_string());
  const GpuArch* arch = &(*backend)->arch;

  install_signal_handlers();
  if (options.train_overlap)
    std::fprintf(stderr,
                 "gpuhms_serve: training the T_overlap model "
                 "(--train-overlap)...\n");
  serve::PredictionService service(options, *arch);

  if (socket_path) {
    server_options.socket_path = *socket_path;
    return run_socket_server(service, server_options);
  }
  return run_stdio_server(service);
}
