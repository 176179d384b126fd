// Unix-domain-socket front end for PredictionService (DESIGN §15).
//
// One epoll reactor thread (event_loop.hpp) holds every connection as a
// non-blocking Session (session.hpp); complete request lines go through the
// shared PredictionService::handle_pipeline as batches on a small worker
// Executor and complete back onto the loop. Idle connections cost one fd +
// one Session, not a thread, so a single instance holds thousands of
// mostly-idle clients.
//
// Lifecycle: listen() binds the socket synchronously (clients may connect
// the moment it returns), run() blocks serving until a drain completes or a
// shutdown request is answered, begin_drain() (any thread; the daemon's
// signal path) starts the graceful drain of DESIGN §13. run() returns 0 on
// a clean exit and 3 when the drain timeout forced it — in which case
// worker threads may still be running and the caller should _Exit.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "common/status.hpp"
#include "serve/event_loop.hpp"
#include "serve/session.hpp"

namespace gpuhms::serve {

class PredictionService;

// Minimal FIFO worker pool for off-loop request execution. (ThreadPool in
// common/ is a fork-join parallel_for engine with no submit API; sessions
// need fire-and-forget closures.) The destructor finishes every queued task
// before joining — a drain never abandons an accepted batch.
class Executor {
 public:
  explicit Executor(int threads);
  ~Executor();

  Executor(const Executor&) = delete;
  Executor& operator=(const Executor&) = delete;

  void submit(std::function<void()> task);
  int threads() const { return static_cast<int>(workers_.size()); }

 private:
  void worker_loop();

  std::mutex mu_;
  std::condition_variable cv_;
  std::deque<std::function<void()>> queue_;
  bool stop_ = false;
  std::vector<std::thread> workers_;
};

struct ServerOptions {
  std::string socket_path;
  // Worker threads executing handle_pipeline batches off the loop thread;
  // 0 picks a small default (hardware_concurrency clamped to [1, 4] — the
  // service serializes shared-pool work internally anyway).
  int executor_threads = 0;
  // Session write-buffer bound before dispatch stalls on a slow reader.
  std::size_t max_write_buffer_bytes = 256 * 1024;
  int listen_backlog = 128;
  // Bound on the graceful drain; exceeded -> run() returns 3.
  std::size_t drain_timeout_ms = 5000;
};

// Point-in-time server counters. backpressure_stalls / write_buffer_high_water
// aggregate over CLOSED sessions (live sessions are loop-thread-confined).
struct ServerStats {
  std::uint64_t connections_accepted = 0;
  std::uint64_t connections_open = 0;
  std::uint64_t backpressure_stalls = 0;
  std::uint64_t write_buffer_high_water = 0;
};

class SocketServer {
 public:
  SocketServer(PredictionService& service, ServerOptions options);
  ~SocketServer();

  SocketServer(const SocketServer&) = delete;
  SocketServer& operator=(const SocketServer&) = delete;

  // Binds and listens on options.socket_path (unlinking any stale socket
  // first). Synchronous: a client may connect as soon as this returns.
  Status listen();

  // Serves until a shutdown request is answered or a drain completes.
  // Returns 0 on clean exit, 3 when the drain timeout forced the stop (see
  // file comment), 1 on an internal serving error.
  int run();

  // Starts the graceful drain (thread-safe, idempotent): stop accepting,
  // shed new work with UNAVAILABLE, finish + flush everything in flight,
  // then make run() return. The daemon's SIGTERM/SIGINT path.
  void begin_drain();

  // Hard stop for tests (thread-safe): force-close every connection without
  // waiting for flushes, then make run() return.
  void stop();

  ServerStats stats() const;
  const ServerOptions& options() const { return options_; }

 private:
  // --- loop thread -----------------------------------------------------------
  void on_acceptable();
  void accept_one(int fd);
  void on_session_closed(Session* session);
  // Shared by drain/shutdown: close the listener, drain (or force-close)
  // sessions, stop the loop once the last session closes.
  void initiate_shutdown(bool graceful);
  void close_listener();

  PredictionService& service_;
  const ServerOptions options_;

  int listener_ = -1;
  std::atomic<bool> drain_requested_{false};

  EventLoop loop_;
  std::unordered_map<Session*, std::shared_ptr<Session>> sessions_;
  bool closing_ = false;    // loop thread: listener closed, draining sessions
  bool timed_out_ = false;  // loop thread: drain deadline fired

  std::atomic<std::uint64_t> accepted_{0}, open_{0}, stalls_{0},
      high_water_{0};

  // Declared last: destroying the executor first joins every in-flight
  // batch, so completion closures (which post onto loop_ and hold Session
  // refs) finish before the loop and session map go away.
  std::unique_ptr<Executor> executor_;
};

// Blocking client-side connect to a Unix socket (tests, benchmarks).
// The returned fd is owned by the caller.
StatusOr<int> connect_unix(const std::string& path);

}  // namespace gpuhms::serve
