// Single-threaded epoll reactor for the serve layer (DESIGN §15).
//
// The event-loop server backend (serve/server.hpp) holds thousands of idle
// connections on one thread: an epoll set wakes the loop only for fds with
// actual work, an eventfd lets other threads (the worker executor, the
// daemon's signal path) post closures onto the loop thread, and one optional
// deadline (the server's drain timeout) bounds epoll_wait's timeout.
// Everything except post()/stop() must run on the loop thread; sessions keep
// all their mutable state loop-thread-confined so the reactor needs no
// per-connection locks.
//
// Observability (GPUHMS_METRICS=1): serve.loop.ready_events (histogram of
// fds ready per wakeup — the batching the reactor gets per syscall),
// serve.loop.iteration_ns (histogram of dispatch time per wakeup, excluding
// the blocked epoll_wait), plus exact Counters for tests.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <unordered_map>
#include <vector>

#include "common/status.hpp"

namespace gpuhms::serve {

class EventLoop {
 public:
  // Invoked on the loop thread with the ready epoll event mask (EPOLLIN |
  // EPOLLOUT | EPOLLHUP | EPOLLERR | ...).
  using FdCallback = std::function<void(std::uint32_t events)>;

  // Acquires the epoll and eventfd descriptors; a resource failure is
  // reported through status() (run() refuses to start on a bad loop).
  EventLoop();
  ~EventLoop();

  EventLoop(const EventLoop&) = delete;
  EventLoop& operator=(const EventLoop&) = delete;

  // OK when construction acquired every descriptor.
  const Status& status() const { return status_; }

  // --- fd registration (loop thread, or any thread before run()) ------------
  // The callback stays registered until remove_fd; the loop never closes a
  // registered fd — ownership stays with the caller (the session closes its
  // own socket AFTER removing it, so a recycled descriptor can never alias a
  // stale registration).
  Status add_fd(int fd, std::uint32_t events, FdCallback callback);
  Status modify_fd(int fd, std::uint32_t events);
  void remove_fd(int fd);

  // --- the deadline (loop thread) --------------------------------------------
  // Arms the loop's one deadline: `on_deadline` runs once on the loop thread
  // at (or just after) `deadline`, after that wakeup's fds and tasks. A
  // later call replaces an armed deadline. run() passes the time left to
  // epoll_wait as its timeout, so no descriptor or syscall backs it.
  void set_deadline(std::chrono::steady_clock::time_point deadline,
                    std::function<void()> on_deadline);

  // --- cross-thread hand-off -------------------------------------------------
  // Queues `task` to run on the loop thread and wakes a blocked epoll_wait
  // via the eventfd. Safe from any thread, including the loop thread itself
  // (the task still runs from the queue, never reentrantly). This is how
  // executor workers complete responses back onto their session.
  void post(std::function<void()> task);

  // Blocks dispatching events, tasks and the deadline until stop(). Returns
  // immediately (with the construction error latched in status()) if the
  // loop is bad.
  void run();
  // Thread-safe and async-friendly: posts a stop task; run() returns once
  // the current iteration's dispatch finishes.
  void stop();

  // Exact dispatch counters (independent of GPUHMS_METRICS), for tests.
  struct Counters {
    std::uint64_t wakeups = 0;           // epoll_wait returns
    std::uint64_t events_dispatched = 0; // fd callbacks invoked
    std::uint64_t tasks_run = 0;         // posted closures executed
  };
  Counters counters() const;

 private:
  void wake();
  void drain_wakeup_fd();
  void run_posted_tasks();
  // epoll_wait's timeout: -1 without a deadline, else the milliseconds left
  // until it, rounded up so the loop never wakes early and spins.
  int wait_timeout_ms() const;

  Status status_;
  int epoll_fd_ = -1;
  int wakeup_fd_ = -1;  // eventfd: post()/stop()

  std::mutex handlers_mu_;  // guards handlers_ (written pre-run/loop thread)
  std::unordered_map<int, std::shared_ptr<FdCallback>> handlers_;

  std::mutex tasks_mu_;
  std::vector<std::function<void()>> tasks_;

  // Loop thread only.
  std::optional<std::chrono::steady_clock::time_point> deadline_;
  std::function<void()> on_deadline_;
  bool stop_requested_ = false;

  std::atomic<std::uint64_t> wakeups_{0}, events_dispatched_{0},
      tasks_run_{0};
};

}  // namespace gpuhms::serve
