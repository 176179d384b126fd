#include "serve/event_loop.hpp"

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <limits>
#include <utility>

#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <unistd.h>

#include "common/obs.hpp"

namespace gpuhms::serve {

namespace {

Status errno_status(const char* what) {
  return InternalError(std::string(what) + ": " + std::strerror(errno));
}

}  // namespace

EventLoop::EventLoop() {
  epoll_fd_ = ::epoll_create1(EPOLL_CLOEXEC);
  if (epoll_fd_ < 0) {
    status_ = errno_status("epoll_create1()");
    return;
  }
  wakeup_fd_ = ::eventfd(0, EFD_NONBLOCK | EFD_CLOEXEC);
  if (wakeup_fd_ < 0) {
    status_ = errno_status("eventfd()");
    return;
  }
  epoll_event ev{};
  ev.events = EPOLLIN;
  ev.data.fd = wakeup_fd_;
  if (::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, wakeup_fd_, &ev) != 0)
    status_ = errno_status("epoll_ctl(ADD wakeup eventfd)");
}

EventLoop::~EventLoop() {
  if (wakeup_fd_ >= 0) ::close(wakeup_fd_);
  if (epoll_fd_ >= 0) ::close(epoll_fd_);
}

Status EventLoop::add_fd(int fd, std::uint32_t events, FdCallback callback) {
  if (!status_.ok()) return status_;
  {
    std::lock_guard<std::mutex> lock(handlers_mu_);
    handlers_[fd] = std::make_shared<FdCallback>(std::move(callback));
  }
  epoll_event ev{};
  ev.events = events;
  ev.data.fd = fd;
  if (::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, fd, &ev) != 0) {
    std::lock_guard<std::mutex> lock(handlers_mu_);
    handlers_.erase(fd);
    return errno_status("epoll_ctl(ADD)");
  }
  return OkStatus();
}

Status EventLoop::modify_fd(int fd, std::uint32_t events) {
  if (!status_.ok()) return status_;
  epoll_event ev{};
  ev.events = events;
  ev.data.fd = fd;
  if (::epoll_ctl(epoll_fd_, EPOLL_CTL_MOD, fd, &ev) != 0)
    return errno_status("epoll_ctl(MOD)");
  return OkStatus();
}

void EventLoop::remove_fd(int fd) {
  if (!status_.ok()) return;
  {
    std::lock_guard<std::mutex> lock(handlers_mu_);
    handlers_.erase(fd);
  }
  // Failure (fd already closed by the kernel) is benign: the registration is
  // gone either way.
  ::epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, fd, nullptr);
}

void EventLoop::set_deadline(std::chrono::steady_clock::time_point deadline,
                             std::function<void()> on_deadline) {
  deadline_ = deadline;
  on_deadline_ = std::move(on_deadline);
}

void EventLoop::post(std::function<void()> task) {
  {
    std::lock_guard<std::mutex> lock(tasks_mu_);
    tasks_.push_back(std::move(task));
  }
  wake();
}

void EventLoop::stop() {
  post([this] { stop_requested_ = true; });
}

EventLoop::Counters EventLoop::counters() const {
  Counters c;
  c.wakeups = wakeups_.load(std::memory_order_relaxed);
  c.events_dispatched = events_dispatched_.load(std::memory_order_relaxed);
  c.tasks_run = tasks_run_.load(std::memory_order_relaxed);
  return c;
}

void EventLoop::wake() {
  if (wakeup_fd_ < 0) return;
  const std::uint64_t one = 1;
  // The eventfd is a 64-bit counter: concurrent writes coalesce into one
  // readable wakeup, and EAGAIN (counter saturated) still leaves it readable.
  [[maybe_unused]] const ssize_t w =
      ::write(wakeup_fd_, &one, sizeof one);
}

void EventLoop::drain_wakeup_fd() {
  std::uint64_t count = 0;
  while (::read(wakeup_fd_, &count, sizeof count) > 0) {
  }
}

void EventLoop::run_posted_tasks() {
  std::vector<std::function<void()>> tasks;
  {
    std::lock_guard<std::mutex> lock(tasks_mu_);
    tasks.swap(tasks_);
  }
  for (auto& task : tasks) {
    task();
    tasks_run_.fetch_add(1, std::memory_order_relaxed);
  }
}

int EventLoop::wait_timeout_ms() const {
  if (!deadline_) return -1;
  const auto left = *deadline_ - std::chrono::steady_clock::now();
  if (left <= std::chrono::steady_clock::duration::zero()) return 0;
  // A deadline past INT_MAX ms (~24 days) wakes the loop early; it re-waits.
  return static_cast<int>(std::min<std::chrono::milliseconds::rep>(
      std::chrono::ceil<std::chrono::milliseconds>(left).count(),
      std::numeric_limits<int>::max()));
}

void EventLoop::run() {
  if (!status_.ok()) return;
  stop_requested_ = false;
  constexpr int kMaxEvents = 128;
  epoll_event events[kMaxEvents];
  while (!stop_requested_) {
    const int n =
        ::epoll_wait(epoll_fd_, events, kMaxEvents, wait_timeout_ms());
    if (n < 0) {
      if (errno == EINTR) continue;
      status_ = errno_status("epoll_wait()");
      return;
    }
    wakeups_.fetch_add(1, std::memory_order_relaxed);
    GPUHMS_HISTOGRAM_RECORD("serve.loop.ready_events",
                            static_cast<std::uint64_t>(n));
    const auto dispatch_start = std::chrono::steady_clock::now();
    for (int i = 0; i < n; ++i) {
      const int fd = events[i].data.fd;
      if (fd == wakeup_fd_) {
        drain_wakeup_fd();
        continue;  // tasks run below, after fd dispatch
      }
      std::shared_ptr<FdCallback> handler;
      {
        std::lock_guard<std::mutex> lock(handlers_mu_);
        auto it = handlers_.find(fd);
        if (it != handlers_.end()) handler = it->second;
      }
      // The shared_ptr copy keeps the callback alive even if it removes its
      // own fd (session close) mid-dispatch; a handler removed by an EARLIER
      // callback in this batch is skipped — its fd may already be recycled.
      if (handler) {
        (*handler)(events[i].events);
        events_dispatched_.fetch_add(1, std::memory_order_relaxed);
      }
    }
    run_posted_tasks();
    if (deadline_ && dispatch_start >= *deadline_) {
      deadline_.reset();
      std::function<void()> on_deadline = std::move(on_deadline_);
      on_deadline();
    }
    GPUHMS_HISTOGRAM_RECORD(
        "serve.loop.iteration_ns",
        static_cast<std::uint64_t>(
            std::chrono::duration_cast<std::chrono::nanoseconds>(
                std::chrono::steady_clock::now() - dispatch_start)
                .count()));
  }
}

}  // namespace gpuhms::serve
