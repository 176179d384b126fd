#include "serve/server.hpp"

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <thread>
#include <utility>

#include <sys/epoll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include "common/obs.hpp"
#include "serve/service.hpp"

namespace gpuhms::serve {

namespace {

Status errno_status(const std::string& what) {
  return InternalError(what + ": " + std::strerror(errno));
}

int default_executor_threads() {
  const unsigned hw = std::thread::hardware_concurrency();
  return static_cast<int>(std::clamp(hw, 1u, 4u));
}

}  // namespace

// --- Executor ----------------------------------------------------------------

Executor::Executor(int threads) {
  if (threads <= 0) threads = default_executor_threads();
  workers_.reserve(static_cast<std::size_t>(threads));
  for (int i = 0; i < threads; ++i)
    workers_.emplace_back([this] { worker_loop(); });
}

Executor::~Executor() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
  }
  cv_.notify_all();
  for (std::thread& t : workers_) t.join();
}

void Executor::submit(std::function<void()> task) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    queue_.push_back(std::move(task));
  }
  cv_.notify_one();
}

void Executor::worker_loop() {
  for (;;) {
    std::function<void()> task;
    {
      std::unique_lock<std::mutex> lock(mu_);
      cv_.wait(lock, [this] { return stop_ || !queue_.empty(); });
      if (queue_.empty()) return;  // stop_ and drained: exit
      task = std::move(queue_.front());
      queue_.pop_front();
    }
    task();
  }
}

// --- SocketServer ------------------------------------------------------------

SocketServer::SocketServer(PredictionService& service, ServerOptions options)
    : service_(service), options_(std::move(options)) {}

SocketServer::~SocketServer() {
  if (listener_ >= 0) {
    ::close(listener_);
    ::unlink(options_.socket_path.c_str());
  }
}

Status SocketServer::listen() {
  const std::string& path = options_.socket_path;
  sockaddr_un addr{};
  if (path.empty() || path.size() >= sizeof addr.sun_path)
    return InvalidArgumentError("socket path '" + path +
                                "' is empty or too long");
  listener_ =
      ::socket(AF_UNIX, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0);
  if (listener_ < 0) return errno_status("socket()");
  ::unlink(path.c_str());
  addr.sun_family = AF_UNIX;
  std::strncpy(addr.sun_path, path.c_str(), sizeof addr.sun_path - 1);
  if (::bind(listener_, reinterpret_cast<const sockaddr*>(&addr),
             sizeof addr) != 0)
    return errno_status("bind('" + path + "')");
  if (::listen(listener_, options_.listen_backlog) != 0)
    return errno_status("listen()");
  return OkStatus();
}

void SocketServer::begin_drain() {
  if (!drain_requested_.exchange(true))
    loop_.post([this] { initiate_shutdown(/*graceful=*/true); });
}

void SocketServer::stop() {
  drain_requested_.store(true);
  loop_.post([this] { initiate_shutdown(/*graceful=*/false); });
}

ServerStats SocketServer::stats() const {
  ServerStats s;
  s.connections_accepted = accepted_.load(std::memory_order_relaxed);
  s.connections_open = open_.load(std::memory_order_relaxed);
  s.backpressure_stalls = stalls_.load(std::memory_order_relaxed);
  s.write_buffer_high_water = high_water_.load(std::memory_order_relaxed);
  return s;
}

// --- event loop --------------------------------------------------------------

int SocketServer::run() {
  if (listener_ < 0) return 1;  // listen() not called or failed
  if (!loop_.status().ok()) return 1;
  session_batch_lines_ = options_.max_batch_lines != 0
                             ? options_.max_batch_lines
                             : service_.options().max_batch;
  executor_ = std::make_unique<Executor>(options_.executor_threads);
  const Status st =
      loop_.add_fd(listener_, EPOLLIN, [this](std::uint32_t) {
        on_acceptable();
      });
  if (!st.ok()) return 1;
  // begin_drain()/stop() calls that raced ahead of run() posted their tasks
  // already; the first loop iteration executes them.
  loop_.run();
  if (!loop_.status().ok()) return 1;
  return timed_out_ ? 3 : 0;
}

void SocketServer::on_acceptable() {
  for (;;) {
    const int fd =
        ::accept4(listener_, nullptr, nullptr, SOCK_NONBLOCK | SOCK_CLOEXEC);
    if (fd < 0) {
      if (errno == EINTR) continue;
      // EAGAIN: accepted everything pending. EMFILE/ENFILE: out of fds —
      // leave the connection queued; a session close frees a descriptor and
      // the level-triggered listener re-fires.
      break;
    }
    accept_one(fd);
  }
}

void SocketServer::accept_one(int fd) {
  SessionOptions session_options;
  session_options.max_batch_lines = session_batch_lines_;
  session_options.max_write_buffer_bytes = options_.max_write_buffer_bytes;
  auto execute = [this](std::vector<std::string> lines,
                        std::function<void(std::vector<std::string>)> done) {
    executor_->submit(
        [this, lines = std::move(lines), done = std::move(done)]() mutable {
          std::vector<std::string> responses = service_.handle_pipeline(lines);
          const bool stopped = service_.stopped();
          done(std::move(responses));
          // The batch that answered `shutdown` retires the whole server:
          // same drain sequence as a signal, entered exactly once.
          if (stopped && !drain_requested_.exchange(true))
            loop_.post([this] { initiate_shutdown(/*graceful=*/true); });
        });
  };
  auto session = std::make_shared<Session>(
      loop_, fd, session_options, service_, std::move(execute),
      [this](Session* s) { on_session_closed(s); });
  sessions_.emplace(session.get(), session);
  accepted_.fetch_add(1, std::memory_order_relaxed);
  const std::uint64_t open = open_.fetch_add(1, std::memory_order_relaxed) + 1;
  GPUHMS_GAUGE_SET("serve.loop.open_connections", open);
  // A failed start() already closed the fd and fired on_session_closed.
  (void)session->start();
  // A connection accepted after the drain began still gets the graceful
  // treatment (shed responses, then EOF) instead of hanging open.
  if (closing_ && !session->closed()) session->begin_drain();
}

void SocketServer::on_session_closed(Session* session) {
  stalls_.fetch_add(session->backpressure_stalls(),
                    std::memory_order_relaxed);
  std::uint64_t hw = high_water_.load(std::memory_order_relaxed);
  while (session->write_buffer_high_water() > hw &&
         !high_water_.compare_exchange_weak(
             hw, session->write_buffer_high_water(),
             std::memory_order_relaxed)) {
  }
  const std::uint64_t open = open_.fetch_sub(1, std::memory_order_relaxed) - 1;
  GPUHMS_GAUGE_SET("serve.loop.open_connections", open);
  sessions_.erase(session);
  if (closing_ && sessions_.empty()) loop_.stop();
}

void SocketServer::initiate_shutdown(bool graceful) {
  if (closing_) {
    if (!graceful) {  // escalate an in-progress drain to a hard stop
      std::vector<std::shared_ptr<Session>> live;
      live.reserve(sessions_.size());
      for (auto& [_, s] : sessions_) live.push_back(s);
      for (auto& s : live) s->close();
      loop_.stop();
    }
    return;
  }
  closing_ = true;
  close_listener();
  // Iterate a copy: begin_drain/close can complete a session inline, which
  // erases it from sessions_ via on_session_closed.
  std::vector<std::shared_ptr<Session>> live;
  live.reserve(sessions_.size());
  for (auto& [_, s] : sessions_) live.push_back(s);
  if (graceful) {
    // After a shutdown request the service is already stopped: trailing
    // lines keep answering FAILED_PRECONDITION rather than switching to the
    // draining refusal.
    if (!service_.stopped()) service_.begin_drain();
    for (auto& s : live) s->begin_drain();
    loop_.add_timer(std::chrono::steady_clock::now() +
                        std::chrono::milliseconds(options_.drain_timeout_ms),
                    [this] {
                      timed_out_ = true;
                      loop_.stop();
                    });
  } else {
    for (auto& s : live) s->close();
  }
  if (sessions_.empty()) loop_.stop();
}

void SocketServer::close_listener() {
  if (listener_ < 0) return;
  loop_.remove_fd(listener_);
  ::close(listener_);
  ::unlink(options_.socket_path.c_str());
  listener_ = -1;
}

// --- client-side helper ------------------------------------------------------

StatusOr<int> connect_unix(const std::string& path) {
  sockaddr_un addr{};
  if (path.empty() || path.size() >= sizeof addr.sun_path)
    return InvalidArgumentError("socket path '" + path +
                                "' is empty or too long");
  const int fd = ::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) return errno_status("socket()");
  addr.sun_family = AF_UNIX;
  std::strncpy(addr.sun_path, path.c_str(), sizeof addr.sun_path - 1);
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof addr) !=
      0) {
    const Status st = errno_status("connect('" + path + "')");
    ::close(fd);
    return st;
  }
  return fd;
}

}  // namespace gpuhms::serve
