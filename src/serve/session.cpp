#include "serve/session.hpp"

#include <cerrno>
#include <utility>

#include <sys/epoll.h>
#include <sys/socket.h>
#include <unistd.h>

#include "common/obs.hpp"
#include "serve/service.hpp"

namespace gpuhms::serve {

std::vector<std::string> LineFramer::take_lines(std::size_t max_lines) {
  std::vector<std::string> lines;
  std::size_t start = 0;
  for (std::size_t nl = buf_.find('\n');
       nl != std::string::npos && lines.size() < max_lines;
       nl = buf_.find('\n', start)) {
    lines.push_back(buf_.substr(start, nl - start));
    start = nl + 1;
  }
  buf_.erase(0, start);
  return lines;
}

Session::Session(EventLoop& loop, int fd, const SessionOptions& options,
                 PredictionService& service, ExecuteFn execute,
                 ClosedFn on_closed)
    : loop_(loop),
      fd_(fd),
      options_(options),
      service_(service),
      execute_(std::move(execute)),
      on_closed_(std::move(on_closed)) {}

Session::~Session() {
  // Normal teardown goes through close(); this only covers a session whose
  // start() failed before registration.
  if (!closed_ && fd_ >= 0) ::close(fd_);
}

Status Session::start() {
  auto self = shared_from_this();
  interest_ = EPOLLIN;
  Status st = loop_.add_fd(
      fd_, interest_,
      [self](std::uint32_t events) { self->on_event(events); });
  if (!st.ok()) {
    closed_ = true;
    ::close(fd_);
    if (on_closed_) on_closed_(this);
    return st.annotate("registering session fd on the event loop");
  }
  return OkStatus();
}

void Session::begin_drain() {
  if (closed_) return;
  // Read-side shutdown: bytes the peer already sent still frame out and get
  // their responses (the draining service sheds NEW work with a structured
  // UNAVAILABLE — one response per complete line, never a dropped one), then
  // read() reports EOF and the session closes once flushed.
  ::shutdown(fd_, SHUT_RD);
}

bool Session::finished() const { return eof_ || service_.stopped(); }

void Session::on_event(std::uint32_t events) {
  if (closed_) return;
  if (events & EPOLLERR) {
    close();
    return;
  }
  if (events & EPOLLOUT) {
    on_writable();
    if (closed_) return;
  }
  if (events & (EPOLLIN | EPOLLHUP)) on_readable();
}

void Session::on_readable() {
  if (closed_ || eof_) return;
  std::string chunk(options_.read_chunk_bytes, '\0');
  for (;;) {
    const ssize_t n = ::read(fd_, chunk.data(), chunk.size());
    if (n > 0) {
      framer_.feed(std::string_view(chunk.data(),
                                    static_cast<std::size_t>(n)));
      continue;
    }
    if (n == 0) {  // peer EOF / half-close: pending responses still flush
      eof_ = true;
      break;
    }
    if (errno == EINTR) continue;
    if (errno == EAGAIN || errno == EWOULDBLOCK) break;
    eof_ = true;  // read error: treat as EOF; buffered lines still answer
    break;
  }
  maybe_dispatch();
}

void Session::maybe_dispatch() {
  if (closed_ || executing_) return;
  const std::size_t pending = write_buf_.size() - write_off_;
  if (pending > options_.max_write_buffer_bytes) {
    // Slow reader: hold the next batch until the backlog fully flushes
    // (on_writable re-enters here at zero pending). Bounded buffer: at most
    // the limit plus one batch of responses.
    ++stalls_;
    GPUHMS_COUNTER_ADD("serve.loop.backpressure_stalls", 1);
    update_interest(EPOLLOUT);
    return;
  }
  std::vector<std::string> lines = framer_.take_lines(options_.max_batch_lines);
  if (lines.empty()) {
    if (finished() && pending == 0) {
      close();
      return;
    }
    // Idle (or flushing out the tail after EOF/stop): read iff more requests
    // may come.
    update_interest((finished() ? 0u : EPOLLIN) | (pending ? EPOLLOUT : 0u));
    return;
  }
  executing_ = true;
  // No reads while a batch executes: unread bytes queue in the kernel socket
  // buffer, which is the cheapest possible backpressure on the client.
  update_interest(pending ? EPOLLOUT : 0u);
  auto self = shared_from_this();
  execute_(std::move(lines), [self](std::vector<std::string> responses) {
    // Completion may arrive on any executor thread; session state is loop-
    // thread-confined, so re-post.
    auto* loop = &self->loop_;
    loop->post([self, responses = std::move(responses)]() mutable {
      self->on_batch_complete(std::move(responses));
    });
  });
}

void Session::on_batch_complete(std::vector<std::string> responses) {
  if (closed_) return;  // force-closed while executing: undeliverable
  executing_ = false;
  for (const std::string& response : responses) {
    write_buf_ += response;
    write_buf_ += '\n';
  }
  if (write_buf_.size() - write_off_ > high_water_)
    high_water_ = write_buf_.size() - write_off_;
  flush_writes();
  if (closed_) return;
  maybe_dispatch();
}

void Session::flush_writes() {
  while (write_off_ < write_buf_.size()) {
    // MSG_NOSIGNAL: a peer that closed with responses still buffered must
    // surface as EPIPE here, not as a process-wide SIGPIPE.
    const ssize_t w = ::send(fd_, write_buf_.data() + write_off_,
                             write_buf_.size() - write_off_, MSG_NOSIGNAL);
    if (w > 0) {
      write_off_ += static_cast<std::size_t>(w);
      continue;
    }
    if (w < 0 && errno == EINTR) continue;
    if (w < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
    // Peer gone (EPIPE/ECONNRESET): responses are undeliverable; drop the
    // connection.
    close();
    return;
  }
  if (write_off_ == write_buf_.size()) {
    write_buf_.clear();
    write_off_ = 0;
  } else if (write_off_ > (std::size_t{64} << 10)) {
    write_buf_.erase(0, write_off_);  // keep a slow reader's tail compact
    write_off_ = 0;
  }
  const std::size_t pending = write_buf_.size() - write_off_;
  const bool stalled = pending > options_.max_write_buffer_bytes;
  update_interest(((finished() || executing_ || stalled) ? 0u : EPOLLIN) |
                  (pending ? EPOLLOUT : 0u));
}

void Session::on_writable() {
  flush_writes();
  if (closed_) return;
  if (write_off_ == write_buf_.size()) maybe_dispatch();
}

void Session::update_interest(std::uint32_t events) {
  if (events == interest_ || closed_) return;
  interest_ = events;
  // A MOD failure means the fd is already gone from the epoll set (closed
  // under us); the next event or completion closes the session anyway.
  [[maybe_unused]] const Status st = loop_.modify_fd(fd_, events);
}

void Session::close() {
  if (closed_) return;
  closed_ = true;
  loop_.remove_fd(fd_);
  ::close(fd_);
  fd_ = -1;
  if (on_closed_) on_closed_(this);
}

}  // namespace gpuhms::serve
