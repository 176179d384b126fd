// Per-connection non-blocking session state machine (DESIGN §15).
//
// A Session owns one accepted Unix-socket fd registered on the server's
// EventLoop and walks it through
//
//   reading -> executing -> flushing -> reading ...            -> closed
//
// with every state transition on the loop thread. Reads are incremental
// (LineFramer turns arbitrary read() chunks back into complete request
// lines), execution happens OFF the loop on the server's worker executor
// (one handle_pipeline batch per session at a time, so responses keep
// request order by construction), and completed response bytes are posted
// back onto the loop for non-blocking flushing.
//
// Backpressure is bounded twice over: a session never issues another read
// while a batch is executing (unread bytes stay in the kernel socket buffer,
// throttling the client), and never dispatches another batch while more than
// max_write_buffer_bytes of responses await a slow reader (counted in
// serve.loop.backpressure_stalls). The write buffer therefore never exceeds
// the bound plus one batch of responses.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.hpp"
#include "serve/event_loop.hpp"

namespace gpuhms::serve {

class PredictionService;

// Incremental newline-delimited framing: feed() arbitrary byte chunks in,
// take_lines() complete '\n'-stripped request lines out. The partial tail
// (bytes after the last newline) stays buffered until its newline arrives —
// or forever, if the peer closes first: a partial trailing line was never a
// complete request and is dropped by construction (DESIGN §13).
class LineFramer {
 public:
  void feed(std::string_view bytes) { buf_.append(bytes); }

  // Extracts up to max_lines complete lines, preserving arrival order.
  std::vector<std::string> take_lines(std::size_t max_lines);

  bool has_line() const { return buf_.find('\n') != std::string::npos; }
  std::string_view partial() const { return buf_; }
  std::size_t buffered_bytes() const { return buf_.size(); }

 private:
  std::string buf_;
};

// Created by the server's accept handler; lifetime is shared between the
// server's session set and any in-flight executor completion closure, so a
// batch finishing after a forced close cannot touch a dead session.
class Session : public std::enable_shared_from_this<Session> {
 public:
  // `execute` runs a batch of request lines off-loop and calls the provided
  // completion with one response per line (any thread; the session re-posts
  // onto the loop). `on_closed` fires exactly once, on the loop thread, when
  // the fd has been closed — the server uses it to drop its reference and
  // finish a drain. Each batch carries at most ServeOptions::max_batch
  // complete lines, as in the stdio loop; dispatch stalls while more than
  // `max_write_buffer_bytes` of responses await a slow reader.
  using ExecuteFn = std::function<void(
      std::vector<std::string> lines,
      std::function<void(std::vector<std::string>)> done)>;
  using ClosedFn = std::function<void(Session*)>;

  Session(EventLoop& loop, int fd, std::size_t max_write_buffer_bytes,
          PredictionService& service, ExecuteFn execute, ClosedFn on_closed);
  ~Session();

  Session(const Session&) = delete;
  Session& operator=(const Session&) = delete;

  // Registers the fd on the loop. On failure the fd is closed and on_closed
  // has fired before the error returns.
  Status start();

  // Drain hand-off (loop thread): shut down the read side so the peer's
  // pending bytes frame out as usual, the in-flight batch (if any) finishes
  // and flushes, and the session closes once the write buffer empties —
  // zero responses lost.
  void begin_drain();

  // Hard close (loop thread): unregister and close the fd immediately,
  // without waiting for flushes. A batch completing afterwards is dropped
  // (the shared_ptr in its completion closure keeps the object alive).
  void close();

  bool closed() const { return closed_; }
  int fd() const { return fd_; }
  // Largest write-buffer size this session ever held (loop thread).
  std::size_t write_buffer_high_water() const { return high_water_; }
  std::uint64_t backpressure_stalls() const { return stalls_; }

 private:
  void on_event(std::uint32_t events);
  void on_readable();
  void on_writable();
  void on_batch_complete(std::vector<std::string> responses);
  // Dispatches the next batch of framed lines unless executing, stalled on
  // the write bound, or there is nothing to do; closes when the session is
  // finished (EOF or service stop) and fully flushed.
  void maybe_dispatch();
  // Writes as much buffered response data as the socket accepts; arms or
  // disarms EPOLLOUT interest to match.
  void flush_writes();
  void update_interest(std::uint32_t events);

  // True once no further requests will be dispatched: peer EOF, a fatal
  // socket error, or the service answered shutdown (stopped()).
  bool finished() const;

  EventLoop& loop_;
  int fd_;
  const std::size_t max_write_buffer_bytes_;
  PredictionService& service_;
  ExecuteFn execute_;
  ClosedFn on_closed_;

  LineFramer framer_;
  std::string write_buf_;
  std::size_t write_off_ = 0;  // flushed prefix of write_buf_

  bool executing_ = false;  // a batch is out on the executor
  bool eof_ = false;        // read side exhausted (peer EOF / error / drain)
  bool closed_ = false;
  std::uint32_t interest_ = 0;  // currently armed epoll events

  std::size_t high_water_ = 0;
  std::uint64_t stalls_ = 0;
};

}  // namespace gpuhms::serve
