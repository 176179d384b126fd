// Event-loop server core tests (DESIGN §15): incremental framing, timerfd
// deadlines, fd-budget scaling with 1k idle connections, the slow-reader
// backpressure bound, drain-under-load with zero lost or misrouted
// responses, and byte-identity between the socket server and the in-process
// service.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <functional>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include <poll.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <unistd.h>

#include "serve/event_loop.hpp"
#include "serve/json.hpp"
#include "serve/server.hpp"
#include "serve/service.hpp"
#include "serve/session.hpp"

namespace gpuhms {
namespace {

using namespace std::chrono_literals;

// --- framing -----------------------------------------------------------------

TEST(LineFramer, PartialLineWaitsForItsNewline) {
  serve::LineFramer framer;
  framer.feed("{\"a\":1}\n{\"b\"");
  std::vector<std::string> lines = framer.take_lines(10);
  ASSERT_EQ(lines.size(), 1u);
  EXPECT_EQ(lines[0], "{\"a\":1}");
  EXPECT_EQ(framer.partial(), "{\"b\"");
  EXPECT_FALSE(framer.has_line());

  framer.feed(":2}\n");
  lines = framer.take_lines(10);
  ASSERT_EQ(lines.size(), 1u);
  EXPECT_EQ(lines[0], "{\"b\":2}");
  EXPECT_EQ(framer.buffered_bytes(), 0u);
}

TEST(LineFramer, ByteAtATimeArrivalFramesTheSameLine) {
  serve::LineFramer framer;
  const std::string request = R"({"id":9,"op":"health"})";
  for (const char c : request) framer.feed(std::string_view(&c, 1));
  EXPECT_FALSE(framer.has_line());
  framer.feed("\n");
  const std::vector<std::string> lines = framer.take_lines(10);
  ASSERT_EQ(lines.size(), 1u);
  EXPECT_EQ(lines[0], request);
}

TEST(LineFramer, MultiLineChunkRespectsTheBatchCap) {
  serve::LineFramer framer;
  framer.feed("one\ntwo\nthree\nfour\npart");
  std::vector<std::string> lines = framer.take_lines(2);
  ASSERT_EQ(lines.size(), 2u);
  EXPECT_EQ(lines[0], "one");
  EXPECT_EQ(lines[1], "two");
  lines = framer.take_lines(100);  // the rest, order preserved
  ASSERT_EQ(lines.size(), 2u);
  EXPECT_EQ(lines[0], "three");
  EXPECT_EQ(lines[1], "four");
  EXPECT_EQ(framer.partial(), "part");
  // Empty lines are real (empty) requests, not swallowed.
  framer.feed("ial\n\n");
  lines = framer.take_lines(10);
  ASSERT_EQ(lines.size(), 2u);
  EXPECT_EQ(lines[0], "partial");
  EXPECT_EQ(lines[1], "");
}

// --- reactor timers ----------------------------------------------------------

TEST(EventLoop, DeadlinesFireViaTimerfdInOrderAndCancelHolds) {
  serve::EventLoop loop;
  ASSERT_TRUE(loop.status().ok()) << loop.status().to_string();
  std::vector<int> order;
  const auto now = std::chrono::steady_clock::now();
  loop.add_timer(now + 30ms, [&order] { order.push_back(1); });
  const serve::EventLoop::TimerId cancelled =
      loop.add_timer(now + 40ms, [&order] { order.push_back(99); });
  loop.add_timer(now + 60ms, [&order, &loop] {
    order.push_back(2);
    loop.stop();
  });
  loop.cancel_timer(cancelled);
  loop.run();
  const auto elapsed = std::chrono::steady_clock::now() - now;
  EXPECT_GE(elapsed, 60ms);  // the timerfd really gated the last deadline
  ASSERT_EQ(order.size(), 2u);
  EXPECT_EQ(order[0], 1);
  EXPECT_EQ(order[1], 2);
  EXPECT_EQ(loop.counters().timers_fired, 2u);
}

TEST(EventLoop, CrossThreadPostRunsOnTheLoop) {
  serve::EventLoop loop;
  ASSERT_TRUE(loop.status().ok());
  std::atomic<int> ran{0};
  std::thread poster([&] {
    for (int i = 0; i < 100; ++i)
      loop.post([&ran] { ran.fetch_add(1, std::memory_order_relaxed); });
    loop.post([&loop] { loop.stop(); });
  });
  loop.run();
  poster.join();
  EXPECT_EQ(ran.load(), 100);
  EXPECT_GE(loop.counters().tasks_run, 101u);
}

// --- socket-server harness ---------------------------------------------------

std::string test_socket_path(const char* tag) {
  return "/tmp/gpuhms_evloop_" + std::to_string(::getpid()) + "_" + tag +
         ".sock";
}

struct ServerHarness {
  serve::PredictionService service;
  serve::SocketServer server;
  std::thread thread;
  std::atomic<int> rc{-1};

  ServerHarness(const serve::ServeOptions& serve_options,
                serve::ServerOptions server_options)
      : service(serve_options), server(service, std::move(server_options)) {
    const Status st = server.listen();
    EXPECT_TRUE(st.ok()) << st.to_string();
    thread = std::thread([this] { rc = server.run(); });
  }

  int join() {
    if (thread.joinable()) thread.join();
    return rc.load();
  }

  ~ServerHarness() {
    if (thread.joinable()) {
      server.stop();
      thread.join();
    }
  }
};

int connect_or_die(const std::string& path) {
  // The listener is bound before run() starts, but give a saturated backlog
  // a few retries under load.
  for (int attempt = 0; attempt < 200; ++attempt) {
    StatusOr<int> fd = serve::connect_unix(path);
    if (fd.ok()) return *fd;
    std::this_thread::sleep_for(5ms);
  }
  ADD_FAILURE() << "could not connect to " << path;
  return -1;
}

bool send_all(int fd, const std::string& bytes) {
  std::size_t sent = 0;
  while (sent < bytes.size()) {
    const ssize_t w =
        ::send(fd, bytes.data() + sent, bytes.size() - sent, MSG_NOSIGNAL);
    if (w < 0 && errno == EINTR) continue;
    if (w <= 0) return false;
    sent += static_cast<std::size_t>(w);
  }
  return true;
}

// Reads complete response lines until `want` arrive, EOF, or the deadline.
std::vector<std::string> read_lines(int fd, std::size_t want,
                                    std::chrono::milliseconds timeout) {
  std::vector<std::string> lines;
  serve::LineFramer framer;
  const auto deadline = std::chrono::steady_clock::now() + timeout;
  char chunk[1 << 14];
  while (lines.size() < want) {
    // Drain already-framed lines before touching the socket again.
    std::vector<std::string> got = framer.take_lines(want - lines.size());
    if (!got.empty()) {
      for (std::string& line : got) lines.push_back(std::move(line));
      continue;
    }
    const auto remaining = std::chrono::duration_cast<std::chrono::milliseconds>(
        deadline - std::chrono::steady_clock::now());
    if (remaining <= 0ms) break;
    pollfd pfd{fd, POLLIN, 0};
    const int ready = ::poll(&pfd, 1, static_cast<int>(remaining.count()));
    if (ready < 0 && errno == EINTR) continue;
    if (ready <= 0) break;
    const ssize_t n = ::read(fd, chunk, sizeof chunk);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) break;  // EOF
    framer.feed(std::string_view(chunk, static_cast<std::size_t>(n)));
  }
  return lines;
}

// Reads until the server closes the connection, returning every line.
std::vector<std::string> read_until_eof(int fd,
                                        std::chrono::milliseconds timeout) {
  std::vector<std::string> lines;
  serve::LineFramer framer;
  const auto deadline = std::chrono::steady_clock::now() + timeout;
  char chunk[1 << 14];
  for (;;) {
    const auto remaining = std::chrono::duration_cast<std::chrono::milliseconds>(
        deadline - std::chrono::steady_clock::now());
    if (remaining <= 0ms) break;
    pollfd pfd{fd, POLLIN, 0};
    const int ready = ::poll(&pfd, 1, static_cast<int>(remaining.count()));
    if (ready < 0 && errno == EINTR) continue;
    if (ready <= 0) break;
    const ssize_t n = ::read(fd, chunk, sizeof chunk);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) break;
    framer.feed(std::string_view(chunk, static_cast<std::size_t>(n)));
    for (std::string& line : framer.take_lines(1u << 20))
      lines.push_back(std::move(line));
  }
  return lines;
}

double response_id(const std::string& line) {
  StatusOr<serve::Json> parsed = serve::Json::parse(line);
  EXPECT_TRUE(parsed.ok()) << line;
  if (!parsed.ok()) return -1.0;
  const serve::Json* id = parsed->find("id");
  EXPECT_NE(id, nullptr) << line;
  return id == nullptr ? -1.0 : id->as_number();
}

bool wait_until(const std::function<bool()>& done,
                std::chrono::milliseconds timeout) {
  const auto deadline = std::chrono::steady_clock::now() + timeout;
  while (std::chrono::steady_clock::now() < deadline) {
    if (done()) return true;
    std::this_thread::sleep_for(2ms);
  }
  return done();
}

// --- fd-budget scaling -------------------------------------------------------

TEST(EventLoopServer, HoldsAThousandIdleConnectionsUnderTheFdBudget) {
  // Each connection costs two fds in this process (client end + server end);
  // stay well inside the soft limit, scaling down on constrained machines.
  rlimit nofile{};
  ASSERT_EQ(::getrlimit(RLIMIT_NOFILE, &nofile), 0);
  const std::size_t budget =
      nofile.rlim_cur > 256 ? (nofile.rlim_cur - 256) / 2 : 8;
  const std::size_t idle = std::min<std::size_t>(1000, budget);

  serve::ServerOptions server_options;
  server_options.socket_path = test_socket_path("idle");
  server_options.listen_backlog = 1024;
  ServerHarness harness{serve::ServeOptions{}, server_options};

  std::vector<int> fds;
  fds.reserve(idle);
  for (std::size_t i = 0; i < idle; ++i) {
    const int fd = connect_or_die(server_options.socket_path);
    ASSERT_GE(fd, 0) << "connection " << i;
    fds.push_back(fd);
  }
  ASSERT_TRUE(wait_until(
      [&] { return harness.server.stats().connections_open >= idle; }, 30s))
      << "accepted only " << harness.server.stats().connections_open << "/"
      << idle;
  EXPECT_GE(harness.server.stats().connections_accepted, idle);

  // The idle herd must not tax the active connection: a few round-trips on
  // one socket while the other 999 sit in the epoll set.
  const int active = connect_or_die(server_options.socket_path);
  ASSERT_GE(active, 0);
  for (int i = 0; i < 3; ++i) {
    const std::string request =
        "{\"id\":" + std::to_string(i) + ",\"op\":\"health\"}\n";
    ASSERT_TRUE(send_all(active, request));
    const std::vector<std::string> lines = read_lines(active, 1, 10s);
    ASSERT_EQ(lines.size(), 1u) << "round-trip " << i;
    EXPECT_EQ(response_id(lines[0]), static_cast<double>(i));
  }
  ::close(active);
  for (const int fd : fds) ::close(fd);
  ASSERT_TRUE(wait_until(
      [&] { return harness.server.stats().connections_open == 0; }, 30s));
}

// --- backpressure ------------------------------------------------------------

TEST(EventLoopServer, SlowReaderStallsDispatchWithinTheWriteBufferBound) {
  constexpr std::size_t kWriteBound = 2048;
  constexpr std::size_t kBatchLines = 8;
  // The metrics responses (the fattest verb, ~1-2 KiB each) must comfortably
  // out-volume the kernel socket buffers (~200 KiB) so the user-space write
  // buffer actually backs up against the bound.
  constexpr int kRequests = 1000;

  serve::ServerOptions server_options;
  server_options.socket_path = test_socket_path("slow");
  server_options.max_write_buffer_bytes = kWriteBound;
  server_options.max_batch_lines = kBatchLines;
  server_options.executor_threads = 1;
  ServerHarness harness{serve::ServeOptions{}, server_options};

  const int fd = connect_or_die(server_options.socket_path);
  ASSERT_GE(fd, 0);
  std::string burst;
  std::size_t max_response_bytes = 0;
  for (int i = 0; i < kRequests; ++i)
    burst += "{\"id\":" + std::to_string(i) + ",\"op\":\"metrics\"}\n";
  // Send everything without reading a byte: the session must stall dispatch
  // once kWriteBound of responses back up, not buffer all of them.
  ASSERT_TRUE(send_all(fd, burst));
  std::this_thread::sleep_for(200ms);  // let it stall, then start reading

  const std::vector<std::string> lines =
      read_lines(fd, kRequests, 60s);
  ASSERT_EQ(lines.size(), static_cast<std::size_t>(kRequests));
  for (int i = 0; i < kRequests; ++i) {
    EXPECT_EQ(response_id(lines[static_cast<std::size_t>(i)]),
              static_cast<double>(i))
        << "responses out of order at " << i;
    max_response_bytes =
        std::max(max_response_bytes, lines[static_cast<std::size_t>(i)].size() + 1);
  }
  ::close(fd);
  ASSERT_TRUE(wait_until(
      [&] { return harness.server.stats().connections_open == 0; }, 10s));

  const serve::ServerStats stats = harness.server.stats();
  EXPECT_GT(stats.backpressure_stalls, 0u)
      << "a 200-response backlog against a 2 KiB bound must stall";
  // The invariant from session.hpp: bound + at most one batch of responses.
  EXPECT_LE(stats.write_buffer_high_water,
            kWriteBound + kBatchLines * max_response_bytes)
      << "high water " << stats.write_buffer_high_water;
}

// --- drain under load --------------------------------------------------------

TEST(EventLoopServer, DrainUnderLoadLosesAndMisroutesNothing) {
  constexpr int kConnections = 8;
  constexpr int kPerConnection = 50;

  serve::ServerOptions server_options;
  server_options.socket_path = test_socket_path("drain");
  server_options.drain_timeout_ms = 30000;
  ServerHarness harness{serve::ServeOptions{}, server_options};

  std::vector<int> fds;
  for (int c = 0; c < kConnections; ++c) {
    const int fd = connect_or_die(server_options.socket_path);
    ASSERT_GE(fd, 0);
    fds.push_back(fd);
    std::string burst;
    for (int i = 0; i < kPerConnection; ++i)
      burst += "{\"id\":" + std::to_string(c * 1000 + i) +
               ",\"op\":\"predict\",\"benchmark\":\"triad\",\"placement\":"
               "\"G,G,G\"}\n";
    ASSERT_TRUE(send_all(fd, burst));
  }
  // Every connection must be PAST the accept queue before the drain closes
  // the listener (a backlogged connection would be dropped unanswered, which
  // is a connect-time failure, not a lost response).
  ASSERT_TRUE(wait_until(
      [&] {
        return harness.server.stats().connections_open >=
               static_cast<std::uint64_t>(kConnections);
      },
      10s));
  // Drain while those batches are in flight. Every line above was already
  // delivered to the server's socket buffer, so every line is owed exactly
  // one response — executed or shed, never lost.
  harness.server.begin_drain();

  for (int c = 0; c < kConnections; ++c) {
    const std::vector<std::string> lines = read_until_eof(fds[c], 60s);
    ASSERT_EQ(lines.size(), static_cast<std::size_t>(kPerConnection))
        << "connection " << c << " lost responses in the drain";
    for (int i = 0; i < kPerConnection; ++i) {
      const std::string& line = lines[static_cast<std::size_t>(i)];
      // In order, on the right connection (ids are connection-scoped)...
      EXPECT_EQ(response_id(line), static_cast<double>(c * 1000 + i)) << line;
      // ...and every response is either executed or a structured shed.
      StatusOr<serve::Json> parsed = serve::Json::parse(line);
      ASSERT_TRUE(parsed.ok()) << line;
      if (!parsed->find("ok")->as_bool()) {
        EXPECT_EQ(parsed->find("error")->find("code")->as_string(),
                  "UNAVAILABLE")
            << line;
      }
    }
    ::close(fds[c]);
  }
  EXPECT_EQ(harness.join(), 0);  // clean drain, not a timeout
  const serve::ServeStats stats = harness.service.stats();
  EXPECT_EQ(stats.requests,
            static_cast<std::uint64_t>(kConnections * kPerConnection));
}

// --- socket vs in-process differential --------------------------------------

// One scripted conversation (no time-dependent verbs), byte-for-byte: the
// event-loop socket must answer exactly what a fresh in-process service
// answers when handed the same lines as one pipeline.
TEST(EventLoopServer, SocketBytesMatchInProcessPipeline) {
  const std::vector<std::string> script = {
      R"({"id":1,"op":"predict","benchmark":"triad","placement":"G,G,G"})",
      R"({"id":2,"op":"predict","benchmark":"triad","placement":"bogus"})",
      R"({"id":3,"op":"search","benchmark":"triad","algo":"exhaustive",)"
      R"("cap":16})",
      R"({"id":4,"op":"predict","benchmark":"triad","placement":"G,G,G",)"
      R"("idem":"differential-idem"})",
      R"({"id":5,"op":"shutdown"})",
      R"({"id":6,"op":"predict","benchmark":"triad","placement":"G,G,G",)"
      R"("idem":"differential-idem"})"};

  serve::ServerOptions server_options;
  server_options.socket_path = test_socket_path("diff_event");
  ServerHarness harness{serve::ServeOptions{}, server_options};
  const int fd = connect_or_die(server_options.socket_path);
  ASSERT_GE(fd, 0);
  std::string bytes;
  for (const std::string& line : script) bytes += line + "\n";
  EXPECT_TRUE(send_all(fd, bytes));
  const std::vector<std::string> socket = read_until_eof(fd, 60s);
  ::close(fd);
  EXPECT_EQ(harness.join(), 0);

  serve::PredictionService in_process{serve::ServeOptions{}};
  const std::vector<std::string> expected = in_process.handle_pipeline(script);
  ASSERT_EQ(socket.size(), 6u);
  EXPECT_EQ(socket, expected);
  // Spot-check the interesting one: the trailing idem retry behind the
  // shutdown sheds FAILED_PRECONDITION (never replays).
  StatusOr<serve::Json> last = serve::Json::parse(socket.back());
  ASSERT_TRUE(last.ok());
  EXPECT_FALSE(last->find("ok")->as_bool());
  EXPECT_EQ(last->find("error")->find("code")->as_string(),
            "FAILED_PRECONDITION");
}

}  // namespace
}  // namespace gpuhms
