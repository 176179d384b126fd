// End-to-end protocol tests for the serving layer (src/serve): request
// handling, structured error responses, lone-vs-pipelined predict identity,
// admission control, deadline and watchdog plumbing, the shutdown handshake,
// the stdio loop over pipes (including its wake-and-drain contract),
// response determinism across thread counts, the acceptance pipeline (100
// mixed requests, in order, cache hit-rate > 0), and the serve.parse fault
// site (a poisoned line degrades to an error response).
#include <cstdio>
#include <optional>
#include <set>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include <unistd.h>

#include "arch/arch_registry.hpp"
#include "common/fault_injection.hpp"
#include "common/obs.hpp"
#include "kernel/placement.hpp"
#include "model/search.hpp"
#include "serve/client.hpp"
#include "serve/json.hpp"
#include "serve/service.hpp"
#include "test_util.hpp"
#include "workloads/workloads.hpp"

namespace gpuhms {
namespace {

serve::Json parse_ok(const std::string& line) {
  StatusOr<serve::Json> parsed = serve::Json::parse(line);
  EXPECT_TRUE(parsed.ok()) << line;
  return parsed.ok() ? *std::move(parsed) : serve::Json::object();
}

// Response must be {"ok":false,"error":{"code":<code>,...}}.
void expect_error(const std::string& line, std::string_view code) {
  const serve::Json r = parse_ok(line);
  ASSERT_NE(r.find("ok"), nullptr) << line;
  EXPECT_FALSE(r.find("ok")->as_bool()) << line;
  const serve::Json* error = r.find("error");
  ASSERT_NE(error, nullptr) << line;
  EXPECT_EQ(error->find("code")->as_string(), code) << line;
  EXPECT_FALSE(error->find("message")->as_string().empty()) << line;
}

std::string predict_line(int id, const std::string& benchmark,
                         const std::string& placement) {
  return "{\"id\":" + std::to_string(id) + ",\"op\":\"predict\",\"benchmark\":\"" +
         benchmark + "\",\"placement\":\"" + placement + "\"}";
}

std::vector<std::string> legal_placement_strings(const std::string& benchmark,
                                                 std::size_t cap) {
  const workloads::BenchmarkCase bench = workloads::get_benchmark(benchmark);
  std::vector<std::string> out;
  for (const DataPlacement& p :
       enumerate_placements(bench.kernel, kepler_arch(), cap))
    out.push_back(p.to_string());
  return out;
}

TEST(Serve, PredictHappyPathIsBitIdenticalOnRepeat) {
  serve::PredictionService service{serve::ServeOptions{}};
  const std::string line = predict_line(1, "triad", "G,G,G");
  const std::string first = service.handle_line(line);
  const std::string second = service.handle_line(line);
  EXPECT_EQ(first, second);  // cache hit must not change a single byte

  const serve::Json r = parse_ok(first);
  EXPECT_TRUE(r.find("ok")->as_bool()) << first;
  EXPECT_EQ(r.find("id")->as_number(), 1.0);
  EXPECT_EQ(r.find("op")->as_string(), "predict");
  EXPECT_EQ(r.find("benchmark")->as_string(), "triad");
  EXPECT_EQ(r.find("placement")->as_string(), "G,G,G");
  EXPECT_GT(r.find("predicted_cycles")->as_number(), 0.0);
  EXPECT_GT(r.find("t_comp")->as_number(), 0.0);
  ASSERT_NE(r.find("t_mem"), nullptr);
  ASSERT_NE(r.find("t_overlap"), nullptr);
  ASSERT_NE(r.find("queue_saturated"), nullptr);

  const serve::ServeStats stats = service.stats();
  EXPECT_EQ(stats.predictions, 2u);
  EXPECT_EQ(stats.prediction_cache.hits, 1u);
  EXPECT_EQ(stats.prediction_cache.misses, 1u);
}

TEST(Serve, ColdPredictRunsTheKernelFromOneSkeleton) {
  // Profiling a cold kernel entry's sample records the skeleton first, so
  // the sample's simulation and analysis, and the target's analysis, all
  // read it: one recording, and never the full trace walk.
  const bool was = obs::metrics_active();
  obs::set_enabled(true);
  obs::reset_all_metrics();
  serve::PredictionService service{serve::ServeOptions{}};
  const serve::Json r =
      parse_ok(service.handle_line(predict_line(1, "spmv", "G,G,G,G,G")));
  const obs::MetricsSnapshot s = obs::snapshot();
  obs::reset_all_metrics();
  obs::set_enabled(was);
  EXPECT_TRUE(r.find("ok")->as_bool());
  const auto* full = s.find_counter("trace.analyses_full");
  EXPECT_EQ(full == nullptr ? 0u : full->value, 0u);
  const auto* soa = s.find_counter("trace.analyses_soa");
  ASSERT_NE(soa, nullptr);
  EXPECT_EQ(soa->value, 2u);  // the sample and the target
  const auto* recorded = s.find_counter("trace.skeletons_recorded");
  ASSERT_NE(recorded, nullptr);
  EXPECT_EQ(recorded->value, 1u);
}

TEST(Serve, PredictBatchMatchesSinglePredicts) {
  const std::vector<std::string> placements =
      legal_placement_strings("triad", 6);
  ASSERT_GE(placements.size(), 3u);

  serve::PredictionService batch_service{serve::ServeOptions{}};
  std::string line = R"({"id":1,"op":"predict_batch","benchmark":"triad",)"
                     R"("placements":[)";
  for (std::size_t i = 0; i < placements.size(); ++i) {
    if (i) line += ",";
    line += "\"" + placements[i] + "\"";
  }
  line += "]}";
  const serve::Json batch = parse_ok(batch_service.handle_line(line));
  ASSERT_TRUE(batch.find("ok")->as_bool());
  const serve::Json* results = batch.find("results");
  ASSERT_NE(results, nullptr);
  ASSERT_EQ(results->size(), placements.size());
  EXPECT_EQ(batch_service.stats().batch_calls, 1u);  // one coalesced call

  serve::PredictionService single_service{serve::ServeOptions{}};
  for (std::size_t i = 0; i < placements.size(); ++i) {
    const serve::Json single = parse_ok(single_service.handle_line(
        predict_line(static_cast<int>(i), "triad", placements[i])));
    ASSERT_TRUE(single.find("ok")->as_bool());
    EXPECT_EQ(results->at(i).find("predicted_cycles")->as_number(),
              single.find("predicted_cycles")->as_number())
        << placements[i];
    EXPECT_EQ(results->at(i).find("placement")->as_string(), placements[i]);
  }
}

TEST(Serve, MalformedRequestsGetStructuredErrors) {
  serve::PredictionService service{serve::ServeOptions{}};
  expect_error(service.handle_line("not json at all"), "INVALID_ARGUMENT");
  expect_error(service.handle_line("{\"op\":\"predict\""), "INVALID_ARGUMENT");
  expect_error(service.handle_line("[1,2,3]"), "INVALID_ARGUMENT");
  expect_error(service.handle_line("{}"), "INVALID_ARGUMENT");  // missing op
  expect_error(service.handle_line(R"({"op":42})"), "INVALID_ARGUMENT");
  expect_error(service.handle_line(R"({"op":"frobnicate"})"),
               "INVALID_ARGUMENT");
  expect_error(service.handle_line(R"({"op":"predict"})"), "INVALID_ARGUMENT");
  expect_error(
      service.handle_line(
          R"({"op":"predict","benchmark":"nope","placement":"G"})"),
      "INVALID_ARGUMENT");
  expect_error(service.handle_line(predict_line(1, "triad", "G,G")),
               "INVALID_ARGUMENT");  // wrong arity
  expect_error(service.handle_line(predict_line(1, "triad", "Q,Q,Q")),
               "INVALID_ARGUMENT");  // unknown code
  // Every error was counted, nothing crashed, the service still answers.
  EXPECT_EQ(service.stats().errors, 10u);
  const serve::Json r =
      parse_ok(service.handle_line(predict_line(2, "triad", "G,G,G")));
  EXPECT_TRUE(r.find("ok")->as_bool());
}

// A repeated key (whose last copy would silently win), a byte that is not
// UTF-8 and an unpaired surrogate escape each answer exactly one
// INVALID_ARGUMENT line naming the offending byte offset, so no response
// echoes a byte that is not UTF-8.
TEST(Serve, DuplicateKeysAndInvalidUtf8AreInvalidArgument) {
  serve::PredictionService service{serve::ServeOptions{}};
  const std::vector<std::pair<std::string, std::string>> cases = {
      {R"({"op":"predict","op":"metrics"})",
       "at byte 16: duplicate object key \"op\""},
      {"{\"op\":\"predict\",\"benchmark\":\"sp\xffmv\",\"placement\":\"G\"}",
       "at byte 31: invalid UTF-8 byte 0xff in string"},
      {R"({"op":"\ud800"})", "at byte 7: unpaired surrogate"},
      {R"({"op":"\udc00"})", "at byte 7: unpaired surrogate"},
      {R"({"op":"x\ud83dA"})", "at byte 8: unpaired surrogate"},
      {"{\"op\":\"\xc0\xaf\"}", "at byte 7: invalid UTF-8 byte 0xc0"},
      {"{\"op\":\"\xed\xa0\x80\"}", "at byte 7: invalid UTF-8 byte 0xed"},
      {"{\"op\":\"\xe2\x82\"}", "at byte 7: invalid UTF-8 byte 0xe2"},
      {"{\"op\":\"\\\xff\"}", "at byte 7: invalid escape '\\0xff'"},
  };
  std::vector<std::string> lines;
  for (const auto& c : cases) lines.push_back(c.first);
  const std::vector<std::string> out = service.handle_pipeline(lines);
  ASSERT_EQ(out.size(), cases.size());
  for (std::size_t i = 0; i < cases.size(); ++i) {
    SCOPED_TRACE(i);
    expect_error(out[i], "INVALID_ARGUMENT");
    const std::string message =
        parse_ok(out[i]).find("error")->find("message")->as_string();
    EXPECT_EQ(message.find("JSON parse error " + cases[i].second), 0u)
        << message;
    for (const char b : out[i])
      EXPECT_LT(static_cast<unsigned char>(b), 0x80) << out[i];
  }
  EXPECT_EQ(service.stats().errors, cases.size());
  // Well-formed UTF-8 and a surrogate pair still parse, to the same bytes.
  const std::string smile = "\xf0\x9f\x98\x80";
  EXPECT_EQ(parse_ok(R"("\ud83d\ude00")").as_string(), smile);
  EXPECT_EQ(parse_ok("\"" + smile + "\xc3\xa9\"").as_string(),
            smile + "\xc3\xa9");
  // A key may repeat in different objects.
  EXPECT_TRUE(serve::Json::parse(R"({"a":{"a":1},"b":[{"a":2},{"a":3}]})")
                  .ok());
}

// A predict answers the same bytes whether it arrives alone or heads a
// pipelined run of same-benchmark predicts: one parse path, one error order
// (benchmark, arch, placement field, kernel lookup, parse, validate).
TEST(Serve, PipelinedPredictAnswersLikeALonePredict) {
  serve::PredictionService lone{serve::ServeOptions{}};
  serve::PredictionService piped{serve::ServeOptions{}};
  // Each request, and a second predict on the same benchmark that makes the
  // pipeline a run of two.
  const std::vector<std::pair<std::string, std::string>> cases = {
      {predict_line(1, "triad", "BOGUS"), predict_line(9, "triad", "G,G,G")},
      {predict_line(2, "triad", "G,G"),  // wrong arity
       predict_line(9, "triad", "G,G,G")},
      {predict_line(3, "triad", "T,T,G"),  // written array in texture
       predict_line(9, "triad", "G,G,G")},
      {R"({"id":4,"op":"predict","benchmark":"triad"})",
       predict_line(9, "triad", "G,G,G")},
      {predict_line(5, "triad", "G,G,G"), predict_line(9, "triad", "G,G,G")},
      {R"({"id":6,"op":"predict","benchmark":"nope"})",
       predict_line(9, "nope", "G,G,G")},
  };
  for (const auto& [x, companion] : cases) {
    const std::string alone = lone.handle_line(x);
    const std::vector<std::string> lines = {x, companion};
    const std::vector<std::string> responses = piped.handle_pipeline(lines);
    ASSERT_EQ(responses.size(), 2u);
    EXPECT_EQ(responses[0], alone) << x;
    EXPECT_EQ(responses[1], lone.handle_line(companion)) << companion;
  }
  // The parse hint and the missing-field message, which a run shares.
  EXPECT_NE(lone.handle_line(cases[0].first).find("codes G,S,C,T,2T"),
            std::string::npos);
  EXPECT_NE(lone.handle_line(cases[5].first)
                .find("missing required field 'placement'"),
            std::string::npos);
}

TEST(Serve, AdmissionControlRejectsOversizedInputs) {
  serve::ServeOptions options;
  options.max_line_bytes = 128;
  options.max_batch = 2;
  options.max_search_cap = 64;
  serve::PredictionService service(options);

  std::string big = R"({"op":"predict","benchmark":")";
  big.append(200, 'x');
  big += "\"}";
  expect_error(service.handle_line(big), "RESOURCE_EXHAUSTED");

  expect_error(
      service.handle_line(
          R"({"op":"predict_batch","benchmark":"triad",)"
          R"("placements":["G,G,G","G,G,G","G,G,G"]})"),
      "RESOURCE_EXHAUSTED");

  expect_error(service.handle_line(
                   R"({"op":"search","benchmark":"triad","cap":65536})"),
               "RESOURCE_EXHAUSTED");
  EXPECT_EQ(service.stats().rejected, 3u);
  EXPECT_EQ(service.stats().errors, 3u);
}

TEST(Serve, SearchDispatchesEveryAlgoAndRejectsUnknownOnes) {
  serve::PredictionService service{serve::ServeOptions{}};
  for (const std::string algo : {"exhaustive", "bnb"}) {
    const serve::Json r = parse_ok(service.handle_line(
        R"({"id":"s","op":"search","benchmark":"triad","algo":")" + algo +
        R"(","cap":128})"));
    ASSERT_TRUE(r.find("ok")->as_bool()) << algo;
    EXPECT_EQ(r.find("algo")->as_string(), algo);
    EXPECT_GT(r.find("predicted_cycles")->as_number(), 0.0) << algo;
    // The returned placement is parseable and legal for the kernel.
    const workloads::BenchmarkCase bench = workloads::get_benchmark("triad");
    const std::optional<DataPlacement> p = DataPlacement::from_string(
        bench.kernel, r.find("placement")->as_string());
    ASSERT_TRUE(p.has_value()) << algo;
    EXPECT_TRUE(validate(bench.kernel, *p, kepler_arch()).ok()) << algo;
  }
  // No silent fallback: an unknown algorithm is INVALID_ARGUMENT naming it.
  const std::string resp = service.handle_line(
      R"({"op":"search","benchmark":"triad","algo":"simulated_annealing"})");
  expect_error(resp, "INVALID_ARGUMENT");
  EXPECT_NE(parse_ok(resp).find("error")->find("message")->as_string().find(
                "simulated_annealing"),
            std::string::npos);
  // `beam` names no search: it is an unknown algorithm like any other,
  // and the message lists the two that exist.
  const std::string beam = service.handle_line(
      R"({"op":"search","benchmark":"triad","algo":"beam"})");
  expect_error(beam, "INVALID_ARGUMENT");
  const std::string beam_message =
      parse_ok(beam).find("error")->find("message")->as_string();
  EXPECT_NE(beam_message.find("'beam'"), std::string::npos) << beam_message;
  EXPECT_NE(beam_message.find("bnb"), std::string::npos) << beam_message;
  EXPECT_NE(beam_message.find("exhaustive"), std::string::npos)
      << beam_message;
  EXPECT_EQ(service.stats().searches, 2u);
}

// Every verb accepts only the keys of its row in the service's key table
// (plus id, op and idem): a retired or misspelt field is INVALID_ARGUMENT
// naming it and listing what the verb accepts, never silently ignored.
TEST(Serve, UnknownRequestKeysAreInvalidArgument) {
  serve::PredictionService service{serve::ServeOptions{}};
  auto message_of = [](const std::string& resp) {
    return parse_ok(resp).find("error")->find("message")->as_string();
  };
  const std::string beam_width = service.handle_line(
      R"({"id":7,"op":"search","benchmark":"triad","beam_width":8})");
  expect_error(beam_width, "INVALID_ARGUMENT");
  EXPECT_EQ(parse_ok(beam_width).find("id")->as_number(), 7.0);
  EXPECT_EQ(parse_ok(beam_width).find("op")->as_string(), "search");
  EXPECT_EQ(message_of(beam_width),
            "unknown field 'beam_width' for op 'search': expected one of "
            "id, op, idem, benchmark, arch, algo, cap, deadline_ms");

  const std::string misspelt = service.handle_line(
      R"({"op":"search","benchmark":"triad","deadline_msec":5})");
  expect_error(misspelt, "INVALID_ARGUMENT");
  EXPECT_NE(message_of(misspelt).find("'deadline_msec'"), std::string::npos);

  // A key another verb accepts is still unknown to this one.
  const std::string predict_cap = service.handle_line(
      R"({"op":"predict","benchmark":"triad","placement":"G,G,G","cap":4})");
  expect_error(predict_cap, "INVALID_ARGUMENT");
  EXPECT_EQ(message_of(predict_cap),
            "unknown field 'cap' for op 'predict': expected one of id, op, "
            "idem, benchmark, arch, placement");
  expect_error(service.handle_line(R"({"op":"metrics","verbose":true})"),
               "INVALID_ARGUMENT");
  EXPECT_EQ(service.stats().searches, 0u);
  EXPECT_EQ(service.stats().predictions, 0u);

  // Every key a load generator sends (id, op, benchmark, arch, algo,
  // placement, placements) plus idem is accepted by the verbs that take it.
  for (const std::string line :
       {R"({"id":"a","op":"predict","benchmark":"triad","arch":"kepler",)"
        R"("placement":"G,G,G","idem":"k1"})",
        R"({"id":"b","op":"predict_batch","benchmark":"triad",)"
        R"("arch":"kepler","placements":["G,G,G"]})",
        R"({"id":"c","op":"search","benchmark":"triad","arch":"kepler",)"
        R"("algo":"bnb","cap":16,"deadline_ms":60000})",
        R"({"id":"d","op":"metrics"})", R"({"id":"e","op":"health"})"}) {
    const serve::Json r = parse_ok(service.handle_line(line));
    EXPECT_TRUE(r.find("ok")->as_bool()) << line;
  }
}

// The wire key `pruned` carries branch-and-bound's pruned_subtrees: a bnb
// search on neuralnet (where the bound does cut subtrees) must report
// exactly what an in-process try_search on the same kernel entry — the
// benchmark's kernel and sample on kepler, with the trace memoized — does.
TEST(Serve, BnbSearchReportsPrunedSubtrees) {
  serve::PredictionService service{serve::ServeOptions{}};
  const serve::Json r = parse_ok(service.handle_line(
      R"({"op":"search","benchmark":"neuralnet","algo":"bnb"})"));
  ASSERT_TRUE(r.find("ok")->as_bool());

  const workloads::BenchmarkCase bench = workloads::get_benchmark("neuralnet");
  Predictor pred(bench.kernel, kepler_arch());
  ASSERT_TRUE(pred.try_profile_sample(bench.sample).ok());
  const StatusOr<SearchResult> want = try_search(pred, SearchAlgo::kBnb);
  ASSERT_TRUE(want.ok()) << want.status().to_string();
  EXPECT_GT(want->pruned_subtrees, 0u);
  EXPECT_EQ(r.find("pruned")->as_number(),
            static_cast<double>(want->pruned_subtrees));
  EXPECT_EQ(r.find("evaluated")->as_number(),
            static_cast<double>(want->evaluated));
  EXPECT_EQ(r.find("placement")->as_string(), want->placement.to_string());
}

TEST(Serve, SearchDeadlineExpiryReturnsBestSoFarNotAnError) {
  serve::PredictionService service{serve::ServeOptions{}};
  // An already-expired deadline: the anytime contract still returns a valid
  // best-so-far placement with deadline_hit set, not an error.
  const serve::Json r = parse_ok(service.handle_line(
      R"({"op":"search","benchmark":"spmv","algo":"exhaustive",)"
      R"("cap":512,"deadline_ms":0})"));
  ASSERT_TRUE(r.find("ok")->as_bool());
  EXPECT_TRUE(r.find("deadline_hit")->as_bool());
  EXPECT_GT(r.find("predicted_cycles")->as_number(), 0.0);
  EXPECT_FALSE(r.find("placement")->as_string().empty());
}

TEST(Serve, ShutdownHandshakeRefusesLaterRequests) {
  serve::PredictionService service{serve::ServeOptions{}};
  const serve::Json bye =
      parse_ok(service.handle_line(R"({"id":99,"op":"shutdown"})"));
  EXPECT_TRUE(bye.find("ok")->as_bool());
  EXPECT_TRUE(bye.find("stopped")->as_bool());
  EXPECT_EQ(bye.find("id")->as_number(), 99.0);
  EXPECT_TRUE(service.stopped());

  expect_error(service.handle_line(predict_line(1, "triad", "G,G,G")),
               "FAILED_PRECONDITION");
  // In one pipelined batch, lines behind the shutdown are refused too.
  const std::vector<std::string> lines = {R"({"op":"metrics"})"};
  expect_error(service.handle_pipeline(lines).front(), "FAILED_PRECONDITION");
}

// The stopped check must run BEFORE the idempotency replay: whether a replay
// hits depends on the cache's eviction history, so a trailing line that
// replayed cached bytes after a shutdown would answer bytes that depend on
// that history. Locked here: every line behind the shutdown sheds
// FAILED_PRECONDITION — including a retry of an already-executed idem-keyed
// request whose response is still in the replay cache.
TEST(Serve, ShutdownTrailingLinesShedBeforeIdemReplay) {
  serve::PredictionService service{serve::ServeOptions{}};
  const std::string idem_line =
      R"({"id":1,"op":"predict","benchmark":"triad",)"
      R"("placement":"G,G,G","idem":"trailing-after-shutdown"})";
  // Execute once so the idem key is definitely in the replay cache...
  const std::string first = service.handle_line(idem_line);
  EXPECT_TRUE(parse_ok(first).find("ok")->as_bool()) << first;
  // ...then a pipeline whose trailing lines land behind the shutdown.
  const std::vector<std::string> lines = {R"({"id":2,"op":"shutdown"})",
                                          idem_line,
                                          R"({"id":3,"op":"metrics"})"};
  const std::vector<std::string> responses = service.handle_pipeline(lines);
  ASSERT_EQ(responses.size(), 3u);
  EXPECT_TRUE(parse_ok(responses[0]).find("stopped")->as_bool())
      << responses[0];
  expect_error(responses[1], "FAILED_PRECONDITION");  // NOT an idem replay
  expect_error(responses[2], "FAILED_PRECONDITION");
  EXPECT_EQ(service.stats().idem_hits, 0u);
}

// Pipes standing in for the daemon's stdin, stdout and signal self-pipe.
struct StdioPipes {
  int in[2] = {-1, -1}, out[2] = {-1, -1}, wake[2] = {-1, -1};
  StdioPipes() {
    EXPECT_EQ(::pipe(in), 0);
    EXPECT_EQ(::pipe(out), 0);
    EXPECT_EQ(::pipe(wake), 0);
  }
  ~StdioPipes() {
    for (int fd : {in[0], in[1], out[0], out[1], wake[0], wake[1]})
      if (fd >= 0) ::close(fd);
  }
  static void close_fd(int& fd) {
    ::close(fd);
    fd = -1;
  }
  // Everything written to `out` so far, split into lines. Closes the write
  // end first, so it reads to EOF.
  std::vector<std::string> output_lines() {
    close_fd(out[1]);
    std::string bytes;
    char chunk[4096];
    for (ssize_t n; (n = ::read(out[0], chunk, sizeof chunk)) > 0;)
      bytes.append(chunk, static_cast<std::size_t>(n));
    std::vector<std::string> lines;
    std::istringstream split(bytes);
    for (std::string l; std::getline(split, l);) lines.push_back(l);
    return lines;
  }
};

void write_fd(int fd, const std::string& bytes) {
  ASSERT_EQ(::write(fd, bytes.data(), bytes.size()),
            static_cast<ssize_t>(bytes.size()));
}

TEST(Serve, StdioLoopAnswersEveryLineInOrderAndStopsOnShutdown) {
  serve::PredictionService service{serve::ServeOptions{}};
  StdioPipes pipes;
  write_fd(pipes.in[1], predict_line(1, "triad", "G,G,G") + "\n" +
                            predict_line(2, "triad", "G,G,G") + "\n" +
                            R"({"id":3,"op":"shutdown"})" + "\n" +
                            R"({"id":4,"op":"metrics"})" + "\n");
  StdioPipes::close_fd(pipes.in[1]);
  const Status st =
      serve::run_stdio_loop(pipes.in[0], pipes.out[1], pipes.wake[0], service);
  EXPECT_TRUE(st.ok()) << st.to_string();
  EXPECT_TRUE(service.stopped());
  EXPECT_FALSE(service.draining());

  const std::vector<std::string> lines = pipes.output_lines();
  // All four lines were already buffered, so they rode one pipeline; the
  // line behind the shutdown is answered — with a refusal.
  ASSERT_EQ(lines.size(), 4u);
  EXPECT_EQ(parse_ok(lines[0]).find("id")->as_number(), 1.0);
  EXPECT_EQ(parse_ok(lines[1]).find("id")->as_number(), 2.0);
  EXPECT_TRUE(parse_ok(lines[2]).find("stopped")->as_bool());
  expect_error(lines[3], "FAILED_PRECONDITION");
  // The pipe had everything buffered: the loop coalesced the two identical
  // predicts, so the cache saw one miss and one alias, not two misses.
  EXPECT_EQ(service.stats().batched_predicts, 1u);
}

// The daemon's SIGTERM drain contract: a wake byte drains — each complete
// line read before it gets exactly one retryable UNAVAILABLE, in order, and
// a partial trailing line (never a complete request) gets none.
TEST(Serve, StdioLoopWakeShedsBufferedLinesAndDropsThePartialTail) {
  serve::PredictionService service{serve::ServeOptions{}};
  StdioPipes pipes;
  write_fd(pipes.in[1], predict_line(1, "triad", "G,G,G") + "\n" +
                            R"({"id":2,"op":"search","benchmark":"triad"})" +
                            "\n" + predict_line(3, "spmv", "G,G,G,G") +
                            "\n" + R"({"id":4,"op":"pred)");
  write_fd(pipes.wake[1], "x");
  // The input's write end stays open: only the wake ends the loop.
  const Status st =
      serve::run_stdio_loop(pipes.in[0], pipes.out[1], pipes.wake[0], service);
  EXPECT_TRUE(st.ok()) << st.to_string();
  EXPECT_TRUE(service.draining());
  EXPECT_TRUE(service.drained());

  const std::vector<std::string> lines = pipes.output_lines();
  ASSERT_EQ(lines.size(), 3u);
  for (std::size_t i = 0; i < lines.size(); ++i) {
    expect_error(lines[i], "UNAVAILABLE");
    EXPECT_EQ(parse_ok(lines[i]).find("id")->as_number(),
              static_cast<double>(i + 1));
  }
  EXPECT_EQ(service.stats().shed_draining, 3u);
  EXPECT_EQ(service.stats().predictions, 0u);
}

// --- the PR acceptance criterion ---------------------------------------------
// A pipelined batch of 100 mixed predict/search requests returns 100
// well-formed responses in request order, with a nonzero cache hit-rate,
// byte-identical for GPUHMS_THREADS=1/4/16.
std::vector<std::string> build_mixed_pipeline() {
  static const std::vector<std::string> spmv =
      legal_placement_strings("spmv", 24);
  static const std::vector<std::string> triad =
      legal_placement_strings("triad", 24);
  std::vector<std::string> lines;
  for (int i = 0; i < 100; ++i) {
    if (i % 25 == 24) {
      lines.push_back("{\"id\":" + std::to_string(i) +
                      ",\"op\":\"metrics\"}");
    } else if (i % 20 == 10) {
      lines.push_back(
          "{\"id\":" + std::to_string(i) +
          ",\"op\":\"search\",\"benchmark\":\"triad\",\"algo\":\"" +
          (i % 40 == 10 ? "bnb" : "exhaustive") + "\",\"cap\":64}");
    } else if (i % 2 == 0) {
      lines.push_back(
          predict_line(i, "spmv", spmv[static_cast<std::size_t>(i / 2) %
                                       spmv.size()]));
    } else {
      lines.push_back(
          predict_line(i, "triad", triad[static_cast<std::size_t>(i / 3) %
                                         triad.size()]));
    }
  }
  return lines;
}

std::vector<std::string> run_pipeline_with_threads(const char* threads) {
  testutil::ScopedEnv env("GPUHMS_THREADS", threads);
  serve::PredictionService service{serve::ServeOptions{}};  // pool sized from the env var
  const std::vector<std::string> lines = build_mixed_pipeline();
  std::vector<std::string> responses = service.handle_pipeline(lines);

  EXPECT_EQ(responses.size(), lines.size());
  for (std::size_t i = 0; i < responses.size(); ++i) {
    const serve::Json r = parse_ok(responses[i]);
    const serve::Json* rid = r.find("id");
    const serve::Json* ok = r.find("ok");
    EXPECT_NE(rid, nullptr) << responses[i];
    EXPECT_NE(ok, nullptr) << responses[i];
    if (rid == nullptr || ok == nullptr) continue;
    EXPECT_EQ(rid->as_number(), static_cast<double>(i))
        << "response out of request order at " << i;
    EXPECT_TRUE(ok->as_bool()) << responses[i];
  }
  const serve::ServeStats stats = service.stats();
  EXPECT_GT(stats.prediction_cache.hits, 0u);  // repeats hit the cache
  EXPECT_GT(stats.batch_calls, 0u);
  EXPECT_LT(stats.batch_calls, stats.predictions);  // coalescing happened
  EXPECT_LE(stats.prediction_cache.size, stats.prediction_cache.capacity);
  return responses;
}

TEST(Serve, Pipeline100MixedRequestsDeterministicAcrossThreadCounts) {
  const std::vector<std::string> t1 = run_pipeline_with_threads("1");
  const std::vector<std::string> t4 = run_pipeline_with_threads("4");
  const std::vector<std::string> t16 = run_pipeline_with_threads("16");
  EXPECT_EQ(t1, t4);
  EXPECT_EQ(t1, t16);
}

// --- supervision: health, drain, idempotent replay, watchdog -----------------

TEST(Serve, HealthVerbReportsLifecycleAndSurvivesDrain) {
  serve::PredictionService service{serve::ServeOptions{}};
  const serve::Json fresh =
      parse_ok(service.handle_line(R"({"id":7,"op":"health"})"));
  EXPECT_TRUE(fresh.find("ok")->as_bool());
  EXPECT_EQ(fresh.find("status")->as_string(), "serving");
  EXPECT_FALSE(fresh.find("draining")->as_bool());
  EXPECT_GE(fresh.find("uptime_ms")->as_number(), 0.0);
  EXPECT_EQ(fresh.find("inflight")->as_number(), 0.0);

  service.begin_drain();
  // Model work is shed with a retryable rejection...
  expect_error(service.handle_line(predict_line(1, "triad", "G,G,G")),
               "UNAVAILABLE");
  // ...but supervision verbs keep answering so operators can watch.
  const serve::Json draining =
      parse_ok(service.handle_line(R"({"op":"health"})"));
  EXPECT_EQ(draining.find("status")->as_string(), "draining");
  EXPECT_TRUE(draining.find("draining")->as_bool());
  EXPECT_GT(draining.find("shed_draining")->as_number(), 0.0);
  const serve::Json metrics =
      parse_ok(service.handle_line(R"({"op":"metrics"})"));
  EXPECT_TRUE(metrics.find("ok")->as_bool());
  EXPECT_TRUE(service.drained());
}

TEST(Serve, IdempotentReplayIsByteIdenticalAndWorksWhileDraining) {
  serve::PredictionService service{serve::ServeOptions{}};
  const std::string line =
      R"({"id":5,"op":"predict","benchmark":"triad",)"
      R"("placement":"G,G,G","idem":"req-5-fingerprint"})";
  const std::string first = service.handle_line(line);
  ASSERT_TRUE(parse_ok(first).find("ok")->as_bool());
  EXPECT_EQ(service.stats().idem_hits, 0u);

  const std::string replay = service.handle_line(line);
  EXPECT_EQ(replay, first);  // the ORIGINAL bytes, not a recomputation
  EXPECT_EQ(service.stats().idem_hits, 1u);

  // The drain-safe retry story: a client retrying an executed request gets
  // its response back even though fresh work is being shed.
  service.begin_drain();
  EXPECT_EQ(service.handle_line(line), first);
  EXPECT_EQ(service.stats().idem_hits, 2u);
  expect_error(service.handle_line(
                   R"({"id":6,"op":"predict","benchmark":"triad",)"
                   R"("placement":"G,G,G","idem":"never-executed"})"),
               "UNAVAILABLE");
}

// A non-string idem is a mistyped field like any other: INVALID_ARGUMENT,
// no model work, and nothing memoized under it.
TEST(Serve, NonStringIdemIsInvalidArgument) {
  serve::PredictionService service{serve::ServeOptions{}};
  const std::string line =
      R"({"id":3,"op":"predict","benchmark":"triad",)"
      R"("placement":"G,G,G","idem":5})";
  const std::string first = service.handle_line(line);
  expect_error(first, "INVALID_ARGUMENT");
  const serve::Json r = parse_ok(first);
  EXPECT_EQ(r.find("id")->as_number(), 3.0);
  EXPECT_EQ(r.find("error")->find("message")->as_string(),
            "field 'idem' must be a string");
  EXPECT_EQ(service.handle_line(line), first);
  EXPECT_EQ(service.stats().predictions, 0u);
  EXPECT_EQ(service.stats().idem_hits, 0u);
}

TEST(Serve, WatchdogCancelsRunawaySearchesAndSparesFastOnes) {
  {
    // A generous watchdog never fires on a small search.
    serve::ServeOptions options;
    options.watchdog_ms = 60000;
    serve::PredictionService service{options};
    const serve::Json r = parse_ok(service.handle_line(
        R"({"op":"search","benchmark":"triad","algo":"exhaustive","cap":64})"));
    ASSERT_TRUE(r.find("ok")->as_bool());
    EXPECT_FALSE(r.find("cancelled")->as_bool());
    EXPECT_EQ(service.stats().watchdog_cancels, 0u);
    // The tighter budget decides who stopped the search: an expired request
    // deadline under a generous watchdog reads as the request's own
    // deadline_hit, not a watchdog cancel.
    const serve::Json expired = parse_ok(service.handle_line(
        R"({"op":"search","benchmark":"spmv","algo":"exhaustive",)"
        R"("cap":512,"deadline_ms":0})"));
    ASSERT_TRUE(expired.find("ok")->as_bool());
    EXPECT_TRUE(expired.find("deadline_hit")->as_bool());
    EXPECT_FALSE(expired.find("cancelled")->as_bool());
    EXPECT_EQ(service.stats().watchdog_cancels, 0u);
  }
  // A 1 ms watchdog against full-cap searches: the runaway is stopped at its
  // deadline and still answers with the anytime best-so-far, reading as
  // cancelled. spmv's 360 candidates span six 64-candidate chunks, so the
  // search has chunk boundaries to stop at. A few attempts absorb scheduler
  // jitter without ever making the test flaky.
  serve::ServeOptions options;
  options.watchdog_ms = 1;
  serve::PredictionService service{options};
  for (int attempt = 0; attempt < 20; ++attempt) {
    const serve::Json r = parse_ok(service.handle_line(
        R"({"op":"search","benchmark":"spmv","algo":"exhaustive",)"
        R"("cap":65536})"));
    ASSERT_TRUE(r.find("ok")->as_bool());  // cancelled or not: a real answer
    EXPECT_FALSE(r.find("placement")->as_string().empty());
    if (service.stats().watchdog_cancels > 0) {
      EXPECT_TRUE(r.find("cancelled")->as_bool());
      EXPECT_FALSE(r.find("deadline_hit")->as_bool());
      EXPECT_LE(r.find("lower_bound")->as_number(),
                r.find("predicted_cycles")->as_number());
      break;
    }
  }
  EXPECT_GT(service.stats().watchdog_cancels, 0u)
      << "no search ever outlived the 1 ms watchdog";
}

// --- the retrying client -----------------------------------------------------

serve::Json client_request(int id) {
  serve::Json req = serve::Json::object();
  req.set("id", serve::Json(id));
  req.set("op", serve::Json("predict"));
  req.set("benchmark", serve::Json("triad"));
  req.set("placement", serve::Json("G,G,G"));
  return req;
}

TEST(ServeClient, StampsAStableIdempotencyKey) {
  const std::string k1 = serve::Client::idempotency_key(client_request(1));
  const std::string k2 = serve::Client::idempotency_key(client_request(1));
  const std::string other = serve::Client::idempotency_key(client_request(2));
  EXPECT_EQ(k1, k2);
  EXPECT_NE(k1, other);

  std::vector<std::string> seen;
  serve::ClientOptions copt;
  copt.sleeper = [](std::uint64_t) {};
  serve::Client client(
      [&](const std::string& line) -> StatusOr<std::string> {
        seen.push_back(line);
        return std::string(R"({"id":1,"ok":true})");
      },
      copt);
  ASSERT_TRUE(client.call(client_request(1)).ok());
  ASSERT_EQ(seen.size(), 1u);
  const serve::Json sent = parse_ok(seen[0]);
  ASSERT_NE(sent.find("idem"), nullptr) << seen[0];
  EXPECT_EQ(sent.find("idem")->as_string(), k1);
}

TEST(ServeClient, RetriesShedsWithExponentialBackoffThenSucceeds) {
  int calls = 0;
  std::vector<std::uint64_t> naps;
  serve::ClientOptions copt;
  copt.max_attempts = 4;
  copt.sleeper = [&](std::uint64_t ms) { naps.push_back(ms); };
  serve::Client client(
      [&](const std::string&) -> StatusOr<std::string> {
        if (++calls <= 2)
          return std::string(
              R"({"id":1,"ok":false,"error":{"code":"UNAVAILABLE",)"
              R"("message":"draining"}})");
        return std::string(R"({"id":1,"ok":true})");
      },
      copt);
  const auto r = client.call(client_request(1));
  ASSERT_TRUE(r.ok()) << r.status().to_string();
  EXPECT_EQ(calls, 3);
  EXPECT_EQ(client.attempts(), 3u);
  EXPECT_EQ(client.retries(), 2u);
  EXPECT_EQ(naps, (std::vector<std::uint64_t>{5, 10}));  // 5 * 2^k, capped
}

TEST(ServeClient, ExhaustedRetriesSurfaceTheLastOutcome) {
  serve::ClientOptions copt;
  copt.max_attempts = 2;
  copt.sleeper = [](std::uint64_t) {};
  // Permanent shed: UNAVAILABLE after every retry.
  serve::Client shed(
      [](const std::string&) -> StatusOr<std::string> {
        return std::string(
            R"({"id":1,"ok":false,"error":{"code":"UNAVAILABLE",)"
            R"("message":"draining"}})");
      },
      copt);
  const auto r1 = shed.call(client_request(1));
  ASSERT_FALSE(r1.ok());
  EXPECT_EQ(r1.status().code(), StatusCode::kUnavailable);
  EXPECT_NE(r1.status().message().find("2 attempts"), std::string::npos)
      << r1.status().to_string();

  // Permanent transport failure: the last error comes back annotated.
  serve::Client broken(
      [](const std::string&) -> StatusOr<std::string> {
        return InternalError("connection reset");
      },
      copt);
  const auto r2 = broken.call(client_request(1));
  ASSERT_FALSE(r2.ok());
  EXPECT_EQ(r2.status().code(), StatusCode::kInternal);
  EXPECT_NE(r2.status().to_string().find("connection reset"),
            std::string::npos);
}

TEST(ServeClient, NonRetryableErrorsReturnImmediately) {
  int calls = 0;
  serve::ClientOptions copt;
  copt.sleeper = [](std::uint64_t) {};
  serve::Client client(
      [&](const std::string&) -> StatusOr<std::string> {
        ++calls;
        return std::string(
            R"({"id":1,"ok":false,"error":{"code":"INVALID_ARGUMENT",)"
            R"("message":"bad placement"}})");
      },
      copt);
  const auto r = client.call(client_request(1));
  ASSERT_TRUE(r.ok());  // a definitive rejection IS the response
  EXPECT_EQ(calls, 1);
  EXPECT_EQ(client.retries(), 0u);
}

// --- the arch field ----------------------------------------------------------
// Requests may name an ArchRegistry backend; entries are cached per
// (benchmark, arch), the response echoes the arch, and an unnamed arch keeps
// the historical byte format (no "arch" key) so old clients see no change.

std::string predict_line_arch(int id, const std::string& benchmark,
                              const std::string& placement,
                              const std::string& arch) {
  return "{\"id\":" + std::to_string(id) +
         ",\"op\":\"predict\",\"benchmark\":\"" + benchmark +
         "\",\"placement\":\"" + placement + "\",\"arch\":\"" + arch + "\"}";
}

TEST(Serve, ArchFieldSelectsDistinctDeterministicBackends) {
  serve::PredictionService service{serve::ServeOptions{}};
  std::set<double> cycles;
  for (const std::string arch : {"kepler", "maxwell", "hbm2"}) {
    const std::string line = predict_line_arch(1, "triad", "G,T,G", arch);
    const std::string first = service.handle_line(line);
    EXPECT_EQ(service.handle_line(line), first) << arch;  // byte-stable repeat
    const serve::Json r = parse_ok(first);
    ASSERT_TRUE(r.find("ok")->as_bool()) << first;
    ASSERT_NE(r.find("arch"), nullptr) << first;
    EXPECT_EQ(r.find("arch")->as_string(), arch);
    cycles.insert(r.find("predicted_cycles")->as_number());
  }
  // Three geometries, three predictions: the field is not decorative.
  EXPECT_EQ(cycles.size(), 3u);
}

TEST(Serve, ExplicitKeplerEqualsImplicitDefaultNumerically) {
  serve::PredictionService service{serve::ServeOptions{}};
  const serve::Json implicit =
      parse_ok(service.handle_line(predict_line(1, "triad", "G,G,G")));
  const serve::Json explicit_kepler = parse_ok(
      service.handle_line(predict_line_arch(1, "triad", "G,G,G", "kepler")));
  ASSERT_TRUE(implicit.find("ok")->as_bool());
  ASSERT_TRUE(explicit_kepler.find("ok")->as_bool());
  EXPECT_EQ(implicit.find("predicted_cycles")->as_number(),
            explicit_kepler.find("predicted_cycles")->as_number());
  EXPECT_EQ(implicit.find("t_comp")->as_number(),
            explicit_kepler.find("t_comp")->as_number());
  // The unnamed-arch response keeps the pre-registry byte format.
  EXPECT_EQ(implicit.find("arch"), nullptr);
  EXPECT_EQ(explicit_kepler.find("arch")->as_string(), "kepler");
}

TEST(Serve, UnknownOrMalformedArchIsStructuredInvalidArgument) {
  serve::PredictionService service{serve::ServeOptions{}};
  const std::string resp =
      service.handle_line(predict_line_arch(1, "triad", "G,G,G", "volta"));
  expect_error(resp, "INVALID_ARGUMENT");
  // The error names the registered backends so a client can self-correct.
  const std::string message =
      parse_ok(resp).find("error")->find("message")->as_string();
  for (const char* name : {"kepler", "fermi", "maxwell", "hbm2"}) {
    EXPECT_NE(message.find(name), std::string::npos) << message;
  }
  // A non-string arch is malformed, including inside a pipeline.
  expect_error(service.handle_line(
                   R"({"op":"predict","benchmark":"triad",)"
                   R"("placement":"G,G,G","arch":42})"),
               "INVALID_ARGUMENT");
  const std::vector<std::string> pipeline = {
      predict_line_arch(0, "triad", "G,G,G", "hbm2"),
      R"({"id":1,"op":"predict","benchmark":"triad",)"
      R"("placement":"G,G,G","arch":[1]})",
  };
  const std::vector<std::string> responses = service.handle_pipeline(pipeline);
  ASSERT_EQ(responses.size(), 2u);
  EXPECT_TRUE(parse_ok(responses[0]).find("ok")->as_bool());
  expect_error(responses[1], "INVALID_ARGUMENT");
  // The service still answers afterwards.
  EXPECT_TRUE(parse_ok(service.handle_line(predict_line(2, "triad", "G,G,G")))
                  .find("ok")
                  ->as_bool());
}

TEST(Serve, BatchAndSearchHonorTheArchField) {
  const std::vector<std::string> placements =
      legal_placement_strings("triad", 6);
  ASSERT_GE(placements.size(), 3u);
  serve::PredictionService service{serve::ServeOptions{}};
  std::string batch_line =
      R"({"id":1,"op":"predict_batch","benchmark":"triad",)"
      R"("arch":"hbm2","placements":[)";
  for (std::size_t i = 0; i < placements.size(); ++i) {
    if (i) batch_line += ",";
    batch_line += "\"" + placements[i] + "\"";
  }
  batch_line += "]}";
  const serve::Json batch = parse_ok(service.handle_line(batch_line));
  ASSERT_TRUE(batch.find("ok")->as_bool());
  EXPECT_EQ(batch.find("arch")->as_string(), "hbm2");
  const serve::Json* results = batch.find("results");
  ASSERT_NE(results, nullptr);
  ASSERT_EQ(results->size(), placements.size());
  for (std::size_t i = 0; i < placements.size(); ++i) {
    const serve::Json single = parse_ok(service.handle_line(predict_line_arch(
        static_cast<int>(i), "triad", placements[i], "hbm2")));
    ASSERT_TRUE(single.find("ok")->as_bool());
    EXPECT_EQ(results->at(i).find("predicted_cycles")->as_number(),
              single.find("predicted_cycles")->as_number())
        << placements[i];
  }

  const serve::Json search = parse_ok(service.handle_line(
      R"({"id":2,"op":"search","benchmark":"triad","algo":"exhaustive",)"
      R"("cap":64,"arch":"maxwell"})"));
  ASSERT_TRUE(search.find("ok")->as_bool());
  EXPECT_EQ(search.find("arch")->as_string(), "maxwell");
  const workloads::BenchmarkCase bench = workloads::get_benchmark("triad");
  const std::optional<DataPlacement> p = DataPlacement::from_string(
      bench.kernel, search.find("placement")->as_string());
  ASSERT_TRUE(p.has_value());
  EXPECT_TRUE(validate(bench.kernel, *p,
                       ArchRegistry::builtin().find("maxwell")->arch)
                  .ok());
  expect_error(service.handle_line(
                   R"({"op":"search","benchmark":"triad","arch":"volta"})"),
               "INVALID_ARGUMENT");
}

// Arch-tagged traffic must stay byte-stable across thread counts — same bar
// as the un-tagged mixed pipeline above.
std::vector<std::string> run_arch_pipeline(const char* threads) {
  testutil::ScopedEnv env("GPUHMS_THREADS", threads);
  serve::PredictionService service{serve::ServeOptions{}};
  static const std::vector<std::string> triad =
      legal_placement_strings("triad", 12);
  const char* archs[] = {"", "kepler", "maxwell", "hbm2"};
  std::vector<std::string> lines;
  for (int i = 0; i < 64; ++i) {
    const std::string& placement =
        triad[static_cast<std::size_t>(i / 2) % triad.size()];
    const char* arch = archs[i % 4];
    lines.push_back(arch[0] == '\0'
                        ? predict_line(i, "triad", placement)
                        : predict_line_arch(i, "triad", placement, arch));
  }
  std::vector<std::string> responses = service.handle_pipeline(lines);
  EXPECT_EQ(responses.size(), lines.size());
  for (std::size_t i = 0; i < responses.size(); ++i) {
    const serve::Json r = parse_ok(responses[i]);
    EXPECT_TRUE(r.find("ok")->as_bool()) << responses[i];
    EXPECT_EQ(r.find("id")->as_number(), static_cast<double>(i));
  }
  EXPECT_GT(service.stats().prediction_cache.hits, 0u);
  return responses;
}

TEST(Serve, ArchPipelineDeterministicAcrossThreads) {
  const std::vector<std::string> base = run_arch_pipeline("1");
  EXPECT_EQ(run_arch_pipeline("4"), base);
  EXPECT_EQ(run_arch_pipeline("16"), base);
}

TEST(ServeClient, EndToEndReplayThroughARealService) {
  serve::PredictionService service{serve::ServeOptions{}};
  int failures_left = 1;
  serve::ClientOptions copt;
  copt.sleeper = [](std::uint64_t) {};
  // A transport that eats the first response AFTER the server executed it —
  // the classic ambiguous failure. The retry must replay, not re-run.
  serve::Client client(
      [&](const std::string& line) -> StatusOr<std::string> {
        const std::string response = service.handle_line(line);
        if (failures_left > 0) {
          --failures_left;
          return UnavailableError("connection reset mid-response");
        }
        return response;
      },
      copt);
  const auto r = client.call_json(client_request(9));
  ASSERT_TRUE(r.ok()) << r.status().to_string();
  EXPECT_TRUE(r->find("ok")->as_bool());
  EXPECT_EQ(r->find("id")->as_number(), 9.0);
  const serve::ServeStats stats = service.stats();
  EXPECT_EQ(stats.requests, 2u);   // the wire saw two sends...
  EXPECT_EQ(stats.idem_hits, 1u);  // ...but the second was a byte replay
}

// --- serve.parse fault injection ---------------------------------------------

TEST(ServeFaultInjection, PoisonedRequestDegradesToErrorResponse) {
  serve::ServeOptions options;
  serve::PredictionService service(options);
  const std::string line =
      R"({"id":7,"op":"predict","benchmark":"triad","placement":"G,G,G"})";

  fault::arm("serve.parse");
  const std::string poisoned = service.handle_line(line);
  fault::disarm_all();

  const StatusOr<serve::Json> parsed = serve::Json::parse(poisoned);
  ASSERT_TRUE(parsed.ok()) << poisoned;
  ASSERT_NE(parsed->find("ok"), nullptr);
  EXPECT_FALSE(parsed->find("ok")->as_bool());
  const serve::Json* error = parsed->find("error");
  ASSERT_NE(error, nullptr);
  EXPECT_EQ(error->find("code")->as_string(), "INTERNAL");
  EXPECT_NE(error->find("message")->as_string().find("serve.parse"),
            std::string::npos);

  // The service survives: the same request now succeeds, bit-identically
  // on repetition.
  const std::string ok1 = service.handle_line(line);
  const std::string ok2 = service.handle_line(line);
  const StatusOr<serve::Json> good = serve::Json::parse(ok1);
  ASSERT_TRUE(good.ok()) << ok1;
  EXPECT_TRUE(good->find("ok")->as_bool()) << ok1;
  EXPECT_EQ(ok1, ok2);
  EXPECT_EQ(service.stats().errors, 1u);
}

}  // namespace
}  // namespace gpuhms
