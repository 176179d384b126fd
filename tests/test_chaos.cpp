// Chaos harness (ctest -L chaos): every registered fault site is exercised
// through its real code path in BOTH modes — armed (the injected failure is
// observed as the documented degraded behavior, never UB) and disarmed (the
// same path runs clean) — plus randomized seeded kill/resume of the
// journaled search and a drain-under-fire serve run with the retrying
// client. The completeness table FAILS COMPILATION-OF-INTENT: registering a
// new fault site without adding a scenario here breaks the suite.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <functional>
#include <map>
#include <random>
#include <span>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include <unistd.h>

#include "common/arena.hpp"
#include "common/fault_injection.hpp"
#include "common/journal.hpp"
#include "common/thread_pool.hpp"
#include "model/search.hpp"
#include "model/search_checkpoint.hpp"
#include "serve/client.hpp"
#include "serve/json.hpp"
#include "serve/service.hpp"
#include "test_util.hpp"
#include "workloads/workloads.hpp"

namespace gpuhms {
namespace {

class Chaos : public ::testing::Test {
 protected:
  void TearDown() override { fault::disarm_all(); }
};

Predictor profiled_predictor(const KernelInfo& k) {
  Predictor pred(k, kepler_arch());
  pred.profile_sample(DataPlacement::defaults(k));
  return pred;
}

// Per process: the sanitizer binaries compile this file too, and ctest runs
// them side by side.
std::string temp_path(const std::string& tag) {
  return ::testing::TempDir() + "chaos_" + std::to_string(::getpid()) + "_" +
         tag + ".jnl";
}

serve::Json parse_ok(const std::string& line) {
  StatusOr<serve::Json> parsed = serve::Json::parse(line);
  EXPECT_TRUE(parsed.ok()) << line;
  return parsed.ok() ? *std::move(parsed) : serve::Json::object();
}

// --- fault-site completeness table -------------------------------------------
// One scenario per registered site. Each drives the site's real call path;
// with `fire` it arms the fault first and asserts the documented failure
// mode, without it the identical path must succeed.

using Scenario = std::function<void(bool fire)>;

void scenario_trace_lower(bool fire) {
  const KernelInfo kern = workloads::make_vecadd(1 << 10);
  const Predictor pred = profiled_predictor(kern);
  SearchOptions o;
  o.cap = 16;
  if (fire) fault::arm("trace.lower", 1);
  const auto r = try_search(pred, SearchAlgo::kExhaustive, o);
  if (fire) {
    ASSERT_FALSE(r.ok());
    EXPECT_EQ(r.status().code(), StatusCode::kInternal);
    EXPECT_NE(r.status().message().find("trace.lower"), std::string::npos);
  } else {
    EXPECT_TRUE(r.ok()) << r.status().to_string();
  }
}

void scenario_queuing(const char* site, bool fire) {
  const KernelInfo k = workloads::make_vecadd(1 << 12);
  const Predictor pred = profiled_predictor(k);
  if (fire) fault::arm(site, 1);
  const auto r = pred.try_predict(DataPlacement::defaults(k));
  ASSERT_TRUE(r.ok()) << r.status().to_string();  // degraded, not failed
  EXPECT_TRUE(std::isfinite(r->total_cycles));
  EXPECT_GT(r->total_cycles, 0.0);
  EXPECT_EQ(r->queue_saturated, fire);
}

void scenario_pool_task(bool fire) {
  ThreadPool pool(2);
  if (fire) {
    fault::arm("pool.task", 3);
    EXPECT_THROW(pool.parallel_for(16, [](int, std::size_t) {}),
                 InjectedFault);
  }
  // Clean path (and post-throw reuse when fired).
  std::atomic<int> ran{0};
  pool.parallel_for(16, [&](int, std::size_t) {
    ran.fetch_add(1, std::memory_order_relaxed);
  });
  EXPECT_EQ(ran.load(), 16);
}

void scenario_serve_parse(bool fire) {
  serve::PredictionService service;
  if (fire) fault::arm("serve.parse", 1);
  const std::string resp = service.handle_line(
      R"({"id":1,"op":"predict","benchmark":"triad","placement":"G,G,G"})");
  const serve::Json r = parse_ok(resp);
  ASSERT_NE(r.find("ok"), nullptr) << resp;
  EXPECT_EQ(r.find("ok")->as_bool(), !fire) << resp;
  if (fire) {
    EXPECT_EQ(r.find("error")->find("code")->as_string(), "INTERNAL") << resp;
  }
}

void scenario_serve_accept(bool fire) {
  serve::PredictionService service;
  if (fire) fault::arm("serve.accept", 1);
  const std::string resp = service.handle_line(
      R"({"id":1,"op":"predict","benchmark":"triad","placement":"G,G,G"})");
  const serve::Json r = parse_ok(resp);
  ASSERT_NE(r.find("ok"), nullptr) << resp;
  EXPECT_EQ(r.find("ok")->as_bool(), !fire) << resp;
  if (fire) {
    EXPECT_EQ(r.find("error")->find("code")->as_string(), "UNAVAILABLE")
        << resp;
  }
}

void scenario_arena_alloc(bool fire) {
  Arena arena;
  if (fire) {
    fault::arm("arena.alloc", 1);
    EXPECT_THROW(arena.alloc_bytes(64, 8), std::bad_alloc);
  } else {
    EXPECT_NE(arena.alloc_bytes(64, 8), nullptr);
  }
}

void scenario_journal_write(bool fire) {
  const std::string path = temp_path("journal_write");
  {
    auto w = journal::Writer::create(path);
    ASSERT_TRUE(w.ok());
    if (fire) fault::arm("journal.write", 1);
    const Status st = w->append("payload");
    if (fire) {
      ASSERT_FALSE(st.ok());
      EXPECT_EQ(st.code(), StatusCode::kDataLoss);
    } else {
      EXPECT_TRUE(st.ok()) << st.to_string();
    }
  }
  std::remove(path.c_str());
}

void scenario_journal_read(bool fire) {
  const std::string path = temp_path("journal_read");
  {
    auto w = journal::Writer::create(path);
    ASSERT_TRUE(w.ok());
    ASSERT_TRUE(w->append("payload").ok());
  }
  if (fire) fault::arm("journal.read", 1);
  const auto r = journal::read_records(path);
  ASSERT_TRUE(r.ok()) << r.status().to_string();
  EXPECT_EQ(r->tail_truncated, fire);
  EXPECT_EQ(r->records.size(), fire ? 0u : 1u);
  std::remove(path.c_str());
}

const std::map<std::string, Scenario>& scenario_table() {
  static const std::map<std::string, Scenario> table = {
      {"trace.lower", scenario_trace_lower},
      {"queuing.nan", [](bool f) { scenario_queuing("queuing.nan", f); }},
      {"queuing.saturate",
       [](bool f) { scenario_queuing("queuing.saturate", f); }},
      {"pool.task", scenario_pool_task},
      {"serve.parse", scenario_serve_parse},
      {"serve.accept", scenario_serve_accept},
      {"arena.alloc", scenario_arena_alloc},
      {"journal.write", scenario_journal_write},
      {"journal.read", scenario_journal_read},
  };
  return table;
}

// Satellite: the table must cover the registry exactly. A new
// GPUHMS_FAULT_POINT site registered in fault::known_sites() without a chaos
// scenario (or a stale scenario for a removed site) fails here by name.
TEST_F(Chaos, EveryKnownFaultSiteHasAScenario) {
  const std::span<const std::string_view> known = fault::known_sites();
  EXPECT_FALSE(known.empty());
  for (const std::string_view site : known)
    EXPECT_EQ(scenario_table().count(std::string(site)), 1u)
        << "fault site '" << site
        << "' is registered but has no chaos scenario in test_chaos.cpp";
  for (const auto& [site, fn] : scenario_table())
    EXPECT_NE(std::find(known.begin(), known.end(), site), known.end())
        << "chaos scenario '" << site
        << "' does not match any registered fault site";
}

TEST_F(Chaos, EverySiteRunsCleanWhenDisarmed) {
  for (const auto& [site, run] : scenario_table()) {
    SCOPED_TRACE(site);
    run(/*fire=*/false);
    EXPECT_EQ(fault::hits(site), 0u) << "disarmed site counted hits";
    fault::disarm_all();
  }
}

TEST_F(Chaos, EverySiteFiresItsDocumentedFailureModeWhenArmed) {
  for (const auto& [site, run] : scenario_table()) {
    SCOPED_TRACE(site);
    run(/*fire=*/true);
    EXPECT_GE(fault::hits(site), 1u)
        << "armed scenario never reached its fault site";
    fault::disarm_all();
  }
}

// --- randomized kill/resume --------------------------------------------------
// The crash model again, but adversarial: SIGKILL at seeded-random byte
// offsets of the checkpoint journal. Every surviving prefix must resume to
// the bit-identical certified result, and the resume watermark must be
// monotone in how much journal survived.
TEST_F(Chaos, RandomizedKillResumeAlwaysReconvergesBitIdentical) {
  const KernelInfo kern = workloads::make_bnb_synth(5);
  const Predictor pred = profiled_predictor(kern);
  SearchOptions options;
  options.checkpoint_interval = 32;
  const SearchResult reference = search_branch_and_bound(pred, options);

  const std::string path = temp_path("kill_resume");
  std::remove(path.c_str());
  {
    const auto full = try_resume_branch_and_bound(pred, options, path);
    ASSERT_TRUE(full.ok()) << full.status().to_string();
  }
  std::ifstream in(path, std::ios::binary);
  const std::string full((std::istreambuf_iterator<char>(in)), {});
  in.close();

  std::mt19937 rng(0xC4A05u);  // seeded: failures replay exactly
  std::vector<std::size_t> cuts;
  std::uniform_int_distribution<std::size_t> dist(journal::kMagic.size(),
                                                  full.size());
  for (int i = 0; i < 32; ++i) cuts.push_back(dist(rng));
  std::sort(cuts.begin(), cuts.end());

  std::uint64_t prev_watermark = 0;
  int resumed = 0;
  for (const std::size_t cut : cuts) {
    SCOPED_TRACE(cut);
    {
      std::ofstream out(path, std::ios::binary | std::ios::trunc);
      out.write(full.data(), static_cast<std::streamsize>(cut));
    }
    ResumeInfo info;
    const auto r = try_resume_branch_and_bound(pred, options, path, &info);
    if (!r.ok()) {
      // Only when the kill predates the first complete record.
      EXPECT_EQ(r.status().code(), StatusCode::kDataLoss);
      continue;
    }
    EXPECT_EQ(r->placement, reference.placement);
    EXPECT_EQ(r->predicted_cycles, reference.predicted_cycles);
    EXPECT_EQ(r->lower_bound, reference.lower_bound);
    EXPECT_EQ(r->optimality_gap, reference.optimality_gap);
    EXPECT_EQ(r->proven_optimal, reference.proven_optimal);
    EXPECT_EQ(r->evaluated, reference.evaluated);
    if (info.resumed) {
      ++resumed;
      // More surviving journal never rewinds the resume point.
      EXPECT_GE(info.resumed_visits, prev_watermark);
      prev_watermark = info.resumed_visits;
    }
  }
  EXPECT_GT(resumed, 4) << "random cuts never exercised a warm resume";
  std::remove(path.c_str());
  std::remove((path + ".tmp").c_str());
}

// --- drain under fire --------------------------------------------------------
// Clients hammer the service through the retrying Client while serve.accept
// faults fire and the service starts draining mid-stream. Invariant: every
// request reaches exactly one final outcome (an ok response with ITS id, or
// a definitive UNAVAILABLE after retries exhausted) — nothing lost, nothing
// misrouted, caches bounded.
TEST_F(Chaos, DrainUnderInjectedShedsLosesNoRequests) {
  serve::ServeOptions options;
  options.prediction_cache_capacity = 32;
  options.kernel_cache_capacity = 4;
  options.idem_cache_capacity = 256;
  serve::PredictionService service{options};

  constexpr int kThreads = 4;
  constexpr int kPerThread = 40;
  constexpr int kDrainAfter = 60;  // begin_drain mid-stream

  std::atomic<int> started{0};
  std::atomic<int> ok_count{0};
  std::atomic<int> shed_count{0};
  std::atomic<int> anomalies{0};

  auto worker = [&](int tid) {
    serve::ClientOptions copt;
    copt.max_attempts = 3;
    copt.sleeper = [](std::uint64_t) {};  // no wall-clock waits
    serve::Client client(
        [&](const std::string& line) -> StatusOr<std::string> {
          return service.handle_line(line);
        },
        copt);
    for (int i = 0; i < kPerThread; ++i) {
      const int seq = started.fetch_add(1, std::memory_order_relaxed);
      if (seq == kDrainAfter) service.begin_drain();
      if (seq % 10 == 3) fault::arm("serve.accept", 1);  // random-ish sheds
      const int id = tid * 1000 + i;
      serve::Json req = serve::Json::object();
      req.set("id", serve::Json(static_cast<double>(id)));
      req.set("op", serve::Json("predict"));
      req.set("benchmark", serve::Json("triad"));
      req.set("placement", serve::Json("G,G,G"));
      const auto resp = client.call(req);
      if (!resp.ok()) {
        // Definitive outcome: shed through all retries (draining).
        if (resp.status().code() == StatusCode::kUnavailable)
          shed_count.fetch_add(1, std::memory_order_relaxed);
        else
          anomalies.fetch_add(1, std::memory_order_relaxed);
        continue;
      }
      const auto parsed = serve::Json::parse(*resp);
      if (!parsed.ok() || parsed->find("id") == nullptr ||
          parsed->find("id")->as_number() != id ||
          parsed->find("ok") == nullptr || !parsed->find("ok")->as_bool()) {
        anomalies.fetch_add(1, std::memory_order_relaxed);  // misrouted/mangled
        continue;
      }
      ok_count.fetch_add(1, std::memory_order_relaxed);
      // The cache bound must hold at every observation point.
      const serve::ServeStats s = service.stats();
      if (s.prediction_cache.size > s.prediction_cache.capacity ||
          s.kernel_cache.size > s.kernel_cache.capacity)
        anomalies.fetch_add(1, std::memory_order_relaxed);
    }
  };

  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) threads.emplace_back(worker, t);
  for (std::thread& t : threads) t.join();

  EXPECT_EQ(anomalies.load(), 0);
  // Exactly one outcome per request, none lost.
  EXPECT_EQ(ok_count.load() + shed_count.load(), kThreads * kPerThread);
  EXPECT_GT(ok_count.load(), 0);    // pre-drain traffic succeeded
  EXPECT_GT(shed_count.load(), 0);  // the drain actually shed traffic
  const serve::ServeStats stats = service.stats();
  EXPECT_EQ(stats.responses, stats.requests);  // service-side: nothing lost
  EXPECT_TRUE(stats.draining);
  EXPECT_GT(stats.shed_draining, 0u);
  EXPECT_EQ(stats.inflight, 0u);
  EXPECT_TRUE(service.drained());
}

}  // namespace
}  // namespace gpuhms
