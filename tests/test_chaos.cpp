// Chaos harness (ctest -L chaos): every registered fault site is exercised
// through its real code path in BOTH modes — armed (the injected failure is
// observed as the documented degraded behavior, never UB) and disarmed (the
// same path runs clean) — plus a drain-under-fire serve run with the
// retrying client and far-future deadlines. The completeness table FAILS
// COMPILATION-OF-INTENT: registering a new fault site without adding a
// scenario here breaks the suite.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <functional>
#include <map>
#include <span>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "common/deadline.hpp"
#include "common/fault_injection.hpp"
#include "common/thread_pool.hpp"
#include "model/search.hpp"
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

const std::map<std::string, Scenario>& scenario_table() {
  static const std::map<std::string, Scenario> table = {
      {"trace.lower", scenario_trace_lower},
      {"queuing.nan", [](bool f) { scenario_queuing("queuing.nan", f); }},
      {"queuing.saturate",
       [](bool f) { scenario_queuing("queuing.saturate", f); }},
      {"pool.task", scenario_pool_task},
      {"serve.parse", scenario_serve_parse},
      {"serve.accept", scenario_serve_accept},
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

// --- far-future deadlines ----------------------------------------------------
// A millisecond deadline too far out for steady_clock must never wrap into an
// already-expired one: the search runs to its proof as if it had none. The
// same holds for the service's watchdog, and for a library caller that sets
// SearchOptions::deadline to the largest duration directly.
TEST_F(Chaos, FarFutureDeadlinesMeanNoDeadline) {
  // 1e12 ms (~32 years) fits; 1e13 ms overflows int64 nanoseconds.
  EXPECT_EQ(deadline_from_ms(1'000'000'000'000ull),
            std::chrono::milliseconds(1'000'000'000'000));
  EXPECT_FALSE(deadline_from_ms(10'000'000'000'000ull).has_value());
  EXPECT_FALSE(deadline_from_ms(~std::uint64_t{0}).has_value());
  for (const std::size_t watchdog_ms : {std::size_t{0}, ~std::size_t{0}}) {
    serve::ServeOptions options;
    options.watchdog_ms = watchdog_ms;
    serve::PredictionService service{options};
    for (const char* deadline_ms : {"1e13", "1e18"}) {
      SCOPED_TRACE(std::string("deadline_ms ") + deadline_ms + ", watchdog " +
                   std::to_string(watchdog_ms));
      const std::string resp = service.handle_line(
          std::string(R"({"id":1,"op":"search","benchmark":"triad",)") +
          R"("algo":"bnb","deadline_ms":)" + deadline_ms + "}");
      const serve::Json r = parse_ok(resp);
      ASSERT_NE(r.find("ok"), nullptr) << resp;
      ASSERT_TRUE(r.find("ok")->as_bool()) << resp;
      EXPECT_TRUE(r.find("proven_optimal")->as_bool()) << resp;
      EXPECT_FALSE(r.find("deadline_hit")->as_bool()) << resp;
      EXPECT_FALSE(r.find("cancelled")->as_bool()) << resp;
    }
  }

  const KernelInfo triad = workloads::make_triad();
  const Predictor pred = profiled_predictor(triad);
  SearchOptions options;
  options.deadline = std::chrono::steady_clock::duration::max();
  const SearchResult bnb = search_branch_and_bound(pred, options);
  EXPECT_TRUE(bnb.proven_optimal);
  EXPECT_FALSE(bnb.deadline_hit);
  const SearchResult exhaustive = search_exhaustive(pred, options);
  EXPECT_EQ(exhaustive.evaluated,
            enumerate_placement_space(triad, pred.arch(), options.cap)
                .placements.size());
  EXPECT_EQ(exhaustive.not_evaluated, 0u);
  EXPECT_FALSE(exhaustive.deadline_hit);
}

}  // namespace
}  // namespace gpuhms
