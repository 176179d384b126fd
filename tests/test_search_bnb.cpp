// Branch-and-bound placement search: exactness vs. exhaustive enumeration,
// admissibility of the PlacementBounder, thread-count determinism, and the
// anytime certificate (lower_bound / optimality_gap / proven_optimal).
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <thread>
#include <vector>

#include "arch/arch_registry.hpp"
#include "common/hashing.hpp"
#include "common/obs.hpp"
#include "common/rng.hpp"
#include "model/search.hpp"
#include "test_util.hpp"
#include "workloads/workloads.hpp"

namespace gpuhms {
namespace {

Predictor profiled_predictor(const KernelInfo& k) {
  Predictor pred(k, kepler_arch());
  pred.profile_sample(DataPlacement::defaults(k));
  return pred;
}

SearchOptions uncapped() {
  SearchOptions o;
  o.cap = 1u << 20;  // exhaustive must see the whole space for the bit-match
  return o;
}

// --- exactness ---------------------------------------------------------------

TEST(SearchBnb, MatchesExhaustiveBitForBitOnSeedWorkloads) {
  const std::vector<KernelInfo> kernels = {
      workloads::make_stencil2d(128, 64), workloads::make_vecadd(1 << 12),
      workloads::make_triad(1 << 12), workloads::make_spmv(256, 16)};
  for (const KernelInfo& k : kernels) {
    SCOPED_TRACE(k.name);
    const Predictor pred = profiled_predictor(k);
    const auto ex = search_exhaustive(pred, uncapped());
    ASSERT_FALSE(ex.space_truncated);
    const auto bb = search_branch_and_bound(pred);
    EXPECT_EQ(bb.placement, ex.placement)
        << "bnb: " << bb.placement.to_string()
        << " exhaustive: " << ex.placement.to_string();
    EXPECT_EQ(bb.predicted_cycles, ex.predicted_cycles);  // bit-for-bit
    EXPECT_TRUE(bb.proven_optimal);
    EXPECT_EQ(bb.optimality_gap, 0.0);
    EXPECT_LE(bb.lower_bound, bb.predicted_cycles);
  }
}

TEST(SearchBnb, MatchesExhaustiveOnSyntheticManyArrayKernels) {
  for (int n : {4, 5}) {
    SCOPED_TRACE(n);
    const KernelInfo k = workloads::make_bnb_synth(n);
    const Predictor pred = profiled_predictor(k);
    const auto ex = search_exhaustive(pred, uncapped());
    ASSERT_FALSE(ex.space_truncated);
    const auto bb = search_branch_and_bound(pred);
    EXPECT_EQ(bb.placement, ex.placement);
    EXPECT_EQ(bb.predicted_cycles, ex.predicted_cycles);
    EXPECT_TRUE(bb.proven_optimal);
  }
}

// Every SearchResult field, bit patterns for the doubles.
void mix_result(Fnv1a& h, const SearchResult& r) {
  h.mix(std::string_view(r.placement.to_string()));
  h.mix(r.predicted_cycles).mix(r.evaluated);
  h.mix(r.space_truncated).mix(r.space_skipped);
  h.mix(r.deadline_hit).mix(r.cancelled).mix(r.not_evaluated);
  h.mix(r.lower_bound).mix(r.optimality_gap).mix(r.proven_optimal);
  h.mix(r.nodes_expanded).mix(r.pruned_subtrees).mix(r.incumbent_updates);
}

// The whole grid: every Table IV training and evaluation case, profiled on
// its own sample, on every registered arch. B&B must reach the uncapped
// enumerator's optimum bit for bit and prove it, so no suite kernel needs an
// early stop; every B&B result is pinned in one digest.
TEST(SearchGolden, TableIvEveryArch) {
  const auto start = std::chrono::steady_clock::now();
  std::vector<workloads::BenchmarkCase> cases = workloads::training_suite();
  for (auto& c : workloads::evaluation_suite()) cases.push_back(std::move(c));
  const ArchRegistry& reg = ArchRegistry::builtin();
  Fnv1a h;
  std::size_t searched = 0, max_nodes = 0;
  for (const std::string& arch_name : reg.names()) {
    const GpuArch& arch = reg.find(arch_name)->arch;
    for (const workloads::BenchmarkCase& c : cases) {
      if (validate_placement(c.kernel, c.sample, arch)) continue;
      SCOPED_TRACE(c.name + " on " + arch_name);
      Predictor pred(c.kernel, arch);
      pred.profile_sample(c.sample);
      const auto ex = search_exhaustive(pred, uncapped());
      ASSERT_FALSE(ex.space_truncated);
      const auto bb = search_branch_and_bound(pred);
      EXPECT_EQ(bb.placement, ex.placement)
          << "bnb: " << bb.placement.to_string()
          << " exhaustive: " << ex.placement.to_string();
      EXPECT_EQ(bb.predicted_cycles, ex.predicted_cycles);  // bit-for-bit
      EXPECT_TRUE(bb.proven_optimal);
      EXPECT_EQ(bb.optimality_gap, 0.0);
      mix_result(h, bb);
      max_nodes = std::max(max_nodes, bb.nodes_expanded);
      ++searched;
    }
  }
  const double wall_s = std::chrono::duration<double>(
                            std::chrono::steady_clock::now() - start)
                            .count();
  std::printf("table iv grid: %zu searches, max nodes_expanded %zu, %.1f s\n",
              searched, max_nodes, wall_s);
  EXPECT_EQ(searched, 68u);
  EXPECT_EQ(h.digest(), 0x52ecf212293c4b07ull);
}

TEST(SearchBnb, ReturnsLegalPlacement) {
  const KernelInfo k = workloads::make_bnb_synth(5);
  const Predictor pred = profiled_predictor(k);
  const auto bb = search_branch_and_bound(pred);
  EXPECT_FALSE(validate_placement(k, bb.placement, kepler_arch()).has_value());
}

// --- determinism -------------------------------------------------------------

TEST(SearchBnb, DeterministicAcrossThreadCounts) {
  const KernelInfo k = workloads::make_bnb_synth(6);
  const Predictor pred = profiled_predictor(k);
  SearchOptions base;
  base.num_threads = 1;
  const auto ref = search_branch_and_bound(pred, base);
  for (int threads : {4, 16}) {
    SCOPED_TRACE(threads);
    SearchOptions o;
    o.num_threads = threads;
    const auto r = search_branch_and_bound(pred, o);
    EXPECT_EQ(r.placement, ref.placement);
    EXPECT_EQ(r.predicted_cycles, ref.predicted_cycles);
    EXPECT_EQ(r.evaluated, ref.evaluated);
    EXPECT_EQ(r.nodes_expanded, ref.nodes_expanded);
    EXPECT_EQ(r.pruned_subtrees, ref.pruned_subtrees);
    EXPECT_EQ(r.incumbent_updates, ref.incumbent_updates);
    EXPECT_EQ(r.lower_bound, ref.lower_bound);
  }
}

TEST(SearchBnb, DeterministicAcrossGpuhmsThreadsEnv) {
  const KernelInfo k = workloads::make_bnb_synth(5);
  const Predictor pred = profiled_predictor(k);
  SearchResult ref;
  {
    testutil::ScopedEnv env("GPUHMS_THREADS", "1");
    ref = search_branch_and_bound(pred);
  }
  for (const char* threads : {"4", "16"}) {
    SCOPED_TRACE(threads);
    testutil::ScopedEnv env("GPUHMS_THREADS", threads);
    const auto r = search_branch_and_bound(pred);
    EXPECT_EQ(r.placement, ref.placement);
    EXPECT_EQ(r.predicted_cycles, ref.predicted_cycles);
    EXPECT_EQ(r.nodes_expanded, ref.nodes_expanded);
    EXPECT_EQ(r.pruned_subtrees, ref.pruned_subtrees);
  }
}

// --- admissibility (the property test of the bound) --------------------------

TEST(SearchBnb, BoundNeverExceedsFullPredictionOnRandomPlacements) {
  const KernelInfo k = workloads::make_spmv(256, 16);
  Predictor pred(k, kepler_arch());
  pred.profile_sample(DataPlacement::defaults(k));
  const PlacementBounder bounder = pred.make_bounder();
  ASSERT_FALSE(bounder.infeasible());

  const std::size_t n = k.arrays.size();
  Rng rng(0x5eed);
  int checked = 0;
  for (int iter = 0; iter < 1000; ++iter) {
    // Random placement drawn from the per-array relaxed sets...
    DataPlacement p(std::vector<MemSpace>(n, MemSpace::Global));
    for (std::size_t a = 0; a < n; ++a) {
      const auto spaces = bounder.relaxed_spaces(a);
      p.set(static_cast<int>(a),
            spaces[static_cast<std::size_t>(rng.next_below(spaces.size()))]);
    }
    // ...kept only when jointly legal (capacity interactions).
    if (validate_placement(k, p, kepler_arch()).has_value()) continue;
    ++checked;

    // The bound of any partial prefix of p (arrays [0, depth) pinned, the
    // rest relaxed to their minimum) must not exceed the full prediction of
    // p — p is one legal completion of that prefix.
    const double full = pred.predict(p).total_cycles;
    const std::size_t depth = rng.next_below(n + 1);
    double addr_total = 0.0;
    for (std::size_t a = 0; a < n; ++a) {
      addr_total += a < depth ? bounder.addr_insts(a, p.of(static_cast<int>(a)))
                              : bounder.min_addr_insts(a);
    }
    EXPECT_LE(bounder.bound_cycles(addr_total), full + 1e-6)
        << p.to_string() << " depth " << depth;
  }
  EXPECT_GT(checked, 100);  // the rejection sampling actually sampled
}

TEST(SearchBnb, RootBoundBelowEveryLegalPlacement) {
  const KernelInfo k = workloads::make_stencil2d(128, 64);
  Predictor pred(k, kepler_arch());
  pred.profile_sample(DataPlacement::defaults(k));
  const PlacementBounder bounder = pred.make_bounder();
  const double root = bounder.bound_cycles(bounder.root_addr_insts());
  for (const auto& p : enumerate_placements(k, kepler_arch())) {
    EXPECT_LE(root, pred.predict(p).total_cycles + 1e-6) << p.to_string();
  }
}

// --- anytime certificate -----------------------------------------------------

TEST(SearchBnb, GapNonNegativeAndZeroOnCompletion) {
  // Big enough that the full walk outlasts the smallest deadline rung below.
  const KernelInfo k = workloads::make_bnb_synth(8);
  const Predictor pred = profiled_predictor(k);

  const auto done = search_branch_and_bound(pred);
  EXPECT_TRUE(done.proven_optimal);
  EXPECT_EQ(done.optimality_gap, 0.0);
  EXPECT_EQ(done.lower_bound, done.predicted_cycles);

  // Every stopped run must carry a sound certificate.
  const auto expect_sound = [&](const SearchResult& stopped) {
    EXPECT_FALSE(stopped.proven_optimal);
    EXPECT_GE(stopped.optimality_gap, 0.0);
    EXPECT_LE(stopped.lower_bound, stopped.predicted_cycles + 1e-9);
    // The certificate is sound: the true optimum lies above the bound.
    EXPECT_LE(stopped.lower_bound, done.predicted_cycles + 1e-9);
    // And the anytime incumbent is a real, legal placement.
    EXPECT_FALSE(
        validate_placement(k, stopped.placement, kepler_arch()).has_value());
  };

  // Stop the walk with a doubling ladder of deadlines, up to the first rung
  // the walk finishes inside. Where a rung stops depends on the machine's
  // speed: short rungs stop inside the greedy seed.
  for (int ms = 1; ms <= 1 << 16; ms *= 2) {
    SCOPED_TRACE(ms);
    SearchOptions o;
    o.deadline = std::chrono::milliseconds(ms);
    const auto stopped = search_branch_and_bound(pred, o);
    if (!stopped.deadline_hit) {
      EXPECT_TRUE(stopped.proven_optimal);  // finished inside the budget
      break;
    }
    expect_sound(stopped);
  }

  // A stop inside the tree, whatever the machine's speed: a watcher fires
  // the token once the walk has scored its first leaf chunk.
  const bool was = obs::metrics_active();
  obs::set_enabled(true);
  obs::reset_all_metrics();
  const auto chunks = [] {
    const obs::MetricsSnapshot s = obs::snapshot();
    const auto* c = s.find_counter("search.chunks");
    return c == nullptr ? std::uint64_t{0} : c->value;
  };
  std::atomic<bool> cancel{false};
  std::thread watcher([&] {
    while (chunks() < 1)
      std::this_thread::sleep_for(std::chrono::microseconds(200));
    cancel.store(true);
  });
  SearchOptions o;
  o.num_threads = 1;
  o.cancel = &cancel;
  const SearchResult stopped = search_branch_and_bound(pred, o);
  watcher.join();
  obs::reset_all_metrics();
  obs::set_enabled(was);

  ASSERT_TRUE(stopped.cancelled) << "the walk finished before the token fired";
  const bool stopped_inside = stopped.nodes_expanded > 0 &&
                              stopped.nodes_expanded < done.nodes_expanded;
  EXPECT_TRUE(stopped_inside) << "the stop did not land inside the tree";
  expect_sound(stopped);
}

TEST(SearchBnb, ExpiredDeadlineStillReturnsFeasibleIncumbent) {
  const KernelInfo k = workloads::make_bnb_synth(6);
  const Predictor pred = profiled_predictor(k);
  SearchOptions o;
  o.deadline = std::chrono::milliseconds(0);
  const auto r = search_branch_and_bound(pred, o);
  EXPECT_TRUE(r.deadline_hit);
  EXPECT_FALSE(r.proven_optimal);
  // The seed scores the sample and then honours the deadline: no further
  // candidate, no tree walk.
  EXPECT_EQ(r.evaluated, 1u);
  EXPECT_EQ(r.placement, pred.sample_placement());
  EXPECT_EQ(r.nodes_expanded, 0u);
  EXPECT_GT(r.predicted_cycles, 0.0);
  EXPECT_GE(r.optimality_gap, 0.0);
  EXPECT_FALSE(validate_placement(k, r.placement, kepler_arch()).has_value());
}

TEST(SearchBnb, CancelTokenStopsTheWalk) {
  const KernelInfo k = workloads::make_bnb_synth(6);
  const Predictor pred = profiled_predictor(k);
  std::atomic<bool> cancel{true};
  SearchOptions o;
  o.cancel = &cancel;
  const auto r = search_branch_and_bound(pred, o);
  EXPECT_TRUE(r.cancelled);
  EXPECT_FALSE(r.proven_optimal);
  // A pre-fired token stops the seed after the sample, as a deadline does.
  EXPECT_EQ(r.evaluated, 1u);
  EXPECT_EQ(r.placement, pred.sample_placement());
  EXPECT_EQ(r.nodes_expanded, 0u);
}

// The walk reads the stop watch before it scores each leaf chunk, and on a
// stop drops the buffered leaves unscored, folding their bounds into the
// certificate: once a stop is observed, at most the chunk already in
// flight gets scored. A watcher fires the token once two chunks have been
// scored, then reads the chunk count; at most one more chunk may follow.
// bnb_synth(7) on fermi walks about nine chunks when left alone.
TEST(SearchBnb, StopScoresAtMostTheChunkInFlight) {
  const KernelInfo k = workloads::make_bnb_synth(7);
  const GpuArch& fermi = ArchRegistry::builtin().find("fermi")->arch;
  Predictor pred(k, fermi);
  ASSERT_TRUE(pred.try_profile_sample(DataPlacement::defaults(k)).ok());
  SearchOptions o;
  o.num_threads = 1;
  // The uninterrupted walk's proven optimum is the enumerator's (the
  // exactness tests above check B&B against it bit for bit).
  const SearchResult done = search_branch_and_bound(pred, o);
  ASSERT_TRUE(done.proven_optimal);

  const bool was = obs::metrics_active();
  obs::set_enabled(true);
  obs::reset_all_metrics();
  const auto chunks = [] {
    const obs::MetricsSnapshot s = obs::snapshot();
    const auto* c = s.find_counter("search.chunks");
    return c == nullptr ? std::uint64_t{0} : c->value;
  };
  std::atomic<bool> cancel{false};
  std::uint64_t chunks_at_stop = 0;
  std::thread watcher([&] {
    while (chunks() < 2)
      std::this_thread::sleep_for(std::chrono::microseconds(200));
    cancel.store(true);
    chunks_at_stop = chunks();
  });
  o.cancel = &cancel;
  const SearchResult r = search_branch_and_bound(pred, o);
  watcher.join();
  const std::uint64_t scored = chunks();
  obs::reset_all_metrics();
  obs::set_enabled(was);

  ASSERT_TRUE(r.cancelled) << "the walk finished before the token fired";
  EXPECT_FALSE(r.proven_optimal);
  EXPECT_LE(scored, chunks_at_stop + 1);
  EXPECT_LT(r.evaluated, done.evaluated);
  // The certificate stays sound with the dropped leaves folded in.
  EXPECT_LE(r.lower_bound, done.predicted_cycles);
  EXPECT_LE(r.lower_bound, r.predicted_cycles);
  EXPECT_FALSE(validate_placement(k, r.placement, fermi).has_value());
}

// --- error contract ----------------------------------------------------------

TEST(SearchBnb, TryVariantRejectsUnprofiledPredictor) {
  const KernelInfo k = workloads::make_vecadd(1 << 12);
  const Predictor pred(k, kepler_arch());
  const auto r = try_search(pred, SearchAlgo::kBnb);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kFailedPrecondition);
}

}  // namespace
}  // namespace gpuhms
