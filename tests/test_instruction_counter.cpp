#include "model/instruction_counter.hpp"

#include <gtest/gtest.h>

namespace gpuhms {
namespace {

ProfileCounters sample_profile() {
  ProfileCounters c;
  c.inst_executed = 10000;
  c.replay_global_divergence = 300;
  c.replay_shared_conflict = 0;
  c.replay_const_miss = 0;
  c.replay_const_divergence = 0;
  c.replay_double_issue = 50;
  c.total_warps = 100;
  return c;
}

PlacementEvents events(std::uint64_t execd, std::uint64_t g_div,
                       std::uint64_t s_conf = 0) {
  PlacementEvents ev;
  ev.insts_executed = execd;
  ev.replay_global_divergence = g_div;
  ev.replay_shared_conflict = s_conf;
  return ev;
}

TEST(InstructionCounter, IdenticalPlacementsReproduceMeasurement) {
  const auto c = sample_profile();
  const auto ev = events(10000, 300);
  const auto e = estimate_issued_instructions(c, ev, ev);
  EXPECT_DOUBLE_EQ(e.executed_total, 10000.0);
  EXPECT_DOUBLE_EQ(e.replays_total, 350.0);  // measured incl. cause 5
  EXPECT_DOUBLE_EQ(e.issued_total, 10350.0);
  EXPECT_DOUBLE_EQ(e.issued_per_warp, 103.5);
}

TEST(InstructionCounter, AddressingDeltaApplied) {
  const auto c = sample_profile();
  // Target saves 2000 addressing instructions (e.g. G -> 1D texture).
  const auto e = estimate_issued_instructions(c, events(10000, 300),
                                              events(8000, 300));
  EXPECT_DOUBLE_EQ(e.executed_total, 8000.0);
  EXPECT_DOUBLE_EQ(e.addr_mode_delta, -2000.0);
  EXPECT_DOUBLE_EQ(e.replays_total, 350.0);
}

TEST(InstructionCounter, ReplaySwapPerEquation3) {
  const auto c = sample_profile();
  // Target trades 300 global-divergence replays for 120 bank conflicts.
  const auto e = estimate_issued_instructions(c, events(10000, 300),
                                              events(10000, 0, 120));
  // replays = 350 (measured) - 300 (sample 1-4) + 120 (target 1-4) = 170.
  EXPECT_DOUBLE_EQ(e.replays_total, 170.0);
  EXPECT_DOUBLE_EQ(e.replay_delta, -180.0);
  EXPECT_DOUBLE_EQ(e.issued_total, 10170.0);
}

TEST(InstructionCounter, Cause5ReplaysAreInvariant) {
  // Even when causes 1-4 vanish in the target, the measured double-issue
  // replays (cause 5) survive the swap.
  const auto c = sample_profile();
  const auto e = estimate_issued_instructions(c, events(10000, 300),
                                              events(10000, 0));
  EXPECT_DOUBLE_EQ(e.replays_total, 50.0);
}

TEST(InstructionCounter, DetailedCountingOffFreezesSample) {
  const auto c = sample_profile();
  ModelOptions opts;
  opts.detailed_instruction_counting = false;
  const auto e = estimate_issued_instructions(c, events(10000, 300),
                                              events(42, 9999), opts);
  EXPECT_DOUBLE_EQ(e.issued_total, 10350.0);
  EXPECT_DOUBLE_EQ(e.addr_mode_delta, 0.0);
}

TEST(InstructionCounter, NeverGoesNegative) {
  const auto c = sample_profile();
  // Pathological deltas larger than the measurement clamp at zero.
  const auto e = estimate_issued_instructions(c, events(50000, 5000),
                                              events(10, 0));
  EXPECT_GE(e.executed_total, 0.0);
  EXPECT_GE(e.replays_total, 0.0);
}

}  // namespace
}  // namespace gpuhms
