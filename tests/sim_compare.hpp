// Bit-for-bit comparisons of simulator results and trace analyses, shared by
// the tests that hold two runs of one placement to each other (a run against
// a pinned digest, a skeleton-fed run against a plain one, one recording
// against another).
#pragma once

#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/hashing.hpp"
#include "model/trace_analysis.hpp"
#include "sim/simulator.hpp"

namespace gpuhms::testutil {

inline bool same_bits(double a, double b) {
  return std::memcmp(&a, &b, sizeof a) == 0;
}

// FNV-1a over every SimResult field (the cycle count, every ProfileCounters
// field, every per-bank DramStats field) plus the raw per-bank inter-arrival
// samples.
inline void mix_result(Fnv1a& h, const SimResult& r,
                       const std::vector<std::vector<std::uint64_t>>& samples) {
  const ProfileCounters& c = r.counters;
  h.mix(r.cycles);
  for (std::uint64_t v :
       {c.inst_executed, c.inst_issued, c.issue_slots, c.inst_integer,
        c.inst_fp32, c.inst_fp64, c.inst_sfu, c.ldst_executed, c.ldst_issued,
        c.replay_global_divergence, c.replay_const_miss,
        c.replay_const_divergence, c.replay_shared_conflict,
        c.replay_double_issue, c.global_requests, c.global_transactions,
        c.l2_transactions, c.l2_misses, c.const_requests,
        c.const_cache_misses, c.tex_requests, c.tex_transactions,
        c.tex_cache_misses, c.shared_requests, c.shared_bank_conflicts,
        c.dram_requests, c.mem_stall_cycles, c.comp_stall_cycles,
        c.busy_issue_cycles, c.total_warps})
    h.mix(v);
  h.mix(c.warps_per_sm);
  h.mix(c.active_sms);
  h.mix(r.dram.banks.size());
  for (const BankStats& b : r.dram.banks) {
    h.mix(b.arrivals).mix(b.row_hits).mix(b.row_misses).mix(b.row_conflicts);
    h.mix(b.queue_delay_sum).mix(b.busy_cycles);
    h.mix(b.interarrival.count()).mix(b.interarrival.mean());
    h.mix(b.interarrival.variance());
  }
  h.mix(r.dram.total_requests).mix(r.dram.latency_sum);
  h.mix(samples.size());
  for (const auto& bank : samples) {
    h.mix(bank.size());
    for (std::uint64_t v : bank) h.mix(v);
  }
}

// Every PlacementEvents field equal, doubles bit for bit.
inline void expect_events_identical(const PlacementEvents& a,
                                    const PlacementEvents& b) {
  EXPECT_EQ(a.insts_executed, b.insts_executed);
  EXPECT_EQ(a.addr_calc_insts, b.addr_calc_insts);
  EXPECT_EQ(a.mem_insts, b.mem_insts);
  EXPECT_EQ(a.load_insts, b.load_insts);
  EXPECT_EQ(a.sync_insts, b.sync_insts);
  EXPECT_EQ(a.replay_global_divergence, b.replay_global_divergence);
  EXPECT_EQ(a.replay_const_miss, b.replay_const_miss);
  EXPECT_EQ(a.replay_const_divergence, b.replay_const_divergence);
  EXPECT_EQ(a.replay_shared_conflict, b.replay_shared_conflict);
  EXPECT_EQ(a.global_requests, b.global_requests);
  EXPECT_EQ(a.global_transactions, b.global_transactions);
  EXPECT_EQ(a.l2_transactions, b.l2_transactions);
  EXPECT_EQ(a.l2_misses, b.l2_misses);
  EXPECT_EQ(a.const_requests, b.const_requests);
  EXPECT_EQ(a.const_misses, b.const_misses);
  EXPECT_EQ(a.tex_requests, b.tex_requests);
  EXPECT_EQ(a.tex_transactions, b.tex_transactions);
  EXPECT_EQ(a.tex_misses, b.tex_misses);
  EXPECT_EQ(a.shared_requests, b.shared_requests);
  EXPECT_EQ(a.shared_conflicts, b.shared_conflicts);
  EXPECT_EQ(a.dram_requests, b.dram_requests);
  EXPECT_EQ(a.row_hits, b.row_hits);
  EXPECT_EQ(a.row_misses, b.row_misses);
  EXPECT_EQ(a.row_conflicts, b.row_conflicts);
  EXPECT_EQ(a.offchip_load_transactions, b.offchip_load_transactions);
  EXPECT_EQ(a.shared_load_requests, b.shared_load_requests);
  EXPECT_EQ(a.dram_load_requests, b.dram_load_requests);
  EXPECT_EQ(a.trace_ticks, b.trace_ticks);
  EXPECT_TRUE(same_bits(a.ilp, b.ilp)) << a.ilp << " vs " << b.ilp;
  EXPECT_TRUE(same_bits(a.mlp, b.mlp)) << a.mlp << " vs " << b.mlp;
  EXPECT_TRUE(same_bits(a.warps_per_sm, b.warps_per_sm));
  ASSERT_EQ(a.banks.size(), b.banks.size());
  for (std::size_t i = 0; i < a.banks.size(); ++i) {
    SCOPED_TRACE("bank " + std::to_string(i));
    EXPECT_EQ(a.banks[i].count, b.banks[i].count);
    EXPECT_EQ(a.banks[i].interarrival.count(), b.banks[i].interarrival.count());
    EXPECT_TRUE(same_bits(a.banks[i].interarrival.mean(),
                          b.banks[i].interarrival.mean()));
    EXPECT_TRUE(same_bits(a.banks[i].interarrival.variance(),
                          b.banks[i].interarrival.variance()));
    EXPECT_EQ(a.banks[i].service.count(), b.banks[i].service.count());
    EXPECT_TRUE(
        same_bits(a.banks[i].service.mean(), b.banks[i].service.mean()));
    EXPECT_TRUE(same_bits(a.banks[i].service.variance(),
                          b.banks[i].service.variance()));
  }
}

}  // namespace gpuhms::testutil
