// nvprof-substitute: the performance events the timing simulator collects.
// Sec. II-B of the paper screens 265 nvprof events down to five; we expose
// the full set our substrate can produce and let the event selector
// (src/tools) do the screening.
#pragma once

#include <cstdint>
#include <map>
#include <string>

#include "common/status.hpp"
#include "dram/gddr.hpp"

namespace gpuhms {

struct ProfileCounters {
  // --- issue pipeline -----------------------------------------------------
  std::uint64_t inst_executed = 0;  // first issues only
  std::uint64_t inst_issued = 0;    // including replays
  std::uint64_t issue_slots = 0;    // slots consumed (== inst_issued, single-issue)
  std::uint64_t inst_integer = 0;   // IAlu executed (addressing lands here)
  std::uint64_t inst_fp32 = 0;
  std::uint64_t inst_fp64 = 0;
  std::uint64_t inst_sfu = 0;
  std::uint64_t ldst_executed = 0;
  std::uint64_t ldst_issued = 0;    // including replays

  // --- replays by cause (Sec. III-B list) ---------------------------------
  std::uint64_t replay_global_divergence = 0;  // (1)
  std::uint64_t replay_const_miss = 0;         // (2)
  std::uint64_t replay_const_divergence = 0;   // (3)
  std::uint64_t replay_shared_conflict = 0;    // (4)
  std::uint64_t replay_double_issue = 0;       // (5)

  std::uint64_t replays_1_4() const {
    return replay_global_divergence + replay_const_miss +
           replay_const_divergence + replay_shared_conflict;
  }
  std::uint64_t replays_total() const {
    return replays_1_4() + replay_double_issue;
  }

  // --- memory system ------------------------------------------------------
  std::uint64_t global_requests = 0;      // warp-level global LD/ST
  std::uint64_t global_transactions = 0;  // 128 B transactions after coalescing
  std::uint64_t l2_transactions = 0;      // reads + writes seen at L2
  std::uint64_t l2_misses = 0;
  std::uint64_t const_requests = 0;
  std::uint64_t const_cache_misses = 0;
  std::uint64_t tex_requests = 0;
  std::uint64_t tex_transactions = 0;
  std::uint64_t tex_cache_misses = 0;
  std::uint64_t shared_requests = 0;
  std::uint64_t shared_bank_conflicts = 0;
  std::uint64_t dram_requests = 0;

  // --- stalls / occupancy ---------------------------------------------------
  std::uint64_t mem_stall_cycles = 0;   // summed over SMs
  std::uint64_t comp_stall_cycles = 0;
  std::uint64_t sync_stall_cycles = 0;
  std::uint64_t busy_issue_cycles = 0;  // slots actually used, summed over SMs
  double warps_per_sm = 0.0;            // resident occupancy
  std::uint64_t total_warps = 0;
  int active_sms = 0;

  // Named export for the cosine-similarity event screening.
  std::map<std::string, double> as_event_map() const;
};

struct SimResult {
  std::uint64_t cycles = 0;  // kernel execution time
  ProfileCounters counters;
  DramStats dram;
};

// Checks a (possibly externally supplied) sample measurement before the
// predictor calibrates on it: the anchoring and replay math require a
// nonzero kernel time, a nonzero warp count, and issue counters that are
// mutually consistent (issued = executed + replays). Returns
// INVALID_ARGUMENT naming the offending counter.
Status validate(const SimResult& result);

}  // namespace gpuhms
