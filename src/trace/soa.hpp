// Data-oriented (struct-of-arrays) lowering of the memoized trace skeleton.
//
// Walking every expanded warp instruction of a candidate's trace costs far
// more than the model needs, because almost all of that stream is
// placement-invariant. This engine exploits the invariance structure instead:
//
//   * compute runs, syncs and addressing inserts never materialize — their
//     counts fold into per-warp totals and the pc arithmetic of the few ops
//     that do (see TraceSkeleton::MemRecord);
//   * coalesced line lists and constant-divergence word counts are memoized
//     per (array, layout) in the skeleton — device allocations are
//     placement-fixed, so they are shared by every candidate of a search —
//     and bound per candidate by TraceMaterializer::bind, as in the
//     simulator;
//   * shared-memory ops fold away entirely: their bank-conflict degrees are
//     placement-invariant (TraceSkeleton::SharedFold), so a shared-placed
//     array costs three counter adds per *candidate*, not per op;
//   * the staging preamble that copies a shared-placed array in is
//     memoized too (a PlacedArray's copy-in tables): bind() folds its
//     order-free counters per staged array, and lower_wave emits only its
//     off-chip copy-in loads, at pcs computed in closed form;
//   * the round-robin schedule's issue tick of every surviving record is
//     computed in closed form from the per-warp op counts (an alive-warp
//     prefix sum plus, only once an earlier warp can have retired, a Fenwick
//     rank over finish rounds) — no per-round scan;
//   * records are written once, straight into issue order: a first walk
//     over the warps' records sums the order-free counters and a histogram
//     of issue positions (pc, a record's round in its warp's op stream),
//     which gives every record its counting-sort slot; a second walk over
//     the same records recomputes each pc and writes the record, 16 bytes
//     (SoaRecord), into its slot. That is all the per-record scratch.
//
// What remains per candidate is a flat, branch-light pass over the off-chip
// memory records only; the stateful cache/row-buffer walk consumes the
// resulting SoaWave in issue order and is guaranteed to observe the same
// (line, tick, sm, is_store) sequence the full walk over the lowered trace
// produces (TraceAnalyzer::analyze without a skeleton), which is what makes
// the two bit-identical.
//
// A wave's scratch is five arrays (per-warp op counts, the round table, the
// pc histogram that becomes the slot cursors, the Fenwick tree and the
// records), each a member vector that grows only when a wave needs more room
// than every earlier one: once the largest wave has been lowered, lowering
// performs zero heap allocations.
#pragma once

#include <cstdint>
#include <vector>

#include "trace/generator.hpp"

namespace gpuhms {

// One off-chip memory record of a scheduled wave.
struct SoaRecord {
  const std::uint64_t* lines;  // coalesced line list
  std::uint32_t tick;          // rr-schedule issue tick minus the wave's base
  std::uint16_t sm;            // SM owning the warp's block
  std::uint8_t lines_n;        // at most one line per lane
  std::uint8_t space_store;    // MemSpace, plus kStoreBit for a store

  static constexpr std::uint8_t kStoreBit = 0x80;
  MemSpace space() const {
    return static_cast<MemSpace>(space_store & ~kStoreBit);
  }
  bool is_store() const { return (space_store & kStoreBit) != 0; }
};
static_assert(sizeof(SoaRecord) == 16);

// One resident wave, lowered and scheduled: its off-chip memory records in
// issue (tick) order. `rec` points into the engine's scratch and stays valid
// until the next lower_wave call.
struct SoaWave {
  std::size_t mem_n = 0;
  const SoaRecord* rec = nullptr;
  std::uint64_t tick_base = 0;  // a record's issue tick is tick_base + tick
  std::uint64_t ops = 0;        // expanded op count of the wave (tick span)
};

// Candidate-level counters accumulated analytically by bind()/lower_wave(),
// mirroring what the full walk's rr_schedule/mem_op pair tallies op by op.
struct SoaTallies {
  std::uint64_t insts_executed = 0;
  std::uint64_t addr_calc_insts = 0;
  std::uint64_t mem_insts = 0;
  std::uint64_t load_insts = 0;
  std::uint64_t sync_insts = 0;
  std::uint64_t dep_breaks = 0;
  std::uint64_t mem_chain_breaks = 0;
  std::uint64_t global_requests = 0;
  std::uint64_t global_transactions = 0;
  std::uint64_t replay_global_divergence = 0;
  std::uint64_t tex_requests = 0;
  std::uint64_t tex_transactions = 0;
  std::uint64_t const_requests = 0;
  std::uint64_t replay_const_divergence = 0;
  std::uint64_t offchip_load_transactions = 0;
  std::uint64_t shared_requests = 0;
  std::uint64_t shared_load_requests = 0;
  std::uint64_t shared_conflicts = 0;
};

class SoaLowering {
 public:
  // Binds the placement's tables (TraceMaterializer::bind, which CHECKs
  // that `skeleton` was recorded from the materializer's kernel at its
  // arch's cache-line size) and folds every placement-dependent-but-order-free
  // counter. Call once per candidate, before the first lower_wave.
  void bind(const TraceMaterializer& mat, const TraceSkeleton& skeleton,
            const GpuArch& arch);

  // Lowers and schedules blocks [block_begin, block_end). Waves must be
  // visited in order (the issue clock carries across waves).
  SoaWave lower_wave(std::int64_t block_begin, std::int64_t block_end);

  const SoaTallies& tallies() const { return tallies_; }

 private:
  template <class Visit>
  void walk_records(std::size_t gw, Visit&& visit) const;

  const TraceMaterializer* mat_ = nullptr;
  const TraceSkeleton* skeleton_ = nullptr;
  const GpuArch* arch_ = nullptr;
  // lower_wave's scratch, reused across waves and candidates.
  std::vector<std::uint32_t> ns_;    // op count per warp
  std::vector<std::uint64_t> cum_;   // issue ticks before each round
  std::vector<std::uint32_t> slot_;  // pc histogram, then slot cursors
  std::vector<std::uint32_t> fen_;   // Fenwick tree over finish rounds
  std::vector<SoaRecord> rec_;       // the wave's records, in issue order
  SoaTallies tallies_;
  std::uint64_t tick_base_ = 0;
  std::vector<PlacedArray> arrays_;  // the placement's, tables bound
};

}  // namespace gpuhms
