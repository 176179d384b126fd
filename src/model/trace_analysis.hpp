// Model-side trace analysis (Sec. IV of the paper).
//
// Replays the materialized trace of a (kernel, placement) pair through
// GPGPU-Sim-style cache models and a row-buffer state machine — *without*
// timing — to produce everything the analytical models need:
//   * executed-instruction and addressing-instruction counts (Sec. III-B),
//   * replay counts for causes (1)-(4) (Eq. 3),
//   * per-space request/miss events (T_overlap features, Eq. 11),
//   * per-bank arrival and service statistics for the G/G/1 queuing model
//     (Sec. III-C3) — inter-arrival times measured on an instruction-slot
//     clock, as the paper approximates, and service times classified by
//     row-buffer outcome (Eq. 8),
//   * ILP / MLP estimates for the Appendix equations (Eq. 13-19).
//
// Warps are interleaved round-robin within resident waves that mirror the
// simulator's block-to-SM assignment, so the arrival process seen by the
// banks approximates the hardware interleaving.
#pragma once

#include <vector>

#include "cache/cache.hpp"
#include "common/stats.hpp"
#include "dram/address_mapping.hpp"
#include "model/model_options.hpp"
#include "sim/counters.hpp"
#include "trace/generator.hpp"
#include "trace/soa.hpp"

namespace gpuhms {

struct BankStream {
  RunningStat interarrival;  // instruction-slot clock deltas
  RunningStat service;       // cycles, from row-buffer classification
  std::uint64_t count = 0;
};

struct PlacementEvents {
  // --- instruction profile (totals over the whole kernel) ------------------
  std::uint64_t insts_executed = 0;   // all lowered warp instructions
  std::uint64_t addr_calc_insts = 0;  // addressing-mode IALUs (Sec. III-B)
  std::uint64_t mem_insts = 0;        // warp-level loads+stores
  std::uint64_t load_insts = 0;       // warp-level loads (latency-bound)
  std::uint64_t sync_insts = 0;

  // --- replay estimates, causes (1)-(4) ------------------------------------
  std::uint64_t replay_global_divergence = 0;
  std::uint64_t replay_const_miss = 0;
  std::uint64_t replay_const_divergence = 0;
  std::uint64_t replay_shared_conflict = 0;
  std::uint64_t replays_1_4() const {
    return replay_global_divergence + replay_const_miss +
           replay_const_divergence + replay_shared_conflict;
  }

  // --- per-space memory events ---------------------------------------------
  std::uint64_t global_requests = 0, global_transactions = 0;
  std::uint64_t l2_transactions = 0, l2_misses = 0;
  std::uint64_t const_requests = 0, const_misses = 0;
  std::uint64_t tex_requests = 0, tex_transactions = 0, tex_misses = 0;
  std::uint64_t shared_requests = 0, shared_conflicts = 0;
  std::uint64_t dram_requests = 0;
  std::uint64_t row_hits = 0, row_misses = 0, row_conflicts = 0;
  // Load-side splits: the substrate's stores retire through write buffers
  // without stalling warps, so T_mem's effective-request count and AMAT mix
  // are computed over loads (stores still load the banks and queues).
  std::uint64_t offchip_load_transactions = 0;
  std::uint64_t shared_load_requests = 0;
  std::uint64_t dram_load_requests = 0;

  // --- queuing inputs -------------------------------------------------------
  std::vector<BankStream> banks;
  std::uint64_t trace_ticks = 0;  // total instruction-slot clock span

  // --- parallelism estimates ------------------------------------------------
  double ilp = 1.0;  // independent-run length of the instruction stream
  double mlp = 1.0;  // consecutive outstanding memory requests per warp
  // Resident warps per SM under THIS placement (occupancy: shared-memory
  // staging can shrink it) — the `w` term of Eq. 11 and the N of Eq. 14/18.
  double warps_per_sm = 1.0;

  // Total off-chip + shared warp-level requests; denominator for the
  // event-ratio features of Eq. 11.
  double total_mem_events() const {
    return static_cast<double>(global_transactions + const_requests +
                               tex_requests + shared_requests);
  }

  double offchip_transactions() const {
    return static_cast<double>(global_transactions + tex_transactions +
                               const_requests);
  }
};

// Reusable trace-replay engine: one instance owns the cache models, the
// row-buffer state and the coalescing scratch, and analyzes any number of
// placements of one kernel without reallocating them (the per-candidate hot
// path of a placement search). Instances are NOT thread-safe — give each
// worker thread its own analyzer; the (optional) TraceSkeleton is immutable
// and can be shared by all of them. Of the options it reads only
// address_mapping.
class TraceAnalyzer {
 public:
  TraceAnalyzer(const KernelInfo& kernel, const GpuArch& arch,
                const ModelOptions& options = {});

  // Replays the (kernel, placement) trace in analysis order. With a
  // skeleton (recorded from this analyzer's kernel for an arch of its
  // cache-line size, which the call CHECKs; any foldable bank count) the
  // data-oriented SoA engine answers; without one, a skeleton is recorded
  // for the call and every lowered op is walked, coalescing from its lane
  // addresses — the reference the SoA engine is tested against, bit for
  // bit.
  PlacementEvents analyze(const DataPlacement& placement,
                          const TraceSkeleton* skeleton = nullptr);

  const KernelInfo& kernel() const { return *kernel_; }

 private:
  struct BankRow {
    std::uint64_t open_row = 0;
    bool row_open = false;
    std::uint64_t last_tick = 0;
    bool seen = false;
  };

  void reset();
  void dram_request(std::uint64_t line_addr, bool is_store);
  void mem_op(const TraceOp& op, int sm);
  void rr_schedule(const std::vector<WarpTrace>& traces);
  void run(const TraceMaterializer& mat);
  void run_soa(const TraceMaterializer& mat, const TraceSkeleton& skeleton);

  const KernelInfo* kernel_;
  const GpuArch* arch_;
  bool address_mapping_;
  AddressMapping mapping_;
  SetAssocCache l2_;
  std::vector<SetAssocCache> const_caches_;  // one per SM
  std::vector<SetAssocCache> tex_caches_;
  std::vector<BankRow> rows_;
  std::vector<std::uint64_t> lines_;  // coalescing scratch
  std::vector<WarpTrace> wave_;       // the full walk's reused wave buffer
  SoaLowering soa_;                   // data-oriented replay engine
  PlacementEvents ev_;
  std::uint64_t tick_ = 0;
  std::uint64_t rr_bank_ = 0;
  std::uint64_t dep_breaks_ = 0;        // ops consuming their predecessor
  std::uint64_t mem_chain_breaks_ = 0;  // mem ops followed by a dependent op
};

PlacementEvents analyze_trace(const KernelInfo& kernel,
                              const DataPlacement& placement,
                              const GpuArch& arch,
                              const ModelOptions& options = {},
                              const TraceSkeleton* skeleton = nullptr);

}  // namespace gpuhms
