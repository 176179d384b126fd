// Placement-aware trace materialization.
//
// This is the reproduction of the paper's SASSI-based instruction/memory
// trace generator plus the trace rewriting step of Sec. IV: DSL ops are
// lowered into SASS-class TraceOps for a concrete data placement —
// addressing-mode integer instructions are inserted per Sec. III-B, element
// indices become byte addresses in the placed space, and arrays staged into
// shared memory get their one-time copy-in preamble (Sec. III-B's
// "initialization phase").
#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <mutex>
#include <span>
#include <vector>

#include "trace/allocation.hpp"

namespace gpuhms {

struct WarpTrace {
  WarpCtx ctx;
  std::vector<TraceOp> ops;
};

// 32 lane byte addresses of one warp-level memory op (inactive lanes: -1).
using AddrBlock = std::array<std::int64_t, kWarpSize>;

// Placement-independent recording of every warp's DSL stream. A placement
// only changes the space-dependent decoration of a trace (addressing-mode
// instructions, byte addresses, staging preambles) — the access *skeleton*
// recorded here is shared by all m^n placements of a kernel, so a search
// records it once and replays it per candidate instead of re-running the
// kernel function. Immutable after construction; safe to share across
// threads.
class TraceSkeleton {
 public:
  explicit TraceSkeleton(const KernelInfo& kernel);

  struct WarpRecord {
    WarpCtx ctx;
    std::vector<DslOp> ops;
  };

  // Pre-digested DSL op: the active mask and the per-array memory-op ordinal
  // (the index into the device address pools) are placement-invariant, so
  // they are computed once here instead of per candidate.
  struct ProtoOp {
    OpClass cls = OpClass::IAlu;
    bool uses_prev = false;
    std::int16_t array = -1;       // memory ops
    std::uint16_t count = 1;       // compute ops
    std::uint32_t active_mask = 0;
    std::uint32_t ordinal = 0;     // memory ops: per-array pool index
    std::uint32_t dsl_index = 0;   // memory ops: index into WarpRecord::ops
  };

  const KernelInfo& kernel() const { return *kernel_; }
  // Records of the warps of blocks [block_begin, block_end), block-major in
  // the same order for_each_warp visits them.
  std::span<const WarpRecord> warps(std::int64_t block_begin,
                                    std::int64_t block_end) const;
  const WarpRecord& warp(std::size_t index) const { return warps_[index]; }
  // Proto stream of warp `index` (same warp numbering as warps()).
  std::span<const ProtoOp> proto(std::size_t index) const {
    return std::span<const ProtoOp>(
        proto_.data() + proto_begin_[index],
        proto_begin_[index + 1] - proto_begin_[index]);
  }

  // Device byte addresses of every memory op of `array`, in skeleton order
  // (ProtoOp::ordinal indexes this). Placement-invariant: every array keeps
  // a fixed device allocation, so only the intra-allocation layout — pitch-
  // linear for Global/Constant/Texture1D, block-linear for Texture2D —
  // distinguishes placements. Built lazily on first use, thread-safe, and
  // shared by all analyzers replaying this skeleton.
  std::span<const AddrBlock> device_addr_pool(int array, bool block_linear,
                                              const MemoryLayout& layout) const;

  // --- SoA replay support (consumed by src/trace/soa.*) ---------------------
  // Per-warp stream of the *memory* protos only, pre-digested so the
  // data-oriented lowering touches nothing else per candidate: compute runs
  // and syncs never materialize (their counts fold into inv_prefix /
  // invariant_ops), and the placement decides per array — not per op — how
  // many addressing instructions precede each memory op. The expanded-stream
  // position of memory op k of a warp under a placement with per-array
  // addressing counts ai[] is
  //   pc(k) = inv_prefix(k) + sum over records j <= k of ai[array(j)].
  struct MemRecord {
    std::uint32_t inv_prefix = 0;  // invariant expanded ops before this op
    std::uint32_t active_mask = 0;
    std::uint32_t ordinal = 0;     // per-array pool / line-pool index
    std::int16_t array = -1;
    bool is_store = false;
    std::uint8_t pad = 0;
  };
  std::span<const MemRecord> mem_records(std::size_t warp) const {
    return std::span<const MemRecord>(
        mem_rec_.data() + mem_rec_begin_[warp],
        mem_rec_begin_[warp + 1] - mem_rec_begin_[warp]);
  }
  std::size_t mem_record_count(std::size_t warp_begin,
                               std::size_t warp_end) const {
    return mem_rec_begin_[warp_end] - mem_rec_begin_[warp_begin];
  }
  // Expanded ops of the warp excluding addressing inserts and staging
  // preambles: memory and sync protos count 1, compute protos their count.
  std::uint32_t invariant_ops(std::size_t warp) const {
    return inv_ops_[warp];
  }
  // Memory protos of `array` in the warp (masked-off ops included).
  std::uint32_t mem_count(std::size_t warp, std::size_t array) const {
    return mem_cnt_[warp * kernel_->arrays.size() + array];
  }

  // Placement-invariant totals the SoA path folds analytically instead of
  // walking expanded ops. The dependency fields mirror the lowering rules of
  // TraceMaterializer::lower: a memory op consumes its predecessor when addressing
  // instructions were inserted (ai > 0) and keeps its DSL dependency
  // otherwise; only the first op of a compute run carries the run's
  // dependency; syncs never depend.
  struct InvariantTallies {
    std::uint64_t dep_compute = 0;   // compute protos consuming their pred.
    std::uint64_t chain_comp_up = 0; // mem protos followed by dependent compute
    std::uint64_t sync_protos = 0;
    std::uint64_t mem_protos = 0;
    std::uint64_t load_protos = 0;
    std::vector<std::uint64_t> mem_uses_prev;  // per array: DSL-dependent mem
    std::vector<std::uint64_t> chain_mem_up;   // per array of the *successor*
    std::vector<std::uint64_t> unmasked;       // per array: mask != 0 mem ops
    std::vector<std::uint64_t> unmasked_loads;
  };
  const InvariantTallies& invariants() const { return invariants_; }

  // Memoized coalescing results, per (array, layout, line_size): the device
  // addresses of an array are placement-invariant (fixed allocation,
  // Sec. III-E), so the ascending deduplicated line list of every memory op —
  // exactly what coalesce_lines produces — is too. Built lazily like the
  // address pools, with one table per distinct `line_size`, so a skeleton
  // shared across architectures (a cross-arch study, or serve answering for
  // a heterogeneous fleet) memoizes each cache-line geometry independently.
  struct LinePool {
    std::vector<std::uint32_t> begin;  // per ordinal, size mem_ops + 1
    std::vector<std::uint64_t> lines;  // concatenated ascending line lists
    std::size_t line_size = 0;
  };
  const LinePool& line_pool(int array, bool block_linear,
                            const MemoryLayout& layout,
                            std::size_t line_size) const;

  // Distinct 4-byte words per ordinal over the linear device addresses
  // (constant-space divergence replays, Eq. 3 cause 3).
  std::span<const std::uint8_t> const_words_pool(
      int array, const MemoryLayout& layout) const;

  // Shared-memory bank-conflict degrees per ordinal plus their fold. The
  // slice-local byte offset of an element is placement-invariant and the
  // placement-dependent base offset is kSharedAlign-byte aligned, so when
  // shared_banks_foldable(num_banks) holds the degrees match
  // shared_conflict_degree on the real addresses of ANY placement that puts
  // the array in shared memory (the offset shifts every word by a multiple
  // of num_banks). Memoized per (array, num_banks) — each bank geometry gets
  // its own fold table, so archs with different shared_banks can share one
  // skeleton without aliasing each other's degrees.
  struct SharedFold {
    std::vector<std::uint8_t> degree;  // per ordinal (1 for masked-off ops)
    std::uint64_t conflict_sum = 0;    // sum of (degree - 1), unmasked ops
    int num_banks = 0;
  };
  const SharedFold& shared_fold(int array, int num_banks) const;

  // --- skeleton statistics (for cheap per-placement bounds) -----------------
  // Executed warp instructions excluding addressing-mode inserts and staging
  // preambles (i.e. the placement-invariant part of insts_executed).
  std::uint64_t base_insts() const { return base_insts_; }
  // Warp-level *load* DSL ops only. A floor on any placement's load count:
  // lowering never drops a load, and shared-staging preambles only add more.
  std::uint64_t base_load_insts() const { return base_load_insts_; }
  // Warp-level load+store DSL ops per array (masked-off ops included — they
  // still issue).
  std::span<const std::uint64_t> mem_ops_per_array() const {
    return mem_ops_per_array_;
  }

 private:
  const KernelInfo* kernel_;
  std::vector<WarpRecord> warps_;  // all blocks, block-major
  std::vector<ProtoOp> proto_;    // all warps, concatenated
  std::vector<std::uint32_t> proto_begin_;  // per-warp ranges, size warps+1
  std::uint64_t base_insts_ = 0;
  std::uint64_t base_load_insts_ = 0;
  std::vector<std::uint64_t> mem_ops_per_array_;
  // Lazily-built device address pools, two per array (linear, block-linear).
  mutable std::vector<std::vector<AddrBlock>> device_pools_;
  mutable std::unique_ptr<std::once_flag[]> pool_once_;
  // SoA replay tables (built in the constructor from the proto stream).
  std::vector<MemRecord> mem_rec_;            // all warps, concatenated
  std::vector<std::uint32_t> mem_rec_begin_;  // per-warp ranges, size warps+1
  std::vector<std::uint32_t> inv_ops_;        // per warp
  std::vector<std::uint32_t> mem_cnt_;        // warps x arrays, row-major
  InvariantTallies invariants_;
  // Lazily-built memoized pools. Constant-word counts are arch-invariant
  // (4-byte words); line pools and shared folds are keyed by the arch
  // parameter they depend on (cache-line size / bank count), one table per
  // distinct value. Tables are found-or-created under memo_mu_ in an
  // append-only list of unique_ptrs — returned references never move — and
  // each table's entries build under its own call_once flags, so concurrent
  // analyzers on different archs never block each other's builds.
  struct LineTable {
    std::size_t line_size = 0;
    std::vector<LinePool> pools;  // two per array
    std::unique_ptr<std::once_flag[]> once;
  };
  struct FoldTable {
    int num_banks = 0;
    std::vector<SharedFold> folds;  // per array
    std::unique_ptr<std::once_flag[]> once;
  };
  LineTable& line_table(std::size_t line_size) const;
  FoldTable& fold_table(int num_banks) const;
  mutable std::mutex memo_mu_;
  mutable std::vector<std::unique_ptr<LineTable>> line_tables_;
  mutable std::vector<std::unique_ptr<FoldTable>> fold_tables_;
  mutable std::vector<std::vector<std::uint8_t>> const_words_;  // per array
  mutable std::unique_ptr<std::once_flag[]> const_once_;
};

class LoweringCursor;

class TraceMaterializer {
 public:
  TraceMaterializer(const KernelInfo& kernel, const DataPlacement& placement,
                    const GpuArch& arch);

  const MemoryLayout& layout() const { return layout_; }
  const KernelInfo& kernel() const { return *kernel_; }
  const DataPlacement& placement() const { return placement_; }
  // Arrays needing the copy-in preamble (placed shared, default off-chip).
  std::span<const int> staged_arrays() const { return staged_arrays_; }

  // Copy-in preamble executed by warp `ctx.warp_in_block` of its block for
  // every array moved into shared memory; ends with a Sync when nonempty.
  void staging_preamble(const WarpCtx& ctx, std::vector<TraceOp>& out) const;

  // Full trace (staging + lowered body) for every warp of the block range:
  // the analysis full walk's input. The simulator walks the same sequence
  // lazily, one LoweringCursor per resident warp, instead.
  std::vector<WarpTrace> generate(std::int64_t block_begin,
                                  std::int64_t block_end) const;

 private:
  friend class LoweringCursor;

  // Appends every op the cursor has left to `out`.
  static void emit(LoweringCursor cursor, std::vector<TraceOp>& out);

  const KernelInfo* kernel_;
  DataPlacement placement_;
  const GpuArch* arch_;
  MemoryLayout layout_;
  // Addressing-mode IAlus before each access, per array (Fig. 2).
  std::vector<std::uint32_t> addr_insts_;
  std::vector<int> staged_arrays_;
};

// Lazy lowering of one warp's DSL stream under a materializer's placement.
// It walks exactly the expanded op sequence generate() emits for the warp,
// one op at a time: the staging preamble (per staged array and nonempty
// copy-in chunk, the Global addressing inserts, a Global load and a Shared
// store; then a Sync), then the body (per DSL op, a compute run of `count`
// ops, the array's addressing inserts followed by the access, or a Sync).
// A memory op's lane addresses are computed only when asked for, so the
// simulator issues from cursors without materializing anything; generate()
// drains them. The materializer and the DSL ops must outlive the cursor.
class LoweringCursor {
 public:
  LoweringCursor() = default;  // done()
  LoweringCursor(const TraceMaterializer& mat, const WarpCtx& ctx,
                 std::span<const DslOp> ops);

  bool done() const { return done_; }
  // The op at the cursor (meaningless once done()).
  OpClass cls() const { return cls_; }
  bool uses_prev() const { return uses_prev_; }
  bool is_addr_calc() const { return addr_calc_; }
  // Memory ops: the access's placed space and array.
  MemSpace space() const;
  int array() const;
  // The access's lanes for a memory op and its addressing inserts; every
  // lane for compute ops and Syncs.
  std::uint32_t active_mask() const;
  // Memory ops: writes the kWarpSize lane byte addresses (inactive lanes:
  // -1) and returns the active mask.
  std::uint32_t lane_addresses(std::int64_t* addr) const;

  void next() {
    ++step_;
    settle();
  }

 private:
  // Moves onto the next expanded op at or after the position and decodes
  // it; sets done_ past the end of the stream.
  void settle();

  const TraceMaterializer* mat_ = nullptr;
  const DslOp* op_ = nullptr;  // current body op
  const DslOp* end_ = nullptr;
  std::uint32_t step_ = 0;     // expanded op within the current group
  int stage_ = -1;             // preamble: staged-array index (== count:
                               // the closing Sync); -1 in the body
  std::int64_t chunk_ = 0;     // preamble: first slice-local element of the
                               // warp's current copy-in chunk
  std::int64_t block_ = 0;
  int warp_in_block_ = 0;
  OpClass cls_ = OpClass::IAlu;
  bool uses_prev_ = false;
  bool addr_calc_ = false;
  bool done_ = true;
};

// Active-lane mask for a LaneIdx.
std::uint32_t active_mask_of(const LaneIdx& idx);

}  // namespace gpuhms
