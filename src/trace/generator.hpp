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
#include <bit>
#include <cstdint>
#include <limits>
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

// Placement-independent recording of every warp's DSL stream. A placement
// only changes the space-dependent decoration of a trace (addressing-mode
// instructions, byte addresses, staging preambles) — the access *skeleton*
// recorded here is shared by all m^n placements of a kernel, so a search
// records it once and replays it per candidate instead of re-running the
// kernel function. It keeps only what its readers use: one ProtoOp per DSL
// op, one WarpCtx per warp, and the lanes of the memory ops alone (compute
// ops and syncs carry none). A memory op's lanes are stored as 8 bytes, its
// lowest active element index (its base) and the index of its lane pattern,
// the lanes' offsets from that base, in its array's dictionary of distinct
// patterns: a kernel's ops repeat a handful of shapes. It is recorded at one
// cache-line size, which fixes the geometry of its line pools below; its
// shared-bank folds are built per bank count, so one recording serves every
// arch of that line size. Immutable after construction apart from those memo
// tables, which build once each under their own flags; safe to share across
// threads.
class TraceSkeleton {
 public:
  // Records `kernel` at `arch`'s cache-line size; nothing else of the arch
  // is kept.
  TraceSkeleton(const KernelInfo& kernel, const GpuArch& arch);

  // Pre-digested DSL op: the active mask and the per-array memory-op ordinal
  // (the index into the per-array tables below) are placement-invariant, so
  // they are computed once here instead of per candidate.
  struct ProtoOp {
    OpClass cls = OpClass::IAlu;
    bool uses_prev = false;
    std::int16_t array = -1;       // memory ops
    std::uint16_t count = 1;       // compute ops
    std::uint32_t active_mask = 0;
    std::uint32_t ordinal = 0;     // memory ops: per-array table index
  };

  const KernelInfo& kernel() const { return *kernel_; }
  // Whether the memo tables fit `arch`: the same cache-line size as the arch
  // the skeleton was recorded for. Any foldable bank count fits.
  bool fits(const GpuArch& arch) const { return arch.cache_line == line_size_; }
  // Warps are numbered block-major: warp w is warp w % warps_per_block of
  // block w / warps_per_block.
  std::size_t num_warps() const { return ctx_.size(); }
  const WarpCtx& warp_ctx(std::size_t warp) const { return ctx_[warp]; }
  // Proto stream of warp `warp`.
  std::span<const ProtoOp> proto(std::size_t warp) const {
    return std::span<const ProtoOp>(
        proto_.data() + proto_begin_[warp],
        proto_begin_[warp + 1] - proto_begin_[warp]);
  }
  // A memory op's lane element indices, narrowed to 32 bits: the
  // constructor checks that every array's elements fit.
  using Lanes = std::array<std::int32_t, kWarpSize>;
  // Lane element indices of memory op `ordinal` of `array` (ProtoOp::ordinal
  // and MemRecord::ordinal index this; inactive lanes: kInactiveLane),
  // rebuilt from its base and pattern.
  Lanes lane_idx(int array, std::uint32_t ordinal) const {
    const ArrayLanes& lanes = lanes_[static_cast<std::size_t>(array)];
    const MemOp op = lanes.ops[ordinal];
    Lanes idx = lanes.patterns[op.pattern];
    for (std::int32_t& e : idx)
      e = e == kNoLane ? static_cast<std::int32_t>(kInactiveLane) : op.base + e;
    return idx;
  }
  // Distinct lane patterns of `array`'s memory ops.
  std::size_t lane_patterns(int array) const {
    return lanes_[static_cast<std::size_t>(array)].patterns.size();
  }

  // Bytes held by the skeleton's containers (their capacity), memoized
  // tables included. Not synchronized with a table build in flight.
  std::size_t footprint_bytes() const;

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
  // walking expanded ops. The dependency fields mirror LoweringCursor's
  // lowering rules: a memory op consumes its predecessor when addressing
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

  // Memoized coalescing results, per (array, layout): the device addresses
  // of an array are placement-invariant (fixed allocation, Sec. III-E), so
  // the ascending deduplicated line list of every memory op — exactly what
  // coalesce_lines produces at the skeleton's cache-line size — is too.
  // Built lazily (lane addresses are computed while building and never
  // kept), with one entry per op. A pitch-linear op's lines are its
  // pattern's lines at its base's offset within a line, shifted by whole
  // lines, so they are computed once per (pattern, offset within a line)
  // and placed per op; block-linear lines are not translation-invariant and
  // are computed per op. Outside tests, only TraceMaterializer::bind reads
  // these tables.
  struct LinePool {
    std::vector<std::uint32_t> begin;  // per ordinal, size mem_ops + 1
    std::vector<std::uint64_t> lines;  // concatenated ascending line lists
  };
  const LinePool& line_pool(int array, bool block_linear) const;

  // Distinct 4-byte words per ordinal over the linear device addresses
  // (constant-space divergence replays, Eq. 3 cause 3), built like the
  // pitch-linear line pool: once per (pattern, base byte offset modulo 4).
  std::span<const std::uint8_t> const_words_pool(int array) const;

  // Shared-memory bank-conflict degrees per ordinal plus their fold, at
  // `shared_banks` banks (CHECKed foldable, shared_banks_foldable). The
  // slice-local byte offset of an element is placement-invariant and the
  // placement-dependent base offset is kSharedAlign-byte aligned, so (the
  // bank count being foldable) the degrees match shared_conflict_degree on
  // the real addresses of ANY placement that puts the array in shared memory
  // (the offset shifts every word by a multiple of the bank count). A shift
  // by whole words only rotates the banks, so an op whose lanes stay inside
  // one slice has its pattern's degree at its base's byte offset modulo 4,
  // computed once per such pair; an op whose pattern wraps the slice is
  // computed per op. Each foldable bank count has its own slot.
  struct SharedFold {
    std::vector<std::uint8_t> degree;  // per ordinal (1 for masked-off ops)
    std::uint64_t conflict_sum = 0;    // sum of (degree - 1), unmasked ops
  };
  const SharedFold& shared_fold(int array, int shared_banks) const;

  // --- Staging copy-in (Sec. III-B's "initialization phase") ----------------
  // An array placed in shared memory (but not defaulting there) is copied in
  // by every block before its body runs: chunk j of the block's slice
  // (slice-local elements [32j, 32j + 32)) is copied by warp j % wpb as one
  // Global load of the block's slice (pitch-linear, wrapping around the
  // array) and one Shared store. Only the store's base offset depends on the
  // placement, and it is kSharedAlign-byte aligned, so the copies' requests
  // are memoized like the body's. The load's addresses depend on the block
  // only through its slice start, which repeats every elems / gcd(slice,
  // elems) blocks (a replicated slice, slice >= elems, starts at 0 in every
  // block): blocks b and b' copy the same lines when b and b' are equal
  // modulo copy_in_classes(array). One entry per (class, chunk).
  std::uint32_t copy_in_chunks(int array) const {
    return copy_in_chunks_[static_cast<std::size_t>(array)];
  }
  std::uint32_t copy_in_classes(int array) const {
    return copy_in_classes_[static_cast<std::size_t>(array)];
  }
  // Entry of chunk `chunk` of block `block`'s copy-in: class * chunks + chunk.
  std::uint32_t copy_in_entry(int array, std::int64_t block,
                              std::uint32_t chunk) const {
    const std::size_t a = static_cast<std::size_t>(array);
    return static_cast<std::uint32_t>(
               block % static_cast<std::int64_t>(copy_in_classes_[a])) *
               copy_in_chunks_[a] +
           chunk;
  }
  // Coalesced lines of every entry's Global load (`begin` is per entry),
  // memoized like the body's line pools.
  const LinePool& copy_in_lines(int array) const;
  // Bank-conflict degree of every chunk's Shared store (indexed by the chunk,
  // entry % copy_in_chunks; the store's addresses do not depend on the
  // block), and their conflict_sum over one block's chunks, at `shared_banks`
  // banks; folded like the body's.
  const SharedFold& copy_in_fold(int array, int shared_banks) const;

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
  std::vector<WarpCtx> ctx_;      // per warp, block-major
  std::vector<ProtoOp> proto_;    // all warps, concatenated
  std::vector<std::uint32_t> proto_begin_;  // per-warp ranges, size warps+1
  // A memory op's lanes: element index of lane l = base + patterns[pattern][l]
  // (kNoLane: inactive). base is the lowest active index, so every offset
  // is >= 0 and no offset can take the sentinel; a fully masked op has base
  // 0 and the all-kNoLane pattern.
  static constexpr std::int32_t kNoLane =
      std::numeric_limits<std::int32_t>::min();
  struct MemOp {
    std::int32_t base = 0;
    std::uint32_t pattern = 0;
  };
  struct ArrayLanes {
    std::vector<MemOp> ops;        // in ordinal order
    std::vector<Lanes> patterns;   // distinct, in order of first use
  };
  std::vector<ArrayLanes> lanes_;  // per array
  std::vector<std::uint32_t> copy_in_chunks_;   // per array
  std::vector<std::uint32_t> copy_in_classes_;  // per array
  std::uint64_t base_insts_ = 0;
  std::uint64_t base_load_insts_ = 0;
  std::vector<std::uint64_t> mem_ops_per_array_;
  // SoA replay tables (built in the constructor from the proto stream).
  std::vector<MemRecord> mem_rec_;            // all warps, concatenated
  std::vector<std::uint32_t> mem_rec_begin_;  // per-warp ranges, size warps+1
  std::vector<std::uint32_t> inv_ops_;        // per warp
  std::vector<std::uint32_t> mem_cnt_;        // warps x arrays, row-major
  InvariantTallies invariants_;
  // The line pools' geometry, and every array's fixed device allocation
  // (MemoryLayout::device_base, the same under every placement).
  std::size_t line_size_;
  std::vector<std::uint64_t> device_base_;
  // One fold slot per foldable bank count: kSharedAlign / 4 banks and every
  // power of two below it (1, 2, 4, 8, 16, 32 at kSharedAlign = 128).
  static constexpr int kFoldSlots =
      static_cast<int>(std::bit_width(kSharedAlign / 4));
  static int fold_slot(int shared_banks);
  // Lazily-built memo tables, fixed in number: each builds once under its
  // own flag, so concurrent readers build different tables in parallel, and
  // returned references never move. kBodyFold and kCopyFold stand for
  // kFoldSlots tables each, one per bank count.
  enum Table { kPitchLines, kBlockLines, kCopyLines, kConstWords, kBodyFold,
               kCopyFold = kBodyFold + kFoldSlots,
               kTables = kCopyFold + kFoldSlots };
  std::once_flag& once(int array, int table) const {
    return once_[static_cast<std::size_t>(array) * kTables +
                 static_cast<std::size_t>(table)];
  }
  // Builds, once, fold slot `table` (kBodyFold or kCopyFold plus the slot)
  // of `array` with `build`.
  template <class Build>
  const SharedFold& fold(int array, int table, Build&& build) const;
  mutable std::vector<LinePool> lines_;    // per array: kPitchLines..kCopyLines
  // Per array: both folds' slots, each allocated when built (a slot no
  // arch reads costs one pointer).
  mutable std::vector<std::unique_ptr<SharedFold>> folds_;
  mutable std::vector<std::vector<std::uint8_t>> const_words_;  // per array
  mutable std::unique_ptr<std::once_flag[]> once_;  // kTables per array
};

// How a placement lowers one array, and which of a skeleton's memo tables
// answer its accesses: the one place that decides it, read by the
// simulator and the SoA lowering alike. The table pointers are set by
// TraceMaterializer::bind and stay valid while the skeleton lives.
struct PlacedArray {
  MemSpace space = MemSpace::Global;
  std::uint32_t inserts = 0;  // addressing IAlus before each access (Fig. 2)
  // Body accesses, indexed by ordinal: coalesced lines (off-chip spaces),
  // distinct words (Constant), or bank-conflict degree and its fold (Shared).
  const std::uint32_t* line_begin = nullptr;
  const std::uint64_t* lines = nullptr;
  const std::uint8_t* words = nullptr;
  const std::uint8_t* degree = nullptr;
  std::uint64_t conflict_sum = 0;
  // Staged arrays (placed shared, default off-chip): the copy-in preamble.
  // Each copy is copy_inserts Global addressing IAlus, a load, a store.
  bool staged = false;
  std::uint32_t copy_inserts = 0;
  std::uint32_t copy_chunks = 0;
  const std::uint32_t* copy_begin = nullptr;  // per copy-in entry
  const std::uint64_t* copy_lines = nullptr;
  const std::uint8_t* copy_degree = nullptr;  // per chunk (entry % chunks)
  std::uint64_t copy_conflict_sum = 0;        // over one block's chunks
};

class LoweringCursor;

class TraceMaterializer {
 public:
  TraceMaterializer(const KernelInfo& kernel, const DataPlacement& placement,
                    const GpuArch& arch);

  const MemoryLayout& layout() const { return layout_; }
  const KernelInfo& kernel() const { return *kernel_; }
  const DataPlacement& placement() const { return placement_; }
  // Arrays needing the copy-in preamble (placed shared, default off-chip),
  // in staging order.
  std::span<const int> staged_arrays() const { return staged_arrays_; }

  // Every array's PlacedArray, with the skeleton's tables bound. CHECKs that
  // the skeleton was recorded from this kernel at this arch's cache-line
  // size.
  std::vector<PlacedArray> bind(const TraceSkeleton& skeleton) const;

  // Expanded ops of warp `warp` under this placement: its staging preamble,
  // its placement-invariant ops and its arrays' addressing inserts.
  std::uint32_t warp_ops(const TraceSkeleton& skeleton, std::size_t warp) const;

  // Full trace (staging + lowered body) for every warp of the block range,
  // lowered from `skeleton` (recorded from this materializer's kernel): the
  // analysis full walk's input. The simulator walks the same sequence
  // lazily, one LoweringCursor per resident warp, instead. The result is
  // written into `traces`, whose op vectors keep their capacity, so a caller
  // that hands back the previous result allocates only when a warp grows.
  std::vector<WarpTrace> generate(const TraceSkeleton& skeleton,
                                  std::int64_t block_begin,
                                  std::int64_t block_end,
                                  std::vector<WarpTrace> traces = {}) const;

 private:
  friend class LoweringCursor;

  // Appends every op the cursor has left to `out`.
  static void emit(LoweringCursor cursor, std::vector<TraceOp>& out);

  const KernelInfo* kernel_;
  DataPlacement placement_;
  const GpuArch* arch_;
  MemoryLayout layout_;
  std::vector<PlacedArray> arrays_;  // tables unbound
  std::vector<int> staged_arrays_;
};

// Lazy lowering of one recorded warp under a materializer's placement. It
// walks exactly the expanded op sequence generate() emits for the warp, one
// op at a time: the staging preamble (per staged array and nonempty copy-in
// chunk, the Global addressing inserts, a Global load and a Shared store;
// then a Sync), then the body (per proto op, a compute run of `count` ops,
// the array's addressing inserts followed by the access, or a Sync). Only
// generate(), the reference full walk, computes a memory op's lane
// addresses; the simulator reads a body access's lines, words and
// bank-conflict degree from the skeleton's tables by ordinal(), and a
// staging copy's by copy_in_entry(). The materializer and the skeleton must
// outlive the cursor.
class LoweringCursor {
 public:
  LoweringCursor() = default;  // done()
  LoweringCursor(const TraceMaterializer& mat, const TraceSkeleton& skeleton,
                 std::size_t warp);

  bool done() const { return done_; }
  // The op at the cursor (meaningless once done()).
  OpClass cls() const { return cls_; }
  bool uses_prev() const { return uses_prev_; }
  bool is_addr_calc() const { return addr_calc_; }
  // In the staging preamble (its copies are in the skeleton's copy-in
  // tables, not its per-array body tables).
  bool staging() const { return stage_ >= 0; }
  // Memory ops: the access's placed space and array.
  MemSpace space() const;
  int array() const;
  // Body memory ops: the access's index into the skeleton's per-array
  // tables (lane_idx, line_pool, const_words_pool, shared_fold).
  std::uint32_t ordinal() const { return op_->ordinal; }
  // Staging copies: the copy's entry in the skeleton's copy-in tables
  // (copy_in_lines; its chunk, entry % copy_in_chunks, indexes copy_in_fold).
  std::uint32_t copy_in_entry() const {
    return skeleton_->copy_in_entry(
        array(), block_, static_cast<std::uint32_t>(chunk_ / kWarpSize));
  }
  // The access's lanes for a memory op and its addressing inserts; every
  // lane for compute ops and Syncs.
  std::uint32_t active_mask() const;

  void next() {
    ++step_;
    // Inside a body compute run (only compute protos count more than one
    // op) the next op is one more of the same class, without the run's
    // dependency: what settle() would decide.
    if (stage_ < 0 && step_ < op_->count) {
      uses_prev_ = false;
      return;
    }
    settle();
  }

 private:
  friend class TraceMaterializer;
  using ProtoOp = TraceSkeleton::ProtoOp;

  // Moves onto the next expanded op at or after the position and decodes
  // it; sets done_ past the end of the stream.
  void settle();
  // Memory ops: writes the kWarpSize lane byte addresses (inactive lanes:
  // -1) and returns the active mask.
  std::uint32_t lane_addresses(std::int64_t* addr) const;

  const TraceMaterializer* mat_ = nullptr;
  const TraceSkeleton* skeleton_ = nullptr;
  const ProtoOp* op_ = nullptr;  // current body op
  const ProtoOp* end_ = nullptr;
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
