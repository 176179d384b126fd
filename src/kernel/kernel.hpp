// Warp-level kernel DSL.
//
// A kernel is a function invoked once per warp; it records the warp's
// instruction stream (compute ops + array references by element index) into a
// WarpEmitter. This is the stand-in for CUDA source + SASSI instrumentation:
// the recorded stream plays the role of the per-thread SASS trace of the
// paper's framework (Sec. IV).
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "common/check.hpp"
#include "common/status.hpp"
#include "isa/op.hpp"
#include "kernel/array.hpp"

namespace gpuhms {

struct WarpCtx {
  std::int64_t block = 0;        // linear block id
  int warp_in_block = 0;         // warp index within the block
  int threads_per_block = 0;
  std::int64_t num_blocks = 0;
  int lanes_active = kWarpSize;  // trailing warps may be partial

  // Global linear thread id of a lane.
  std::int64_t thread_id(int lane) const {
    return block * threads_per_block + warp_in_block * kWarpSize + lane;
  }
  std::int64_t warp_global_id() const {
    return block * ((threads_per_block + kWarpSize - 1) / kWarpSize) +
           warp_in_block;
  }
};

// Records the DSL op stream for one warp. Kernels use the helpers to express
// per-lane element indices; `uses_prev` marks a RAW dependence on the
// previous op, which both the simulator (stalls) and the model (ILP, Eq. 14)
// consume.
class WarpEmitter {
 public:
  explicit WarpEmitter(const WarpCtx& ctx) : ctx_(&ctx) {}
  // Records into `buffer`'s storage: cleared, its capacity kept.
  WarpEmitter(const WarpCtx& ctx, std::vector<DslOp>&& buffer)
      : ctx_(&ctx), ops_(std::move(buffer)) {
    ops_.clear();
  }

  void load(int array, const LaneIdx& idx, bool uses_prev = false) {
    mem(OpClass::Load, array, idx, uses_prev);
  }
  void store(int array, const LaneIdx& idx, bool uses_prev = true) {
    mem(OpClass::Store, array, idx, uses_prev);
  }
  void ialu(int count = 1, bool uses_prev = false) {
    compute(OpClass::IAlu, count, uses_prev);
  }
  void falu(int count = 1, bool uses_prev = false) {
    compute(OpClass::FAlu, count, uses_prev);
  }
  void dalu(int count = 1, bool uses_prev = false) {
    compute(OpClass::DAlu, count, uses_prev);
  }
  void sfu(int count = 1, bool uses_prev = false) {
    compute(OpClass::Sfu, count, uses_prev);
  }
  void sync() {
    DslOp op;
    op.cls = OpClass::Sync;
    ops_.push_back(op);
  }

  // --- index helpers ------------------------------------------------------
  // All-lanes-same element index (broadcast; constant memory's happy path).
  LaneIdx bcast(std::int64_t i) const {
    LaneIdx v{};
    for (int l = 0; l < kWarpSize; ++l)
      v[static_cast<std::size_t>(l)] = l < ctx_->lanes_active ? i : kInactiveLane;
    return v;
  }
  // idx[lane] = base + lane * stride (coalesced when stride == 1).
  LaneIdx linear(std::int64_t base, std::int64_t stride = 1) const {
    return by_lane([&](int l) { return base + l * stride; });
  }
  // Arbitrary per-lane index; fn may return kInactiveLane.
  template <typename Fn>
  LaneIdx by_lane(Fn&& fn) const {
    LaneIdx v{};
    for (int l = 0; l < kWarpSize; ++l)
      v[static_cast<std::size_t>(l)] =
          l < ctx_->lanes_active ? fn(l) : kInactiveLane;
    return v;
  }

  const WarpCtx& ctx() const { return *ctx_; }
  std::vector<DslOp> take() { return std::move(ops_); }

 private:
  void compute(OpClass cls, int count, bool uses_prev) {
    GPUHMS_CHECK(count >= 1);
    DslOp op;
    op.cls = cls;
    op.count = static_cast<std::uint16_t>(count);
    op.uses_prev = uses_prev;
    ops_.push_back(op);
  }
  void mem(OpClass cls, int array, const LaneIdx& idx, bool uses_prev) {
    // Built in place: idx is copied once, and nothing is zeroed first.
    ops_.emplace_back(cls, static_cast<std::int16_t>(array), std::uint16_t{1},
                      uses_prev, idx);
  }

  const WarpCtx* ctx_;
  std::vector<DslOp> ops_;
};

using WarpFn = std::function<void(WarpEmitter&, const WarpCtx&)>;

struct KernelInfo {
  std::string name;
  std::vector<ArrayDecl> arrays;
  std::int64_t num_blocks = 1;
  int threads_per_block = 128;
  WarpFn fn;

  int warps_per_block() const {
    return (threads_per_block + kWarpSize - 1) / kWarpSize;
  }
  std::int64_t total_warps() const { return num_blocks * warps_per_block(); }
  int array_index(std::string_view name) const;
  const ArrayDecl& array(std::string_view name) const;
};

// Checks a (possibly user-built) kernel before the pipeline consumes it:
// a warp function must be set, the launch geometry must be positive, and
// every array declaration must be internally consistent (nonzero size,
// unique nonempty name, slice/width within bounds). Returns
// INVALID_ARGUMENT naming the kernel and the offending field.
Status validate(const KernelInfo& k);

// Runs `fn` for warp `warp_in_block` of block `block`, recording its stream
// into `ops` (cleared first; its capacity is reused, so a caller recording
// block after block into the same buffers stops reallocating). Returns the
// warp's context.
WarpCtx record_warp(const KernelInfo& k, std::int64_t block,
                    int warp_in_block, std::vector<DslOp>& ops);

}  // namespace gpuhms
