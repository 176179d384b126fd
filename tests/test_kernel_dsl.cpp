#include "kernel/kernel.hpp"

#include <gtest/gtest.h>

namespace gpuhms {
namespace {

KernelInfo tiny_kernel(std::int64_t blocks = 2, int tpb = 64) {
  KernelInfo k;
  k.name = "tiny";
  k.num_blocks = blocks;
  k.threads_per_block = tpb;
  k.arrays = {ArrayDecl{.name = "x", .dtype = DType::F32, .elems = 4096}};
  k.fn = [](WarpEmitter& em, const WarpCtx& ctx) {
    em.ialu(1);
    em.load(0, em.linear(ctx.warp_global_id() * kWarpSize));
    em.falu(2, /*uses_prev=*/true);
  };
  return k;
}

TEST(WarpCtx, ThreadIds) {
  WarpCtx ctx;
  ctx.block = 3;
  ctx.warp_in_block = 1;
  ctx.threads_per_block = 128;
  EXPECT_EQ(ctx.thread_id(0), 3 * 128 + 32);
  EXPECT_EQ(ctx.thread_id(31), 3 * 128 + 63);
  EXPECT_EQ(ctx.warp_global_id(), 3 * 4 + 1);
}

TEST(KernelInfo, WarpCounts) {
  const KernelInfo k = tiny_kernel(5, 96);
  EXPECT_EQ(k.warps_per_block(), 3);
  EXPECT_EQ(k.total_warps(), 15);
}

TEST(KernelInfo, ArrayLookup) {
  const KernelInfo k = tiny_kernel();
  EXPECT_EQ(k.array_index("x"), 0);
  EXPECT_EQ(k.array("x").elems, 4096u);
}

TEST(RecordWarp, RecordsOneWarpIntoAReusedBuffer) {
  const KernelInfo k = tiny_kernel(3, 64);
  std::vector<DslOp> ops;
  const WarpCtx ctx = record_warp(k, 2, 1, ops);
  EXPECT_EQ(ctx.block, 2);
  EXPECT_EQ(ctx.warp_in_block, 1);
  EXPECT_EQ(ops.size(), 3u);  // ialu + load + falu(count=2)
  const DslOp* storage = ops.data();
  record_warp(k, 0, 0, ops);
  EXPECT_EQ(ops.size(), 3u);  // cleared first, not appended to
  EXPECT_EQ(ops.data(), storage);
}

TEST(WarpEmitter, ComputeCountsExpand) {
  WarpCtx ctx;
  ctx.threads_per_block = 32;
  WarpEmitter em(ctx);
  em.falu(3, true);
  auto ops = em.take();
  ASSERT_EQ(ops.size(), 1u);  // recorded as one DslOp with count 3
  EXPECT_EQ(ops[0].count, 3);
  EXPECT_TRUE(ops[0].uses_prev);
}

TEST(WarpEmitter, PartialWarpLanesInactive) {
  WarpCtx ctx;
  ctx.threads_per_block = 48;  // warp 1 has 16 active lanes
  ctx.warp_in_block = 1;
  ctx.lanes_active = 16;
  WarpEmitter em(ctx);
  const LaneIdx idx = em.linear(100);
  for (int l = 0; l < 16; ++l)
    EXPECT_EQ(idx[static_cast<std::size_t>(l)], 100 + l);
  for (int l = 16; l < kWarpSize; ++l)
    EXPECT_EQ(idx[static_cast<std::size_t>(l)], kInactiveLane);
}

TEST(WarpEmitter, BcastAndByLane) {
  WarpCtx ctx;
  ctx.threads_per_block = 32;
  WarpEmitter em(ctx);
  const LaneIdx b = em.bcast(7);
  for (int l = 0; l < kWarpSize; ++l)
    EXPECT_EQ(b[static_cast<std::size_t>(l)], 7);
  const LaneIdx custom = em.by_lane([](int l) {
    return l % 2 ? kInactiveLane : std::int64_t{l} * 3;
  });
  EXPECT_EQ(custom[0], 0);
  EXPECT_EQ(custom[1], kInactiveLane);
  EXPECT_EQ(custom[2], 6);
}

TEST(WarpEmitter, MemOpsCarryIndices) {
  WarpCtx ctx;
  ctx.threads_per_block = 32;
  WarpEmitter em(ctx);
  em.load(0, em.linear(10, 2));
  em.store(0, em.bcast(0));
  auto ops = em.take();
  ASSERT_EQ(ops.size(), 2u);
  EXPECT_EQ(ops[0].cls, OpClass::Load);
  EXPECT_EQ(ops[0].idx[5], 20);
  EXPECT_EQ(ops[1].cls, OpClass::Store);
  EXPECT_TRUE(ops[1].uses_prev);  // stores default to consuming a value
}

}  // namespace
}  // namespace gpuhms
