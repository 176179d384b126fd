#include "trace/generator.hpp"

#include <algorithm>

#include <gtest/gtest.h>

#include "isa/addressing.hpp"
#include "workloads/workloads.hpp"

namespace gpuhms {
namespace {

KernelInfo one_load_kernel(MemSpace def = MemSpace::Global) {
  KernelInfo k;
  k.name = "oneload";
  k.num_blocks = 2;
  k.threads_per_block = 64;
  ArrayDecl x{.name = "x", .dtype = DType::F32, .elems = 4096, .width = 64,
              .shared_slice_elems = 64, .default_space = def};
  ArrayDecl y{.name = "y", .dtype = DType::F32, .elems = 4096,
              .written = true};
  k.arrays = {x, y};
  k.fn = [](WarpEmitter& em, const WarpCtx& ctx) {
    em.load(0, em.linear(ctx.warp_global_id() * kWarpSize));
    em.falu(1, true);
    em.store(1, em.linear(ctx.warp_global_id() * kWarpSize), true);
  };
  return k;
}

// The full lowering of blocks [b0, b1) from a freshly recorded skeleton
// (every materializer here lowers for kepler).
std::vector<WarpTrace> lower(const TraceMaterializer& mat, std::int64_t b0,
                             std::int64_t b1) {
  const TraceSkeleton skeleton(mat.kernel(), kepler_arch());
  return mat.generate(skeleton, b0, b1);
}

int count_addr_calcs(const std::vector<TraceOp>& ops) {
  int n = 0;
  for (const auto& op : ops) n += op.is_addr_calc;
  return n;
}

TEST(ActiveMask, FullAndPartial) {
  LaneIdx idx{};
  for (int l = 0; l < kWarpSize; ++l)
    idx[static_cast<std::size_t>(l)] = l < 10 ? l : kInactiveLane;
  EXPECT_EQ(active_mask_of(idx), 0x3ffu);
}

TEST(Materializer, GlobalPlacementInsertsTwoAddrInstructions) {
  const KernelInfo k = one_load_kernel();
  const auto p = DataPlacement::defaults(k);
  const TraceMaterializer mat(k, p, kepler_arch());
  const auto traces = lower(mat, 0, 1);
  ASSERT_EQ(traces.size(), 2u);
  // load x: 2 addr IALUs, falu, store y: 2 addr IALUs -> 4 total.
  EXPECT_EQ(count_addr_calcs(traces[0].ops), 4);
  EXPECT_EQ(traces[0].ops.size(), 2u + 1u + 1u + 2u + 1u);
}

// Parameterized over target spaces: addressing instruction counts in the
// lowered trace match the Sec. III-B table.
class MaterializeSpace : public ::testing::TestWithParam<MemSpace> {};

TEST_P(MaterializeSpace, AddrCalcCountsFollowTable) {
  const MemSpace space = GetParam();
  const KernelInfo k = one_load_kernel();
  const auto p = DataPlacement::defaults(k).with(0, space);
  const TraceMaterializer mat(k, p, kepler_arch());
  const auto traces = lower(mat, 0, 1);
  // Staging (shared only) adds its own global addr calcs; count only the
  // body by looking after the final Sync when staging exists.
  const auto& ops = traces[0].ops;
  std::size_t body_start = 0;
  for (std::size_t i = 0; i < ops.size(); ++i) {
    if (ops[i].cls == OpClass::Sync) body_start = i + 1;
  }
  int body_addr = 0;
  for (std::size_t i = body_start; i < ops.size(); ++i)
    body_addr += ops[i].is_addr_calc;
  const int expected_x = addr_calc_instructions(space, DType::F32);
  const int expected_y = addr_calc_instructions(MemSpace::Global, DType::F32);
  EXPECT_EQ(body_addr, expected_x + expected_y);
}

INSTANTIATE_TEST_SUITE_P(
    AllSpaces, MaterializeSpace,
    ::testing::Values(MemSpace::Global, MemSpace::Shared, MemSpace::Constant,
                      MemSpace::Texture1D, MemSpace::Texture2D),
    [](const auto& info) { return std::string(to_string(info.param)); });

TEST(Materializer, LoadDependsOnItsAddressCalc) {
  const KernelInfo k = one_load_kernel();
  const auto p = DataPlacement::defaults(k);
  const TraceMaterializer mat(k, p, kepler_arch());
  const auto traces = lower(mat, 0, 1);
  const auto& ops = traces[0].ops;
  ASSERT_EQ(ops[2].cls, OpClass::Load);
  EXPECT_TRUE(ops[2].uses_prev);
}

TEST(Materializer, Texture1DLoadKeepsDslDependency) {
  const KernelInfo k = one_load_kernel();
  const auto p = DataPlacement::defaults(k).with(0, MemSpace::Texture1D);
  const TraceMaterializer mat(k, p, kepler_arch());
  const auto traces = lower(mat, 0, 1);
  // No addr calc for 1-D texture; the load keeps uses_prev = false.
  ASSERT_EQ(traces[0].ops[0].cls, OpClass::Load);
  EXPECT_FALSE(traces[0].ops[0].uses_prev);
}

TEST(Materializer, AddressesMatchLayout) {
  const KernelInfo k = one_load_kernel();
  const auto p = DataPlacement::defaults(k);
  const TraceMaterializer mat(k, p, kepler_arch());
  const auto traces = lower(mat, 1, 2);  // second block
  const auto& ld = traces[0].ops[2];
  ASSERT_EQ(ld.cls, OpClass::Load);
  // Block 1, warp 0 -> warp_global_id 2 -> element 64.
  EXPECT_EQ(static_cast<std::uint64_t>(ld.addr[0]),
            mat.layout().device_addr(0, 64));
  EXPECT_EQ(ld.addr[1] - ld.addr[0], 4);
}

TEST(Materializer, StagingPreambleOnlyForArraysMovedIntoShared) {
  // Default shared arrays (kernel-managed) get no staging.
  const KernelInfo k_shared_default = one_load_kernel(MemSpace::Shared);
  const TraceMaterializer mat1(
      k_shared_default, DataPlacement::defaults(k_shared_default),
      kepler_arch());
  const auto t1 = lower(mat1, 0, 1);
  for (const auto& op : t1[0].ops) EXPECT_NE(op.cls, OpClass::Sync);

  // Global-by-default array moved to shared gets the copy-in + barrier.
  const KernelInfo k = one_load_kernel(MemSpace::Global);
  const auto p = DataPlacement::defaults(k).with(0, MemSpace::Shared);
  const TraceMaterializer mat2(k, p, kepler_arch());
  const auto t2 = lower(mat2, 0, 1);
  bool has_sync = false, has_shared_store = false;
  for (const auto& op : t2[0].ops) {
    has_sync = has_sync || op.cls == OpClass::Sync;
    has_shared_store = has_shared_store ||
                       (op.cls == OpClass::Store && op.space == MemSpace::Shared);
  }
  EXPECT_TRUE(has_sync);
  EXPECT_TRUE(has_shared_store);
}

TEST(Materializer, StagingCoversTheWholeSlice) {
  // Slice of 64 elements split over 2 warps: each stages 32 elements.
  const KernelInfo k = one_load_kernel();
  const auto p = DataPlacement::defaults(k).with(0, MemSpace::Shared);
  const TraceMaterializer mat(k, p, kepler_arch());
  const auto traces = lower(mat, 0, 1);
  for (const auto& wt : traces) {
    int staged_lanes = 0;
    for (const auto& op : wt.ops) {
      if (op.cls == OpClass::Store && op.space == MemSpace::Shared)
        staged_lanes += popcount32(op.active_mask);
    }
    EXPECT_EQ(staged_lanes, 32);
  }
}

TEST(Materializer, RejectsInvalidPlacement) {
  const KernelInfo k = one_load_kernel();
  const auto p = DataPlacement::defaults(k).with(1, MemSpace::Constant);
  EXPECT_DEATH(TraceMaterializer(k, p, kepler_arch()), "read-only");
}

TEST(Materializer, InactiveLanesGetNoAddresses) {
  KernelInfo k = one_load_kernel();
  k.fn = [](WarpEmitter& em, const WarpCtx&) {
    em.load(0, em.by_lane([](int l) {
      return l < 4 ? std::int64_t{l} : kInactiveLane;
    }));
  };
  const TraceMaterializer mat(k, DataPlacement::defaults(k), kepler_arch());
  const auto traces = lower(mat, 0, 1);
  const auto& ld = traces[0].ops[2];
  EXPECT_EQ(popcount32(ld.active_mask), 4);
  EXPECT_EQ(ld.addr[10], -1);
}

// The skeleton keeps one ProtoOp per DSL op and lane element indices for
// its memory ops alone (none for compute ops or syncs), and its memoized
// tables keep no lane addresses once built: its footprint is bounded by a
// formula over DSL ops and memory ops, and a table costs only its entries.
TEST(SkeletonFootprint, BoundedByDslOpsAndMemoryOps) {
  using Skel = TraceSkeleton;
  constexpr std::size_t kSlack = 4096;  // headers, per-array bookkeeping
  for (const char* name : {"md5hash", "matrixmul"}) {
    SCOPED_TRACE(name);
    const workloads::BenchmarkCase c = workloads::get_benchmark(name);
    const KernelInfo& k = c.kernel;
    const Skel skeleton(k, kepler_arch());
    std::size_t dsl_ops = 0;
    for (std::size_t w = 0; w < skeleton.num_warps(); ++w)
      dsl_ops += skeleton.proto(w).size();
    std::size_t mem_ops = 0;
    for (std::uint64_t n : skeleton.mem_ops_per_array())
      mem_ops += static_cast<std::size_t>(n);
    const std::size_t warps = skeleton.num_warps();
    const std::size_t arrays = k.arrays.size();
    ASSERT_EQ(warps, static_cast<std::size_t>(k.total_warps()));
    const std::size_t wpb = static_cast<std::size_t>(k.warps_per_block());
    for (std::size_t w = 0; w < warps; ++w) {  // block-major
      EXPECT_EQ(skeleton.warp_ctx(w).block, static_cast<std::int64_t>(w / wpb));
      EXPECT_EQ(skeleton.warp_ctx(w).warp_in_block,
                static_cast<int>(w % wpb));
    }
    // Per warp: its context, its proto and memory-record range starts, its
    // invariant op count and its per-array memory-op counts.
    const std::size_t per_warp = sizeof(WarpCtx) +
                                 3 * sizeof(std::uint32_t) +
                                 arrays * sizeof(std::uint32_t);
    const std::size_t recorded =
        dsl_ops * sizeof(Skel::ProtoOp) +
        mem_ops * (sizeof(Skel::Lanes) + sizeof(Skel::MemRecord)) +
        (warps + 2) * per_warp + kSlack;
    EXPECT_LE(skeleton.footprint_bytes(), recorded);
    // md5hash is nearly all compute: one lane index block per DSL op would
    // cost it over 10x more.
    if (std::string(name) == "md5hash") {
      EXPECT_GT(dsl_ops, 100 * mem_ops);
      EXPECT_LT(skeleton.footprint_bytes() * 10, dsl_ops * sizeof(DslOp));
    }

    // Every table of every array, both layouts: the footprint grows by the
    // tables' exact entries, not by a block of lane addresses per memory op.
    const std::size_t before = skeleton.footprint_bytes();
    std::size_t entries = 0;
    for (std::size_t a = 0; a < arrays; ++a) {
      const int array = static_cast<int>(a);
      for (bool block_linear : {false, true}) {
        if (block_linear && k.arrays[a].width == 0) continue;
        const Skel::LinePool& lp = skeleton.line_pool(array, block_linear);
        ASSERT_EQ(lp.begin.size(), skeleton.mem_ops_per_array()[a] + 1);
        entries += lp.begin.size() * sizeof(std::uint32_t) +
                   lp.lines.size() * sizeof(std::uint64_t);
      }
      entries += skeleton.const_words_pool(array).size();
      entries += skeleton.shared_fold(array).degree.size();
    }
    EXPECT_LE(skeleton.footprint_bytes() - before, entries + kSlack);
  }
}

// The staging preamble's copy-in tables hold one entry per distinct copy
// (block class x chunk), not one per copy a placement executes: on every
// Table IV kernel, for every array that can be staged, the lines table has
// one range per (class, chunk) and the fold one degree per chunk.
TEST(SkeletonFootprint, CopyInTablesHoldOneEntryPerDistinctCopy) {
  std::vector<workloads::BenchmarkCase> cases = workloads::training_suite();
  for (workloads::BenchmarkCase& c : workloads::evaluation_suite())
    cases.push_back(std::move(c));
  const GpuArch& arch = kepler_arch();
  for (const workloads::BenchmarkCase& c : cases) {
    SCOPED_TRACE(c.name);
    const KernelInfo& k = c.kernel;
    const TraceSkeleton skeleton(k, arch);
    for (std::size_t a = 0; a < k.arrays.size(); ++a) {
      const int array = static_cast<int>(a);
      const std::vector<MemSpace> spaces = legal_spaces(k, array, arch);
      if (k.arrays[a].default_space == MemSpace::Shared ||
          std::find(spaces.begin(), spaces.end(), MemSpace::Shared) ==
              spaces.end())
        continue;
      SCOPED_TRACE(k.arrays[a].name);
      const std::size_t chunks = skeleton.copy_in_chunks(array);
      EXPECT_EQ(skeleton.copy_in_lines(array).begin.size(),
                skeleton.copy_in_classes(array) * chunks + 1);
      EXPECT_EQ(skeleton.copy_in_fold(array).degree.size(), chunks);
    }
  }
}

}  // namespace
}  // namespace gpuhms
