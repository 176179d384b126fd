#include "trace/generator.hpp"

#include <algorithm>
#include <numeric>

#include <gtest/gtest.h>

#include "arch/arch_registry.hpp"
#include "isa/addressing.hpp"
#include "sim/coalesce.hpp"
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

// Every Table IV case: the training suite, then the evaluation suite.
std::vector<workloads::BenchmarkCase> table_iv_cases() {
  std::vector<workloads::BenchmarkCase> cases = workloads::training_suite();
  for (workloads::BenchmarkCase& c : workloads::evaluation_suite())
    cases.push_back(std::move(c));
  return cases;
}

// Lanes that descend (each active lane one element below its predecessor)
// with every third lane masked off, so an active lane sits one element
// below the op's first lane right next to an inactive lane; a fully masked
// op; and a store that skips lane 0. Bases differ per warp, and array x's
// shared slice wraps under some of them; at 40 elements (160 bytes, not a
// whole number of bank rotations) a wrapped lane changes bank.
KernelInfo descending_masked_kernel() {
  KernelInfo k = one_load_kernel();
  k.arrays[0].shared_slice_elems = 40;
  k.fn = [](WarpEmitter& em, const WarpCtx& ctx) {
    const std::int64_t top = 1000 + 29 * ctx.warp_global_id();
    em.load(0, em.by_lane([&](int l) {
      return l % 3 == 2 ? kInactiveLane : top - l;
    }));
    em.load(0, em.by_lane([](int) { return kInactiveLane; }));
    em.falu(1, true);
    em.store(1, em.by_lane([&](int l) {
      return l == 0 ? kInactiveLane : top - 31 + l;
    }));
  };
  return k;
}

// Re-records every warp of `k` and counts the memory ops whose interned
// lanes differ from the DSL's lane indices, inactive lanes included.
std::size_t lane_mismatches(const KernelInfo& k,
                            const TraceSkeleton& skeleton) {
  std::vector<std::uint32_t> ordinal(k.arrays.size(), 0);
  std::vector<DslOp> ops;
  std::size_t bad = 0;
  for (std::int64_t b = 0; b < k.num_blocks; ++b) {
    for (int w = 0; w < k.warps_per_block(); ++w) {
      record_warp(k, b, w, ops);
      for (const DslOp& op : ops) {
        if (!is_memory(op.cls)) continue;
        const TraceSkeleton::Lanes got = skeleton.lane_idx(
            op.array, ordinal[static_cast<std::size_t>(op.array)]++);
        if (!std::equal(got.begin(), got.end(), op.idx.begin())) {
          if (bad++ == 0)
            ADD_FAILURE() << "first mismatch: array " << op.array
                          << ", block " << b << ", warp " << w;
        }
      }
    }
  }
  for (std::size_t a = 0; a < k.arrays.size(); ++a)
    EXPECT_EQ(ordinal[a], skeleton.mem_ops_per_array()[a]);
  return bad;
}

// Counts the table entries of every array of `k`'s skeleton for `arch` that
// differ from a per-op recomputation from lane_idx: line pools (both
// layouts) through coalesce_lines_buf, constant words through
// distinct_words, shared degrees and their fold through
// shared_conflict_degree.
std::size_t table_mismatches(const KernelInfo& k, const GpuArch& arch) {
  const TraceSkeleton skeleton(k, arch);
  const DataPlacement offchip(
      std::vector<MemSpace>(k.arrays.size(), MemSpace::Global));
  const MemoryLayout layout(k, offchip, arch);
  std::size_t bad = 0;
  const auto check = [&](bool same, const char* table, std::size_t a,
                         std::uint32_t ordinal) {
    if (!same && bad++ == 0)
      ADD_FAILURE() << "first mismatch: " << table << " of array " << a
                    << ", ordinal " << ordinal << ", arch line "
                    << arch.cache_line << " banks " << arch.shared_banks;
  };
  for (std::size_t a = 0; a < k.arrays.size(); ++a) {
    const int array = static_cast<int>(a);
    const ArrayDecl& arr = k.arrays[a];
    const std::uint64_t base = layout.device_base(array);
    const std::int64_t slice = shared_slice_elems(arr);
    const std::int64_t esize = static_cast<std::int64_t>(arr.elem_size());
    const TraceSkeleton::LinePool& pitch = skeleton.line_pool(array, false);
    const TraceSkeleton::LinePool* block =
        arr.width > 0 ? &skeleton.line_pool(array, true) : nullptr;
    const std::span<const std::uint8_t> words =
        skeleton.const_words_pool(array);
    const TraceSkeleton::SharedFold& fold =
        skeleton.shared_fold(array, arch.shared_banks);
    const std::size_t n = skeleton.mem_ops_per_array()[a];
    EXPECT_EQ(pitch.begin.size(), n + 1);
    EXPECT_EQ(words.size(), n);
    EXPECT_EQ(fold.degree.size(), n);
    std::uint64_t conflict_sum = 0;
    std::int64_t addr[kWarpSize];
    std::uint64_t buf[kWarpSize];
    for (std::uint32_t o = 0; o < n; ++o) {
      const TraceSkeleton::Lanes idx = skeleton.lane_idx(array, o);
      std::uint32_t mask = 0;
      for (int l = 0; l < kWarpSize; ++l)
        if (idx[static_cast<std::size_t>(l)] != kInactiveLane) mask |= 1u << l;
      const auto fill = [&](auto&& to) {
        for (int l = 0; l < kWarpSize; ++l) {
          const std::int64_t e = idx[static_cast<std::size_t>(l)];
          addr[l] = e == kInactiveLane ? -1 : static_cast<std::int64_t>(to(e));
        }
      };
      const auto lines_match = [&](const TraceSkeleton::LinePool& lp) {
        const int m = mask == 0 ? 0
                                : coalesce_lines_buf(mask, addr,
                                                     arch.cache_line, buf);
        return std::equal(lp.lines.begin() + lp.begin[o],
                          lp.lines.begin() + lp.begin[o + 1], buf, buf + m);
      };
      fill([&](std::int64_t e) { return base + pitch_linear_offset(arr, e); });
      check(lines_match(pitch), "pitch-linear lines", a, o);
      check(words[o] == (mask == 0 ? 0 : distinct_words(mask, addr)),
            "constant words", a, o);
      if (block != nullptr) {
        fill([&](std::int64_t e) {
          return base + block_linear_offset(arr, e);
        });
        check(lines_match(*block), "block-linear lines", a, o);
      }
      fill([&](std::int64_t e) { return e % slice * esize; });
      const int degree =
          mask == 0 ? 1 : shared_conflict_degree(mask, addr, arch.shared_banks);
      check(fold.degree[o] == degree, "shared degree", a, o);
      if (mask != 0) conflict_sum += static_cast<std::uint64_t>(degree - 1);
    }
    EXPECT_EQ(fold.conflict_sum, conflict_sum) << "array " << a;
  }
  return bad;
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
  // Threadsafe: the sanitizer binaries that compile this file run threads.
  testing::GTEST_FLAG(death_test_style) = "threadsafe";
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

// The skeleton keeps one ProtoOp per DSL op, and for its memory ops alone
// (none for compute ops or syncs) 8 bytes plus its array's distinct lane
// patterns, and its memoized tables keep no lane addresses once built: its
// footprint is bounded by a formula over DSL ops, memory ops and patterns,
// and a table costs only its entries.
TEST(SkeletonFootprint, BoundedByDslOpsAndMemoryOps) {
  using Skel = TraceSkeleton;
  constexpr std::size_t kSlack = 4096;  // headers, per-array bookkeeping
  constexpr std::size_t kLaneBytesPerOp = 8;  // base + pattern id
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
    std::size_t patterns = 0;
    for (std::size_t a = 0; a < arrays; ++a)
      patterns += skeleton.lane_patterns(static_cast<int>(a));
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
        mem_ops * (kLaneBytesPerOp + sizeof(Skel::MemRecord)) +
        patterns * sizeof(Skel::Lanes) + (warps + 2) * per_warp + kSlack;
    EXPECT_LE(skeleton.footprint_bytes(), recorded);
    // md5hash is nearly all compute: one lane index block per DSL op would
    // cost it over 10x more.
    if (std::string(name) == "md5hash") {
      EXPECT_GT(dsl_ops, 100 * mem_ops);
      EXPECT_LT(skeleton.footprint_bytes() * 10, dsl_ops * sizeof(DslOp));
    }
    // matrixmul's 62,496 memory ops repeat a handful of lane shapes.
    if (std::string(name) == "matrixmul") {
      EXPECT_GT(mem_ops, 60000u);
      EXPECT_LE(patterns, 16u);
    }

    // Every table of every array, both layouts and two bank counts: the
    // footprint grows by the tables' exact entries (each counted), not by a
    // block of lane addresses per memory op.
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
      // Each bank count's fold slot counts once built: kepler's and hbm2's.
      for (int banks : {32, 16})
        entries += skeleton.shared_fold(array, banks).degree.size();
    }
    EXPECT_LE(skeleton.footprint_bytes() - before, entries + kSlack);
    EXPECT_GE(skeleton.footprint_bytes() - before, entries);
  }
}

// The 17 Table IV skeletons a kepler server holds, as recorded (before any
// table builds), fit in 20 MB: a count of the skeletons' own bytes, which
// allocation order does not move.
TEST(SkeletonFootprint, TableIvSkeletonsFitInTwentyMegabytes) {
  const std::vector<workloads::BenchmarkCase> cases = table_iv_cases();
  ASSERT_EQ(cases.size(), 17u);
  std::size_t total = 0;
  for (const workloads::BenchmarkCase& c : cases)
    total += TraceSkeleton(c.kernel, kepler_arch()).footprint_bytes();
  EXPECT_LE(total, std::size_t{20} * 1000 * 1000);
}

// --- lane interning ----------------------------------------------------------

// Descending and masked lanes survive interning exactly: an active lane one
// element below the op's first lane must not read as inactive.
TEST(LaneInterning, DescendingAndMaskedLanesRoundTrip) {
  const KernelInfo k = descending_masked_kernel();
  const TraceSkeleton skeleton(k, kepler_arch());
  EXPECT_EQ(lane_mismatches(k, skeleton), 0u);
  // Both arrays' ops repeat one shape per op position across the warps.
  EXPECT_EQ(skeleton.lane_patterns(0), 2u);
  EXPECT_EQ(skeleton.lane_patterns(1), 1u);
  // The interned lanes give back every DSL op's active mask.
  for (std::size_t w = 0; w < skeleton.num_warps(); ++w) {
    for (const TraceSkeleton::ProtoOp& p : skeleton.proto(w)) {
      if (!is_memory(p.cls)) continue;
      const TraceSkeleton::Lanes idx = skeleton.lane_idx(p.array, p.ordinal);
      LaneIdx wide{};
      std::copy(idx.begin(), idx.end(), wide.begin());
      EXPECT_EQ(active_mask_of(wide), p.active_mask);
    }
  }
}

// For every Table IV kernel on kepler, every memory op's interned lanes
// equal the lane indices its warp records.
TEST(LaneInterning, TableIvKernelsRoundTripEveryMemoryOp) {
  for (const workloads::BenchmarkCase& c : table_iv_cases()) {
    SCOPED_TRACE(c.name);
    const TraceSkeleton skeleton(c.kernel, kepler_arch());
    EXPECT_EQ(lane_mismatches(c.kernel, skeleton), 0u);
  }
}

// The per-pattern table builders equal a per-op recomputation: on the
// synthetic kernel (whose shared slice wraps under some bases) and on every
// Table IV kernel, for every registered arch.
TEST(SkeletonTables, DescendingAndMaskedLanesMatchPerOpRecomputation) {
  const KernelInfo k = descending_masked_kernel();
  for (const std::string& name : ArchRegistry::builtin().names()) {
    SCOPED_TRACE(name);
    EXPECT_EQ(table_mismatches(k, ArchRegistry::builtin().find(name)->arch),
              0u);
  }
}

TEST(SkeletonTables, EveryWorkloadMatchesPerOpRecomputation) {
  for (const workloads::BenchmarkCase& c : table_iv_cases()) {
    SCOPED_TRACE(c.name);
    for (const std::string& name : ArchRegistry::builtin().names()) {
      SCOPED_TRACE(name);
      EXPECT_EQ(
          table_mismatches(c.kernel, ArchRegistry::builtin().find(name)->arch),
          0u);
    }
  }
}

// The staging preamble's copy-in tables hold one entry per distinct copy
// (block class x chunk), not one per copy a placement executes: on every
// Table IV kernel, for every array that can be staged, the lines table has
// one range per (class, chunk) and the fold one degree per chunk.
TEST(SkeletonFootprint, CopyInTablesHoldOneEntryPerDistinctCopy) {
  const GpuArch& arch = kepler_arch();
  for (const workloads::BenchmarkCase& c : table_iv_cases()) {
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
      EXPECT_EQ(skeleton.copy_in_fold(array, arch.shared_banks).degree.size(),
                chunks);
    }
  }
}

}  // namespace
}  // namespace gpuhms
