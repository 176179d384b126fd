// Status/StatusOr core and the non-aborting validate()/try_* API surface:
// malformed kernels, placements, arch configs and measurements must come
// back as descriptive Status values (never aborts), with the offending
// entity named in the message and call-site context attached via annotate().
#include "common/status.hpp"

#include <gtest/gtest.h>

#include "arch/gpu_arch.hpp"
#include "model/search.hpp"
#include "sim/counters.hpp"
#include "workloads/workloads.hpp"

namespace gpuhms {
namespace {

// --- Status / StatusOr mechanics --------------------------------------------

TEST(Status, DefaultIsOk) {
  const Status st;
  EXPECT_TRUE(st.ok());
  EXPECT_EQ(st.code(), StatusCode::kOk);
  EXPECT_EQ(OkStatus(), st);
}

TEST(Status, HelpersCarryCodeAndMessage) {
  EXPECT_EQ(InvalidArgumentError("x").code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(FailedPreconditionError("x").code(),
            StatusCode::kFailedPrecondition);
  EXPECT_EQ(ResourceExhaustedError("x").code(),
            StatusCode::kResourceExhausted);
  EXPECT_EQ(DeadlineExceededError("x").code(), StatusCode::kDeadlineExceeded);
  EXPECT_EQ(CancelledError("x").code(), StatusCode::kCancelled);
  EXPECT_EQ(InternalError("x").code(), StatusCode::kInternal);
  EXPECT_EQ(DataLossError("x").code(), StatusCode::kDataLoss);
  EXPECT_EQ(InvalidArgumentError("bad input").message(), "bad input");
}

TEST(Status, ToStringNamesTheCode) {
  EXPECT_EQ(InvalidArgumentError("bad placement").to_string(),
            "INVALID_ARGUMENT: bad placement");
  EXPECT_EQ(OkStatus().to_string(), "OK");
}

TEST(Status, AnnotateChainsInnermostFirst) {
  Status st = DataLossError("truncated record");
  st.annotate("reading trace 'a.trace'").annotate("loading benchmark");
  EXPECT_EQ(st.to_string(),
            "DATA_LOSS: truncated record (while reading trace 'a.trace'; "
            "while loading benchmark)");
  // Annotating OK is a no-op.
  Status ok;
  ok.annotate("anything");
  EXPECT_TRUE(ok.ok());
  EXPECT_EQ(ok.to_string(), "OK");
}

TEST(StatusOr, HoldsValueOrStatus) {
  StatusOr<int> v(42);
  ASSERT_TRUE(v.ok());
  EXPECT_EQ(*v, 42);
  EXPECT_TRUE(v.status().ok());
  EXPECT_EQ(v.value_or(-1), 42);

  const StatusOr<int> e(InvalidArgumentError("nope"));
  EXPECT_FALSE(e.ok());
  EXPECT_EQ(e.status().code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(e.value_or(-1), -1);
}

TEST(StatusOr, ReturnIfErrorMacroPropagates) {
  auto inner = []() -> Status { return InternalError("boom"); };
  auto outer = [&]() -> Status {
    GPUHMS_RETURN_IF_ERROR(inner());
    return OkStatus();
  };
  EXPECT_EQ(outer().code(), StatusCode::kInternal);

  auto make = [](bool ok) -> StatusOr<int> {
    if (!ok) return InvalidArgumentError("no value");
    return 7;
  };
  auto chain = [&](bool ok) -> StatusOr<int> {
    GPUHMS_ASSIGN_OR_RETURN(const int x, make(ok));
    return x + 1;
  };
  EXPECT_EQ(*chain(true), 8);
  EXPECT_EQ(chain(false).status().code(), StatusCode::kInvalidArgument);
}

// --- validate() entry points -------------------------------------------------

TEST(Validate, ArchRejectsNonPositiveFieldsByName) {
  GpuArch arch = kepler_arch();
  EXPECT_TRUE(validate(arch).ok());
  arch.num_sms = 0;
  const Status st = validate(arch);
  EXPECT_EQ(st.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(st.message().find("num_sms"), std::string::npos) << st.to_string();
}

// An SM index is 16 bits in a lowered record; a larger count would fold two
// SMs onto one SM's texture and constant caches.
TEST(Validate, ArchRejectsMoreSmsThanTheRecordIndexHolds) {
  GpuArch arch = kepler_arch();
  arch.num_sms = kMaxSms;
  EXPECT_TRUE(validate(arch).ok());
  arch.num_sms = kMaxSms + 1;
  const Status st = validate(arch);
  EXPECT_EQ(st.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(st.message().find("num_sms"), std::string::npos) << st.to_string();
}

TEST(Validate, ArchRejectsNonWarpSize32AndOddCacheLine) {
  GpuArch arch = kepler_arch();
  arch.warp_size = 16;
  EXPECT_EQ(validate(arch).code(), StatusCode::kInvalidArgument);
  arch = kepler_arch();
  arch.cache_line = 100;  // not a power of two
  EXPECT_EQ(validate(arch).code(), StatusCode::kInvalidArgument);
}

// The cache model needs a whole, positive number of cache_line x ways sets
// and at most kMaxCacheWays ways: an L2 with no set would abort in the
// cache's constructor, and a remainder would be silently dropped.
TEST(Validate, ArchRejectsCachesOfNoWholeSets) {
  GpuArch arch = kepler_arch();
  arch.l2_capacity = 1000;  // less than one 128 B x 16-way set
  Status st = validate(arch);
  EXPECT_EQ(st.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(st.message().find("l2_capacity"), std::string::npos)
      << st.to_string();

  arch = kepler_arch();
  arch.tex_cache_capacity = 24 * 1024 + 64;  // 24 sets and 64 bytes over
  st = validate(arch);
  EXPECT_EQ(st.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(st.message().find("tex_cache_capacity"), std::string::npos)
      << st.to_string();

  arch = kepler_arch();
  arch.const_cache_ways = kMaxCacheWays + 1;
  arch.const_cache_capacity = arch.cache_line * (kMaxCacheWays + 1);
  st = validate(arch);
  EXPECT_EQ(st.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(st.message().find("const_cache_ways"), std::string::npos)
      << st.to_string();

  arch = kepler_arch();
  arch.l2_ways = kMaxCacheWays;
  arch.l2_capacity = arch.cache_line * kMaxCacheWays * 4;
  EXPECT_TRUE(validate(arch).ok());
}

TEST(Validate, KernelRejectsMissingFnAndBadGeometry) {
  KernelInfo k = workloads::make_vecadd(1 << 10);
  EXPECT_TRUE(validate(k).ok());

  KernelInfo no_fn = k;
  no_fn.fn = nullptr;
  EXPECT_EQ(validate(no_fn).code(), StatusCode::kInvalidArgument);

  KernelInfo zero_blocks = k;
  zero_blocks.num_blocks = 0;
  EXPECT_EQ(validate(zero_blocks).code(), StatusCode::kInvalidArgument);
}

TEST(Validate, KernelNamesTheOffendingArray) {
  KernelInfo k = workloads::make_vecadd(1 << 10);
  k.arrays[1].elems = 0;
  const Status st = validate(k);
  ASSERT_EQ(st.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(st.message().find(k.arrays[1].name), std::string::npos)
      << st.to_string();

  KernelInfo dup = workloads::make_vecadd(1 << 10);
  dup.arrays[1].name = dup.arrays[0].name;
  EXPECT_EQ(validate(dup).code(), StatusCode::kInvalidArgument);
}

TEST(Validate, PlacementRejectsSizeMismatchAndIllegalSpace) {
  const KernelInfo k = workloads::make_vecadd(1 << 10);
  const GpuArch& arch = kepler_arch();
  EXPECT_TRUE(validate(k, DataPlacement::defaults(k), arch).ok());

  const DataPlacement short_p(std::vector<MemSpace>{MemSpace::Global});
  const Status mismatch = validate(k, short_p, arch);
  ASSERT_EQ(mismatch.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(mismatch.message().find(k.name), std::string::npos);

  // vecadd writes its output array: read-only spaces are illegal for it.
  DataPlacement p = DataPlacement::defaults(k);
  for (std::size_t a = 0; a < k.arrays.size(); ++a) {
    if (!k.arrays[a].written) continue;
    p.set(static_cast<int>(a), MemSpace::Constant);
    const Status st = validate(k, p, arch);
    EXPECT_EQ(st.code(), StatusCode::kInvalidArgument);
    EXPECT_NE(st.message().find(k.arrays[a].name), std::string::npos)
        << st.to_string();
    break;
  }
}

TEST(Validate, SimResultRejectsInconsistentCounters) {
  const KernelInfo k = workloads::make_vecadd(1 << 10);
  SimResult r = simulate(k, DataPlacement::defaults(k), kepler_arch());
  EXPECT_TRUE(validate(r).ok());

  SimResult zero_cycles = r;
  zero_cycles.cycles = 0;
  EXPECT_EQ(validate(zero_cycles).code(), StatusCode::kInvalidArgument);

  SimResult broken = r;
  broken.counters.inst_issued = broken.counters.inst_executed - 1;
  EXPECT_EQ(validate(broken).code(), StatusCode::kInvalidArgument);
}

// --- Predictor try_* surface -------------------------------------------------

TEST(TryApi, PredictBeforeSampleIsFailedPrecondition) {
  const KernelInfo k = workloads::make_vecadd(1 << 10);
  Predictor pred(k, kepler_arch());
  EXPECT_FALSE(pred.has_sample());
  const auto r = pred.try_predict(DataPlacement::defaults(k));
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kFailedPrecondition);
  EXPECT_NE(r.status().message().find(k.name), std::string::npos);
}

TEST(TryApi, SetSampleValidatesMeasurementAndPlacement) {
  const KernelInfo k = workloads::make_vecadd(1 << 10);
  Predictor pred(k, kepler_arch());
  const DataPlacement sample = DataPlacement::defaults(k);

  SimResult bogus;  // zero cycles, zero warps
  EXPECT_EQ(pred.try_set_sample(sample, bogus).code(),
            StatusCode::kInvalidArgument);
  EXPECT_FALSE(pred.has_sample());

  const DataPlacement short_p(std::vector<MemSpace>{MemSpace::Global});
  const SimResult good = simulate(k, sample, kepler_arch());
  EXPECT_EQ(pred.try_set_sample(short_p, good).code(),
            StatusCode::kInvalidArgument);

  EXPECT_TRUE(pred.try_set_sample(sample, good).ok());
  EXPECT_TRUE(pred.has_sample());
}

// A kernel whose warps emit nothing simulates to zero cycles. Profiling it
// must reject the sample exactly as injecting that measurement does, and
// leave no sample behind: predict and search then answer
// FAILED_PRECONDITION instead of scoring against an empty calibration.
TEST(TryApi, ProfilingAnEmptyKernelIsRejectedLikeSettingIt) {
  KernelInfo k = workloads::make_vecadd(1 << 10);
  k.name = "empty";
  k.fn = [](WarpEmitter&, const WarpCtx&) {};
  const DataPlacement sample = DataPlacement::defaults(k);
  Predictor pred(k, kepler_arch());

  const Status profiled = pred.try_profile_sample(sample);
  EXPECT_EQ(profiled.code(), StatusCode::kInvalidArgument)
      << profiled.to_string();
  EXPECT_FALSE(pred.has_sample());
  EXPECT_EQ(pred.try_set_sample(sample, simulate(k, sample, kepler_arch()))
                .code(),
            StatusCode::kInvalidArgument);
  EXPECT_FALSE(pred.has_sample());

  EXPECT_EQ(pred.try_predict(sample).status().code(),
            StatusCode::kFailedPrecondition);
  EXPECT_EQ(try_search(pred, SearchAlgo::kBnb).status().code(),
            StatusCode::kFailedPrecondition);
}

TEST(TryApi, TryPredictMatchesPredict) {
  const KernelInfo k = workloads::make_vecadd(1 << 10);
  Predictor pred(k, kepler_arch());
  ASSERT_TRUE(pred.try_profile_sample(DataPlacement::defaults(k)).ok());
  const auto space = enumerate_placements(k, kepler_arch(), 8);
  for (const auto& p : space) {
    const auto r = pred.try_predict(p);
    ASSERT_TRUE(r.ok()) << r.status().to_string();
    EXPECT_EQ(r->total_cycles, pred.predict(p).total_cycles);
  }
  // Batch variant agrees too and validates each target.
  const auto batch = pred.try_predict_batch(space);
  ASSERT_TRUE(batch.ok()) << batch.status().to_string();
  ASSERT_EQ(batch->size(), space.size());
  for (std::size_t i = 0; i < space.size(); ++i)
    EXPECT_EQ((*batch)[i].total_cycles, pred.predict(space[i]).total_cycles);

  std::vector<DataPlacement> bad = {space[0],
                                    DataPlacement(std::vector<MemSpace>{})};
  const auto bad_batch = pred.try_predict_batch(bad);
  ASSERT_FALSE(bad_batch.ok());
  EXPECT_EQ(bad_batch.status().code(), StatusCode::kInvalidArgument);
  // The error names the offending batch index.
  EXPECT_NE(bad_batch.status().context().find("#1"), std::string::npos)
      << bad_batch.status().to_string();
}

TEST(TryApi, IllegalTargetPlacementIsInvalidArgument) {
  const KernelInfo k = workloads::make_vecadd(1 << 10);
  Predictor pred(k, kepler_arch());
  ASSERT_TRUE(pred.try_profile_sample(DataPlacement::defaults(k)).ok());
  DataPlacement p = DataPlacement::defaults(k);
  for (std::size_t a = 0; a < k.arrays.size(); ++a) {
    if (!k.arrays[a].written) continue;
    p.set(static_cast<int>(a), MemSpace::Texture1D);
    break;
  }
  const auto r = pred.try_predict(p);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
}

// --- try_search: the one Status boundary over the search cores -------------

// The aborting per-algorithm core try_search wraps, and the verb its errors
// are annotated with.
struct AlgoCase {
  SearchAlgo algo;
  SearchResult (*core)(const Predictor&, const SearchOptions&);
  const char* verb;
};

const AlgoCase kAlgoCases[] = {
    {SearchAlgo::kExhaustive, search_exhaustive, "searching"},
    {SearchAlgo::kBnb, search_branch_and_bound, "branch-and-bound searching"},
};

TEST(TryApi, SearchWithoutSampleIsFailedPrecondition) {
  const KernelInfo k = workloads::make_vecadd(1 << 10);
  const Predictor pred(k, kepler_arch());
  for (const AlgoCase& c : kAlgoCases) {
    SCOPED_TRACE(std::string(to_string(c.algo)));
    const auto r = try_search(pred, c.algo);
    ASSERT_FALSE(r.ok());
    EXPECT_EQ(r.status().code(), StatusCode::kFailedPrecondition);
    EXPECT_EQ(r.status().context(),
              std::string(c.verb) + " placements of kernel '" + k.name + "'");
  }
}

TEST(TryApi, TrySearchMatchesAbortingSearch) {
  // neuralnet, because branch-and-bound cuts subtrees there: the pruning
  // tally is compared on a non-zero value.
  const workloads::BenchmarkCase bench = workloads::get_benchmark("neuralnet");
  Predictor pred(bench.kernel, kepler_arch());
  pred.profile_sample(bench.sample);
  SearchOptions o;
  o.cap = 16;
  o.num_threads = 2;
  for (const AlgoCase& c : kAlgoCases) {
    SCOPED_TRACE(std::string(to_string(c.algo)));
    const SearchResult plain = c.core(pred, o);
    const auto tried = try_search(pred, c.algo, o);
    ASSERT_TRUE(tried.ok()) << tried.status().to_string();
    EXPECT_EQ(tried->placement, plain.placement);
    EXPECT_EQ(tried->predicted_cycles, plain.predicted_cycles);
    EXPECT_EQ(tried->evaluated, plain.evaluated);
    EXPECT_EQ(tried->lower_bound, plain.lower_bound);
    EXPECT_EQ(tried->nodes_expanded, plain.nodes_expanded);
    EXPECT_EQ(tried->pruned_subtrees, plain.pruned_subtrees);
    if (c.algo == SearchAlgo::kBnb) {
      EXPECT_GT(plain.pruned_subtrees, 0u);
    }
  }
}

}  // namespace
}  // namespace gpuhms
