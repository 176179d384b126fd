// E11 — component microbenchmarks (google-benchmark): throughput of the hot
// paths every experiment leans on — cache simulation, DRAM timing, address
// decoding, coalescing, trace materialization, a full simulator run, the
// trace analysis (uncached and from a recorded skeleton), skeleton recording
// and T_overlap training.
#include <benchmark/benchmark.h>

#include "cache/cache.hpp"
#include "common/rng.hpp"
#include "common/thread_pool.hpp"
#include "dram/gddr.hpp"
#include "model/predictor.hpp"
#include "model/queuing.hpp"
#include "model/trace_analysis.hpp"
#include "sim/coalesce.hpp"
#include "sim/simulator.hpp"
#include "workloads/workloads.hpp"

namespace {

using namespace gpuhms;

void BM_CacheAccess(benchmark::State& state) {
  SetAssocCache cache(l2_config(kepler_arch()));
  Rng rng(1);
  std::vector<std::uint64_t> addrs(4096);
  for (auto& a : addrs) a = rng.next_below(1ull << 24);
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(cache.access(addrs[i++ & 4095]));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_CacheAccess);

void BM_AddressDecode(benchmark::State& state) {
  const auto m = kepler_mapping(kepler_arch());
  Rng rng(2);
  std::vector<std::uint64_t> addrs(4096);
  for (auto& a : addrs) a = rng.next_below(1ull << 33);
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(m.decode(addrs[i++ & 4095]));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_AddressDecode);

void BM_GddrAccess(benchmark::State& state) {
  GddrSystem gddr(kepler_arch(), kepler_mapping(kepler_arch()));
  Rng rng(3);
  std::uint64_t t = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        gddr.access((rng.next_below(1ull << 24)) * 128, t));
    t += 2;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_GddrAccess);

void BM_CoalesceWarp(benchmark::State& state) {
  const int stride = static_cast<int>(state.range(0));
  TraceOp op;
  op.cls = OpClass::Load;
  op.active_mask = 0xffffffffu;
  for (int l = 0; l < kWarpSize; ++l)
    op.addr[static_cast<std::size_t>(l)] = l * stride;
  std::vector<std::uint64_t> lines;
  for (auto _ : state) {
    coalesce_lines(op, 128, lines);
    benchmark::DoNotOptimize(lines.data());
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_CoalesceWarp)->Arg(4)->Arg(128)->Arg(512);

void BM_KingmanDelay(benchmark::State& state) {
  GG1Bank b;
  b.tau_a = 120.0;
  b.sigma_a = 200.0;
  b.tau_s = 60.0;
  b.sigma_s = 45.0;
  b.lambda = 1.0 / 120.0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(kingman_queue_delay(b));
  }
}
BENCHMARK(BM_KingmanDelay);

void BM_TraceMaterialize(benchmark::State& state) {
  const KernelInfo k = workloads::make_vecadd(1 << 12);
  const auto p = DataPlacement::defaults(k);
  const TraceMaterializer mat(k, p, kepler_arch());
  const TraceSkeleton skeleton(k, kepler_arch());
  for (auto _ : state) {
    benchmark::DoNotOptimize(mat.generate(skeleton, 0, 4));
  }
  state.SetItemsProcessed(state.iterations() * 4);
}
BENCHMARK(BM_TraceMaterialize);

void BM_SimulateVecadd(benchmark::State& state) {
  const KernelInfo k = workloads::make_vecadd(1 << state.range(0));
  const auto p = DataPlacement::defaults(k);
  for (auto _ : state) {
    benchmark::DoNotOptimize(simulate(k, p));
  }
}
BENCHMARK(BM_SimulateVecadd)->Arg(12)->Arg(14);

void BM_AnalyzeTrace(benchmark::State& state) {
  const KernelInfo k = workloads::make_vecadd(1 << 13);
  const auto p = DataPlacement::defaults(k);
  for (auto _ : state) {
    benchmark::DoNotOptimize(analyze_trace(k, p, kepler_arch()));
  }
}
BENCHMARK(BM_AnalyzeTrace);

// The analysis every search candidate and training case runs: matrixmul's
// skeleton recorded once, and one TraceAnalyzer replaying it through the
// SoA lowering for the sample and every test placement. BM_AnalyzeTrace
// above times the uncached full walk, which only the tests use.
void BM_AnalyzeTraceSkeleton(benchmark::State& state) {
  const workloads::BenchmarkCase c = workloads::get_benchmark("matrixmul");
  const TraceSkeleton skeleton(c.kernel, kepler_arch());
  TraceAnalyzer analyzer(c.kernel, kepler_arch());
  std::vector<DataPlacement> placements = {c.sample};
  for (const auto& t : c.tests) placements.push_back(t.placement);
  for (auto _ : state) {
    for (const DataPlacement& p : placements)
      benchmark::DoNotOptimize(analyzer.analyze(p, &skeleton));
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(placements.size()));
}
BENCHMARK(BM_AnalyzeTraceSkeleton)->Unit(benchmark::kMicrosecond);

// Skeleton recording: runs matrixmul's DSL for every warp and interns the
// lane patterns of its memory ops.
void BM_SkeletonRecord(benchmark::State& state) {
  const workloads::BenchmarkCase c = workloads::get_benchmark("matrixmul");
  for (auto _ : state) {
    const TraceSkeleton skeleton(c.kernel, kepler_arch());
    benchmark::DoNotOptimize(skeleton.num_warps());
  }
}
BENCHMARK(BM_SkeletonRecord)->Unit(benchmark::kMillisecond);

// T_overlap training at start-up: simulates and analyzes every training
// case on one thread.
void BM_TrainOverlapOneThread(benchmark::State& state) {
  const std::vector<workloads::BenchmarkCase> training =
      workloads::training_suite();
  std::vector<TrainingCase> cases;
  for (const auto& c : training) {
    cases.push_back({&c.kernel, c.sample});
    for (const auto& t : c.tests) cases.push_back({&c.kernel, t.placement});
  }
  ThreadPool pool(1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        train_overlap_model(cases, kepler_arch(), ModelOptions{}, 1e-3, &pool));
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(cases.size()));
}
BENCHMARK(BM_TrainOverlapOneThread)->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
