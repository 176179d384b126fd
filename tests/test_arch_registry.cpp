// ArchRegistry battery (DESIGN §16): registry semantics, the differential
// golden lock-in of the default backend against the historical hardwired
// Kepler path, one kepler recording replaying every registered arch bit for
// bit and the refusal of one recorded at another cache-line size, the
// registry's rejection of shared-bank geometries the SoA fold cannot
// handle, and the serve layer's sharing of one recording between a
// benchmark's kernel entries on every arch of one cache-line size.
//
// Naming note: the exhaustive differential sweeps carry "EveryWorkload" in
// their test names so the sanitizer rebuilds (which filter -*EveryWorkload*)
// skip them — they re-run code paths the cheap cases already instrument.
#include "arch/arch_registry.hpp"

#include <algorithm>
#include <atomic>
#include <iterator>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/hashing.hpp"
#include "common/obs.hpp"
#include "common/rng.hpp"
#include "dram/address_mapping.hpp"
#include "model/predictor.hpp"
#include "model/trace_analysis.hpp"
#include "serve/service.hpp"
#include "sim/simulator.hpp"
#include "sim_compare.hpp"
#include "trace/generator.hpp"
#include "workloads/workloads.hpp"

namespace gpuhms {
namespace {

// --- registry semantics ------------------------------------------------------

TEST(ArchRegistry, BuiltinRegistersTheDocumentedBackends) {
  const ArchRegistry& r = ArchRegistry::builtin();
  ASSERT_GE(r.size(), 3u);
  const std::vector<std::string> names = r.names();
  EXPECT_EQ(names, (std::vector<std::string>{"kepler", "fermi", "maxwell",
                                             "hbm2"}));
  EXPECT_EQ(r.default_backend().name, "kepler");
  for (const std::string& name : names) {
    const ArchBackend* b = r.find(name);
    ASSERT_NE(b, nullptr) << name;
    EXPECT_EQ(b->name, name);
    EXPECT_FALSE(b->summary.empty()) << name;
    EXPECT_TRUE(validate(b->arch).ok()) << name;
  }
}

TEST(ArchRegistry, FindUnknownReturnsNull) {
  EXPECT_EQ(ArchRegistry::builtin().find("volta"), nullptr);
  EXPECT_EQ(ArchRegistry::builtin().find(""), nullptr);
  EXPECT_EQ(ArchRegistry::builtin().find("Kepler"), nullptr);  // exact match
}

TEST(ArchRegistry, TryFindUnknownListsRegisteredNames) {
  const auto got = ArchRegistry::builtin().try_find("volta");
  ASSERT_FALSE(got.ok());
  EXPECT_EQ(got.status().code(), StatusCode::kInvalidArgument);
  // The serve layer forwards this message verbatim; it must name every
  // backend so a client can self-correct.
  for (const std::string& name : ArchRegistry::builtin().names()) {
    EXPECT_NE(got.status().message().find(name), std::string::npos) << name;
  }
}

TEST(ArchRegistry, TryFindKnownReturnsBackend) {
  const auto got = ArchRegistry::builtin().try_find("hbm2");
  ASSERT_TRUE(got.ok());
  EXPECT_EQ((*got)->name, "hbm2");
}

TEST(ArchRegistry, AddRejectsEmptyDuplicateAndInvalid) {
  ArchRegistry r;
  EXPECT_EQ(r.add({"", "nameless", GpuArch{}}).code(),
            StatusCode::kInvalidArgument);
  ASSERT_TRUE(r.add({"a", "first", GpuArch{}}).ok());
  EXPECT_EQ(r.add({"a", "again", GpuArch{}}).code(),
            StatusCode::kInvalidArgument);
  GpuArch bad;
  bad.addr_map.row_bits.clear();  // fails validate()
  const Status st = r.add({"b", "broken", bad});
  EXPECT_EQ(st.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(r.size(), 1u);  // the rejected backends never registered
  EXPECT_EQ(r.default_backend().name, "a");
}

TEST(ArchRegistry, AddRejectsMoreSmsThanTheRecordIndexHolds) {
  ArchRegistry r;
  GpuArch wide;
  wide.num_sms = kMaxSms + 1;  // SM indices past 16 bits would alias
  const Status st = r.add({"wide", "too many SMs", wide});
  EXPECT_EQ(st.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(st.message().find("num_sms"), std::string::npos) << st.to_string();
  EXPECT_EQ(r.size(), 0u);
}

TEST(ArchRegistry, AddRejectsCachesOfNoWholeSets) {
  ArchRegistry r;
  GpuArch no_sets;
  no_sets.l2_capacity = 1000;  // zero sets: simulate would abort on it
  EXPECT_EQ(r.add({"no_sets", "l2 below one set", no_sets}).code(),
            StatusCode::kInvalidArgument);
  GpuArch ragged;
  ragged.tex_cache_capacity = 24 * 1024 + 64;  // 64 bytes would be dropped
  EXPECT_EQ(r.add({"ragged", "partial texture set", ragged}).code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(r.size(), 0u);
}

// --- default-backend equivalence with the hardwired path ---------------------

TEST(ArchRegistry, KeplerBackendIsTheHardwiredArch) {
  const GpuArch& reg = ArchRegistry::builtin().find("kepler")->arch;
  const GpuArch& hard = kepler_arch();
  EXPECT_EQ(reg.num_sms, hard.num_sms);
  EXPECT_EQ(reg.shared_banks, hard.shared_banks);
  EXPECT_EQ(reg.cache_line, hard.cache_line);
  EXPECT_EQ(reg.total_banks(), hard.total_banks());
  EXPECT_EQ(reg.dram.row_hit_service, hard.dram.row_hit_service);
  EXPECT_EQ(reg.addr_map.transaction_bits, hard.addr_map.transaction_bits);
  EXPECT_EQ(reg.addr_map.bank_bits, hard.addr_map.bank_bits);
  EXPECT_EQ(reg.addr_map.column_bits, hard.addr_map.column_bits);
  EXPECT_EQ(reg.addr_map.row_bits, hard.addr_map.row_bits);
  EXPECT_EQ(reg.addr_map.bank_xor_bits, hard.addr_map.bank_xor_bits);
}

TEST(ArchMapping, DefaultDecodesIdenticallyToKeplerMapping) {
  const AddressMapping legacy = kepler_mapping(kepler_arch());
  const AddressMapping declared = arch_mapping(kepler_arch());
  ASSERT_EQ(declared.num_banks(), legacy.num_banks());
  ASSERT_EQ(declared.usable_bits(), legacy.usable_bits());
  Rng rng(0xa5c);
  for (int trial = 0; trial < 10000; ++trial) {
    const std::uint64_t addr = rng.next_below(1ull << legacy.usable_bits());
    const auto a = legacy.decode(addr);
    const auto b = declared.decode(addr);
    ASSERT_EQ(a.bank, b.bank) << addr;
    ASSERT_EQ(a.row, b.row) << addr;
    ASSERT_EQ(a.column, b.column) << addr;
  }
}

// The golden differential: on every seed workload, a predictor built from
// the registry-resolved default backend produces bit-identical measurements
// and predictions to one built from the historical kepler_arch() reference.
// This is the lock-in that lets every other layer switch to the registry.
TEST(ArchRegistryDifferential, EveryWorkloadPredictsBitIdentical) {
  const GpuArch& reg = ArchRegistry::builtin().default_backend().arch;
  for (const auto& c : workloads::evaluation_suite()) {
    SCOPED_TRACE(c.name);
    Predictor hard(c.kernel, kepler_arch());
    Predictor through_registry(c.kernel, reg);
    hard.profile_sample(c.sample);
    through_registry.profile_sample(c.sample);
    // The profiled sample runs the full simulator substrate on each arch.
    EXPECT_EQ(hard.sample_result().cycles,
              through_registry.sample_result().cycles);
    EXPECT_EQ(hard.sample_result().counters.inst_executed,
              through_registry.sample_result().counters.inst_executed);
    for (const auto& t : c.tests) {
      SCOPED_TRACE(t.id);
      const Prediction a = hard.predict(t.placement);
      const Prediction b = through_registry.predict(t.placement);
      EXPECT_EQ(a.total_cycles, b.total_cycles);
      EXPECT_EQ(a.raw_cycles, b.raw_cycles);
      EXPECT_EQ(a.t_comp, b.t_comp);
      EXPECT_EQ(a.t_mem, b.t_mem);
      EXPECT_EQ(a.t_overlap, b.t_overlap);
      EXPECT_EQ(a.inst.executed_total, b.inst.executed_total);
    }
  }
}

// --- one recording per kernel and cache-line size ---------------------------

// Simulates and analyzes `placement` on `arch` through the skeleton `shared`
// and through `own`, the arch's own recording, and requires the same
// results, bit for bit. Returns false (checking nothing) when the placement
// is illegal on the arch.
bool expect_same_replay(const KernelInfo& kernel,
                        const DataPlacement& placement, const GpuArch& arch,
                        const TraceSkeleton& shared, const TraceSkeleton& own) {
  if (validate_placement(kernel, placement, arch)) return false;
  SCOPED_TRACE(placement.to_string());
  GpuSimulator sim(arch, SimOptions{.record_interarrivals = true});
  Fnv1a through_shared;
  testutil::mix_result(through_shared, sim.run(kernel, placement, &shared),
                       sim.interarrival_samples());
  Fnv1a through_own;
  testutil::mix_result(through_own, sim.run(kernel, placement, &own),
                       sim.interarrival_samples());
  EXPECT_EQ(through_shared.digest(), through_own.digest());
  testutil::expect_events_identical(
      analyze_trace(kernel, placement, arch, {}, &shared),
      analyze_trace(kernel, placement, arch, {}, &own));
  return true;
}

// A skeleton's line pools are built at its recording's cache-line size and
// its shared folds per bank count, so a kepler recording replays an hbm2
// analysis (16 shared banks, not 32) exactly as hbm2's own recording does,
// and as the full walk over the lowered trace's addresses does, staged
// shared placements included.
TEST(TraceSkeletonSharing, KeplerRecordingReplaysHbm2) {
  const KernelInfo kernel = workloads::make_transpose(64);
  const GpuArch& kepler = ArchRegistry::builtin().find("kepler")->arch;
  const GpuArch& hbm2 = ArchRegistry::builtin().find("hbm2")->arch;
  ASSERT_NE(kepler.shared_banks, hbm2.shared_banks);
  const DataPlacement base = DataPlacement::defaults(kernel);
  std::vector<DataPlacement> placements{base};
  for (std::size_t a = 0; a < kernel.arrays.size(); ++a)
    placements.push_back(base.with(static_cast<int>(a), MemSpace::Shared));
  const TraceSkeleton from_kepler(kernel, kepler);
  const TraceSkeleton own(kernel, hbm2);
  std::size_t staged = 0;
  for (const DataPlacement& p : placements) {
    if (!expect_same_replay(kernel, p, hbm2, from_kepler, own)) continue;
    testutil::expect_events_identical(
        analyze_trace(kernel, p, hbm2, {}, &from_kepler),
        analyze_trace(kernel, p, hbm2, {}, nullptr));
    if (!TraceMaterializer(kernel, p, hbm2).staged_arrays().empty()) ++staged;
  }
  EXPECT_GT(staged, 0u);
}

// Every Table IV benchmark on every registered arch (all of 128-byte lines),
// over its sample and its tests: a kepler recording serves the arch bit for
// bit. The tests include shared and staged placements (triad_BS,
// spmv_rdS), so each bank count's folds are read.
TEST(TraceSkeletonSharing, EveryWorkloadKeplerRecordingServesEveryArch) {
  const GpuArch& kepler = ArchRegistry::builtin().find("kepler")->arch;
  std::set<std::string> staged_ids;
  std::size_t runs = 0;
  for (const auto& suite :
       {workloads::training_suite(), workloads::evaluation_suite()}) {
    for (const workloads::BenchmarkCase& c : suite) {
      SCOPED_TRACE(c.name);
      const TraceSkeleton from_kepler(c.kernel, kepler);
      for (const std::string& name : ArchRegistry::builtin().names()) {
        SCOPED_TRACE(name);
        const GpuArch& arch = ArchRegistry::builtin().find(name)->arch;
        ASSERT_TRUE(from_kepler.fits(arch));
        const TraceSkeleton own(c.kernel, arch);
        runs += expect_same_replay(c.kernel, c.sample, arch, from_kepler, own);
        for (const workloads::PlacementTest& t : c.tests) {
          if (!expect_same_replay(c.kernel, t.placement, arch, from_kepler,
                                  own))
            continue;
          ++runs;
          if (!TraceMaterializer(c.kernel, t.placement, arch)
                   .staged_arrays()
                   .empty())
            staged_ids.insert(t.id);
        }
      }
    }
  }
  EXPECT_EQ(runs, 244u);  // SimGolden's runs under one scheduler
  EXPECT_TRUE(staged_ids.count("triad_BS"));
  EXPECT_TRUE(staged_ids.count("spmv_rdS"));
}

// Binding a skeleton at another cache-line size must abort, not read lines
// coalesced for the wrong machine: kepler's recording on a copy of kepler
// with 64-byte lines. A Predictor handed a recorded skeleton checks the same
// predicate, and the kernel, up front.
TEST(TraceSkeletonDeathTest, AnotherLineSizesSkeletonAborts) {
  testing::GTEST_FLAG(death_test_style) = "threadsafe";
  const KernelInfo kernel = workloads::make_transpose(64);
  const KernelInfo other = workloads::make_transpose(64);
  const GpuArch& kepler = ArchRegistry::builtin().find("kepler")->arch;
  GpuArch narrow = kepler;
  narrow.cache_line = 64;
  ASSERT_TRUE(validate(narrow).ok());
  const auto skeleton = std::make_shared<const TraceSkeleton>(kernel, kepler);
  EXPECT_FALSE(skeleton->fits(narrow));
  EXPECT_DEATH(analyze_trace(kernel, DataPlacement::defaults(kernel), narrow,
                             {}, skeleton.get()),
               "another cache-line size");
  EXPECT_DEATH(Predictor(kernel, narrow, {}, {}, skeleton),
               "another cache-line size");
  EXPECT_DEATH(Predictor(other, kepler, {}, {}, skeleton),
               "different kernel");
}

// --- shared-bank fold validity ----------------------------------------------

// The SoA engine folds shared-memory bank conflicts once per kernel, which is
// exact only when the 128-byte shared slice alignment is a whole number of
// bank rotations. The registry must refuse any other geometry up front
// rather than let an analysis CHECK-fail (or silently take a slower path).
TEST(ArchRegistry, AddRejectsUnfoldableSharedBankCounts) {
  for (const int banks : {8, 16, 32}) {  // 128 % (4 * banks) == 0
    SCOPED_TRACE(banks);
    GpuArch a;
    a.shared_banks = banks;
    ArchRegistry r;
    EXPECT_TRUE(r.add({"ok", "foldable", a}).ok());
    EXPECT_EQ(r.size(), 1u);
  }
  // 24: 128 % 96 != 0, the fold would misattribute words. 64: 128 % 256 !=
  // 0, alignment below a full rotation. 0: no banks at all.
  for (const int banks : {24, 64, 0}) {
    SCOPED_TRACE(banks);
    GpuArch a;
    a.shared_banks = banks;
    ArchRegistry r;
    const Status st = r.add({"bad", "unfoldable", a});
    EXPECT_EQ(st.code(), StatusCode::kInvalidArgument);
    EXPECT_NE(st.message().find("shared_banks"), std::string::npos)
        << st.message();
    EXPECT_EQ(r.size(), 0u);
  }
}

// The SoA replay must stay bit-identical to the full walk over the lowered
// trace on every registered backend — including the 16-bank hbm2 profile
// whose fold differs from the 32-bank one (see above).
TEST(SoaReplay, MatchesFullWalkOnEveryRegisteredBackend) {
  const KernelInfo kernel = workloads::make_transpose(64);
  const DataPlacement base = DataPlacement::defaults(kernel);
  // Exercise the shared fold: stage the first shared-legal array.
  DataPlacement staged = base;
  for (std::size_t a = 0; a < kernel.arrays.size(); ++a) {
    DataPlacement candidate = base.with(static_cast<int>(a), MemSpace::Shared);
    if (!validate_placement(kernel, candidate, kepler_arch())) {
      staged = candidate;
      break;
    }
  }
  for (const std::string& name : ArchRegistry::builtin().names()) {
    const GpuArch& arch = ArchRegistry::builtin().find(name)->arch;
    SCOPED_TRACE(name);
    const TraceSkeleton skeleton(kernel, arch);
    for (const DataPlacement* placement :
         std::initializer_list<const DataPlacement*>{&base, &staged}) {
      const PlacementEvents soa =
          analyze_trace(kernel, *placement, arch, {}, &skeleton);
      const PlacementEvents full =
          analyze_trace(kernel, *placement, arch, {}, nullptr);
      EXPECT_EQ(soa.insts_executed, full.insts_executed);
      EXPECT_EQ(soa.addr_calc_insts, full.addr_calc_insts);
      EXPECT_EQ(soa.mem_insts, full.mem_insts);
      EXPECT_EQ(soa.load_insts, full.load_insts);
      EXPECT_EQ(soa.sync_insts, full.sync_insts);
      EXPECT_EQ(soa.replay_global_divergence, full.replay_global_divergence);
      EXPECT_EQ(soa.replay_const_miss, full.replay_const_miss);
      EXPECT_EQ(soa.replay_const_divergence, full.replay_const_divergence);
      EXPECT_EQ(soa.replay_shared_conflict, full.replay_shared_conflict);
      EXPECT_EQ(soa.global_requests, full.global_requests);
      EXPECT_EQ(soa.global_transactions, full.global_transactions);
      EXPECT_EQ(soa.l2_transactions, full.l2_transactions);
      EXPECT_EQ(soa.l2_misses, full.l2_misses);
      EXPECT_EQ(soa.shared_requests, full.shared_requests);
      EXPECT_EQ(soa.shared_conflicts, full.shared_conflicts);
      EXPECT_EQ(soa.row_hits, full.row_hits);
      EXPECT_EQ(soa.row_misses, full.row_misses);
      EXPECT_EQ(soa.row_conflicts, full.row_conflicts);
      EXPECT_EQ(soa.trace_ticks, full.trace_ticks);
    }
  }
}

// --- cross-arch prediction smoke (the bench_crossarch contract) --------------

// Distinct backends must actually predict distinctly — otherwise the serve
// arch field and the cross-arch study would be decorative. Transpose's
// default placement hits shared memory and DRAM, both of which differ
// across the three geometries.
TEST(ArchRegistry, BackendsPredictDistinctly) {
  const KernelInfo kernel = workloads::make_transpose(64);
  const DataPlacement sample = DataPlacement::defaults(kernel);
  std::set<double> totals;
  for (const char* name : {"kepler", "maxwell", "hbm2"}) {
    Predictor p(kernel, ArchRegistry::builtin().find(name)->arch);
    p.profile_sample(sample);
    totals.insert(p.predict(sample).total_cycles);
  }
  EXPECT_EQ(totals.size(), 3u);
}

// --- one recording per benchmark and cache-line size in the serve layer ---

const char* const kBackends[] = {"kepler", "fermi", "maxwell", "hbm2"};

// Counts the skeletons recorded while it lives; restores the metrics state.
class RecordingCount {
 public:
  RecordingCount() : was_(obs::metrics_active()) {
    obs::set_enabled(true);
    obs::reset_all_metrics();
  }
  ~RecordingCount() {
    obs::reset_all_metrics();
    obs::set_enabled(was_);
  }
  std::uint64_t recorded() const {
    const obs::MetricsSnapshot s = obs::snapshot();
    const auto* c = s.find_counter("trace.skeletons_recorded");
    return c == nullptr ? 0 : c->value;
  }

 private:
  bool was_;
};

// A predict_batch over the first legal placements of `benchmark` on `arch`.
std::string batch_line(const std::string& benchmark, const std::string& arch) {
  const workloads::BenchmarkCase c = workloads::get_benchmark(benchmark);
  const PlacementSpace space = enumerate_placement_space(
      c.kernel, ArchRegistry::builtin().find(arch)->arch, 8);
  std::string line = R"({"op":"predict_batch","benchmark":")" + benchmark +
                     R"(","arch":")" + arch + R"(","placements":[)";
  for (std::size_t i = 0; i < space.placements.size(); ++i)
    line += (i ? ",\"" : "\"") + space.placements[i].to_string() + "\"";
  return line + "]}";
}

// A pair's predict_batch and search responses from `service`. The search
// is a capped exhaustive one: a full branch-and-bound per pair costs about a
// minute under ThreadSanitizer over the sixteen services below.
std::vector<std::string> answers(serve::PredictionService& service,
                                 const std::string& benchmark,
                                 const std::string& arch) {
  return {service.handle_line(batch_line(benchmark, arch)),
          service.handle_line(R"({"op":"search","benchmark":")" + benchmark +
                              R"(","arch":")" + arch +
                              R"(","algo":"exhaustive","cap":32})")};
}

// The same responses from a fresh service that built only this pair.
std::vector<std::string> isolated_answers(const std::string& benchmark,
                                          const std::string& arch) {
  serve::PredictionService service{serve::ServeOptions{}};
  return answers(service, benchmark, arch);
}

// The service's recording counts from the metrics verb: {live, recorded}.
std::pair<double, double> recordings(serve::PredictionService& service) {
  const StatusOr<serve::Json> m =
      serve::Json::parse(service.handle_line(R"({"op":"metrics"})"));
  const serve::Json* r = m.ok() ? m->find("recordings") : nullptr;
  EXPECT_NE(r, nullptr);
  if (r == nullptr) return {-1, -1};
  return {r->find("live")->as_number(), r->find("recorded")->as_number()};
}

// Every registered arch has 128-byte lines, so the entries of a benchmark
// on all four share one recording, hbm2's (16 banks) included: serve-warm's
// eight (benchmark, arch) pairs record two skeletons, not one per pair.
// Sharing changes no response byte.
TEST(ServeRecordingSharing, EntriesOfOneLineSizeShareOneRecording) {
  serve::PredictionService service{serve::ServeOptions{}};
  std::vector<std::vector<std::string>> shared;
  {
    const RecordingCount count;
    for (const char* benchmark : {"spmv", "matrixmul"})
      for (const char* arch : kBackends)
        shared.push_back(answers(service, benchmark, arch));
    EXPECT_EQ(count.recorded(), 2u);  // one per benchmark
  }
  EXPECT_EQ(service.stats().recordings_live, 2u);
  EXPECT_EQ(recordings(service), std::make_pair(2.0, 2.0));
  std::size_t i = 0;
  for (const char* benchmark : {"spmv", "matrixmul"}) {
    for (const char* arch : kBackends) {
      SCOPED_TRACE(std::string(benchmark) + "/" + arch);
      const std::vector<std::string>& got = shared[i++];
      EXPECT_NE(got[0].find("\"ok\":true"), std::string::npos) << got[0];
      EXPECT_NE(got[1].find("\"ok\":true"), std::string::npos) << got[1];
      EXPECT_EQ(got, isolated_answers(benchmark, arch));
    }
  }
}

// An entry that adopted another's recording keeps it alive after that entry
// is evicted, and a rebuilt entry adopts it back; once the last entry
// holding a recording is evicted, the next build records anew. With one
// kernel-cache slot and no prediction cache every answer replays the
// current entry's skeleton.
TEST(ServeRecordingSharing, RecordingOutlivesTheEntryThatMadeIt) {
  serve::ServeOptions options;
  options.kernel_cache_capacity = 1;
  options.prediction_cache_capacity = 0;
  serve::PredictionService service{options};
  std::vector<std::string> fermi, kepler, hbm2, fermi_again;
  {
    const RecordingCount count;
    EXPECT_NE(service.handle_line(batch_line("spmv", "kepler"))
                  .find("\"ok\":true"),
              std::string::npos);
    fermi = answers(service, "spmv", "fermi");  // evicts kepler's entry
    EXPECT_EQ(count.recorded(), 1u);
    kepler = answers(service, "spmv", "kepler");  // adopts fermi's recording
    EXPECT_EQ(count.recorded(), 1u);
    hbm2 = answers(service, "spmv", "hbm2");  // and so does hbm2
    EXPECT_EQ(count.recorded(), 1u);
    // matrixmul evicts the last holder of spmv's recording.
    EXPECT_NE(service.handle_line(batch_line("matrixmul", "kepler"))
                  .find("\"ok\":true"),
              std::string::npos);
    EXPECT_EQ(count.recorded(), 2u);
    EXPECT_EQ(recordings(service), std::make_pair(1.0, 2.0));
    fermi_again = answers(service, "spmv", "fermi");
    EXPECT_EQ(count.recorded(), 3u);
  }
  EXPECT_EQ(service.stats().kernel_cache.evictions, 5u);
  EXPECT_EQ(recordings(service), std::make_pair(1.0, 3.0));
  const std::vector<std::string> fermi_alone = isolated_answers("spmv", "fermi");
  EXPECT_EQ(fermi, fermi_alone);
  EXPECT_EQ(fermi_again, fermi_alone);
  EXPECT_EQ(kepler, isolated_answers("spmv", "kepler"));
  EXPECT_EQ(hbm2, isolated_answers("spmv", "hbm2"));
}

// Threads racing on cold entries of one benchmark on every registered arch
// make one recording between them and answer as isolated services.
TEST(ServeRecordingSharing, ConcurrentColdEntriesRecordOnce) {
  std::vector<std::string> lines, expected;
  for (const char* arch : kBackends) {
    lines.push_back(batch_line("spmv", arch));
    serve::PredictionService alone{serve::ServeOptions{}};
    expected.push_back(alone.handle_line(lines.back()));
  }
  constexpr std::size_t kArchs = std::size(kBackends);
  constexpr std::size_t kThreads = 2 * kArchs;
  serve::PredictionService service{serve::ServeOptions{}};
  std::vector<std::string> got(kThreads);
  std::atomic<bool> go{false};
  std::uint64_t recorded = 0;
  {
    const RecordingCount count;
    std::vector<std::thread> threads;
    for (std::size_t t = 0; t < kThreads; ++t)
      threads.emplace_back([&, t] {
        while (!go.load()) std::this_thread::yield();
        got[t] = service.handle_line(lines[t % kArchs]);
      });
    go.store(true);
    for (std::thread& t : threads) t.join();
    recorded = count.recorded();
  }
  EXPECT_EQ(recorded, 1u);
  for (std::size_t t = 0; t < kThreads; ++t) {
    SCOPED_TRACE(kBackends[t % kArchs]);
    EXPECT_NE(got[t].find("\"ok\":true"), std::string::npos) << got[t];
    EXPECT_EQ(got[t], expected[t % kArchs]);
  }
}

}  // namespace
}  // namespace gpuhms
