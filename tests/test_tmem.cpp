#include "model/tmem.hpp"

#include <gtest/gtest.h>

#include "workloads/workloads.hpp"

namespace gpuhms {
namespace {

TmemInputs inputs_for(const PlacementEvents& ev, double warps = 32.0) {
  TmemInputs in;
  in.events = &ev;
  in.total_warps = 512.0;
  in.active_sms = 13;
  in.n_warps_per_sm = warps;
  in.issued_per_warp = 100.0;
  in.tick_to_cycles = 0.2;
  return in;
}

PlacementEvents analyzed(const char* bench) {
  const auto c = workloads::get_benchmark(bench);
  return analyze_trace(c.kernel, c.sample, kepler_arch());
}

TEST(Tmem, PositiveForRealKernel) {
  const auto ev = analyzed("stencil2d");
  const auto r = tmem(inputs_for(ev), kepler_arch());
  EXPECT_GT(r.t_mem, 0.0);
  EXPECT_GT(r.amat, static_cast<double>(kepler_arch().cache_hit_lat) - 1.0);
  EXPECT_GT(r.dram_lat, static_cast<double>(kepler_arch().dram.pipeline_lat));
  EXPECT_GE(r.miss_ratio, 0.0);
  EXPECT_LE(r.miss_ratio, 1.0);
}

TEST(Tmem, QueuingRaisesLatencyOverConstant) {
  // A memory-bound kernel's queued DRAM latency must exceed the unloaded
  // constant; the constant variant has zero queue delay by construction.
  const auto ev = analyzed("md");
  const auto in = inputs_for(ev);
  ModelOptions with_q;
  ModelOptions no_q;
  no_q.queuing_model = false;
  const auto rq = tmem(in, kepler_arch(), with_q);
  const auto rc = tmem(in, kepler_arch(), no_q);
  EXPECT_GT(rq.queue_delay, 0.0);
  EXPECT_DOUBLE_EQ(rc.queue_delay, 0.0);
  EXPECT_GT(rq.dram_lat, rc.dram_lat * 0.5);  // same order of magnitude
}

TEST(Tmem, RowBufferMixBelowPureMissConstant) {
  // With row-buffer modeling but no queue, the Eq. 8 mix must sit between
  // the hit and conflict service times (plus pipeline).
  const auto ev = analyzed("stencil2d");
  const auto in = inputs_for(ev);
  ModelOptions o;
  o.queuing_model = false;
  o.row_buffer_model = true;
  const auto r = tmem(in, kepler_arch(), o);
  const auto& arch = kepler_arch();
  EXPECT_GE(r.dram_lat, static_cast<double>(arch.unloaded_row_hit()));
  EXPECT_LE(r.dram_lat, static_cast<double>(arch.unloaded_row_conflict()));
}

TEST(Tmem, PureMissConstantWithoutRowModel) {
  const auto ev = analyzed("stencil2d");
  ModelOptions o;
  o.queuing_model = false;
  o.row_buffer_model = false;
  const auto r = tmem(inputs_for(ev), kepler_arch(), o);
  EXPECT_DOUBLE_EQ(r.dram_lat,
                   static_cast<double>(kepler_arch().unloaded_row_miss()));
}

TEST(Tmem, SharedOnlyKernelHasNoDramComponent) {
  PlacementEvents ev;
  ev.mem_insts = 1000;
  ev.load_insts = 1000;
  ev.shared_requests = 1000;
  ev.shared_load_requests = 1000;
  const auto r = tmem(inputs_for(ev), kepler_arch());
  EXPECT_DOUBLE_EQ(r.miss_ratio, 0.0);
  EXPECT_DOUBLE_EQ(r.shmem_ratio, 1.0);
  // Pure shared traffic never enters the cache hierarchy: AMAT is the
  // shared-memory latency alone.
  EXPECT_NEAR(r.amat, static_cast<double>(kepler_arch().shared_lat), 1e-9);
}

TEST(Tmem, Mm1AndGg1DifferUnderBurstyArrivals) {
  PlacementEvents ev;
  ev.mem_insts = ev.load_insts = 1000;
  ev.offchip_load_transactions = 1000;
  ev.dram_load_requests = ev.dram_requests = 1000;
  ev.banks.resize(4);
  for (auto& b : ev.banks) {
    b.count = 250;
    // Bursty: high arrival variance.
    for (int i = 0; i < 100; ++i) {
      b.interarrival.add(i % 10 == 0 ? 5000.0 : 10.0);
      b.service.add(i % 2 == 0 ? 36.0 : 692.0);
    }
  }
  const auto in = inputs_for(ev);
  ModelOptions gg1;
  ModelOptions mm1;
  mm1.queue_discipline = QueueDiscipline::MM1;
  const auto rg = tmem(in, kepler_arch(), gg1);
  const auto rm = tmem(in, kepler_arch(), mm1);
  EXPECT_NE(rg.queue_delay, rm.queue_delay);
}

TEST(Tmem, MoreWarpsLowerEffectiveRequests) {
  // Eq. 17-19: more resident warps -> more ITMLP -> fewer serialized
  // effective requests per SM (until the bandwidth cap binds).
  const auto ev = analyzed("stencil2d");
  const auto r8 = tmem(inputs_for(ev, 8.0), kepler_arch());
  const auto r64 = tmem(inputs_for(ev, 64.0), kepler_arch());
  EXPECT_LE(r64.effective_requests_per_sm, r8.effective_requests_per_sm);
}

TEST(Tmem, RequiresEvents) {
  TmemInputs in;
  EXPECT_DEATH(tmem(in, kepler_arch()), "events");
}

}  // namespace
}  // namespace gpuhms
