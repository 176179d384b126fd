#include "model/tmem.hpp"

#include <algorithm>

#include "common/check.hpp"

namespace gpuhms {

TmemResult tmem(const TmemInputs& in, const GpuArch& arch,
                const ModelOptions& options) {
  GPUHMS_CHECK(in.events != nullptr);
  const PlacementEvents& ev = *in.events;
  TmemResult r;

  // --- DRAM latency (Sec. III-C) -------------------------------------------
  if (options.queuing_model) {
    const auto banks = build_bank_inputs(ev, in.tick_to_cycles);
    const QueuingResult q = options.queue_discipline == QueueDiscipline::GG1
                                ? dram_latency_gg1(banks)
                                : dram_latency_mm1(banks);
    r.dram_lat = q.dram_lat;
    r.queue_delay = q.avg_queue_delay;
    r.queue_saturated = q.saturated;
  } else if (options.row_buffer_model) {
    r.dram_lat = dram_latency_constant(ev, arch);
  } else {
    // Prior work's constant, microbenchmark-style latency.
    r.dram_lat = static_cast<double>(arch.dram.row_miss_service);
  }
  // The bank service time excludes the fixed controller/interconnect
  // pipeline; requests always pay it on top.
  r.dram_lat += static_cast<double>(arch.dram.pipeline_lat);

  // --- AMAT (Eq. 5) ---------------------------------------------------------
  // Computed over the latency-bound (load) traffic: stores retire through
  // write buffers without stalling warps on this substrate, but they still
  // occupy banks and so already shaped the queuing DRAM latency above.
  const double offchip = static_cast<double>(ev.offchip_load_transactions);
  const double shared = static_cast<double>(ev.shared_load_requests);
  const double total = std::max(1.0, offchip + shared);
  r.miss_ratio = static_cast<double>(ev.dram_load_requests) / total;
  r.shmem_ratio = shared / total;
  // Eq. 5, with the cache hit latency charged to the off-chip fraction of
  // the requests: shared-memory accesses never enter the cache hierarchy,
  // so charging them hit_lat (the literal reading of the equation) would
  // systematically overprice shared-heavy placements.
  r.amat = r.dram_lat * r.miss_ratio +
           static_cast<double>(arch.cache_hit_lat) * (1.0 - r.shmem_ratio) +
           static_cast<double>(arch.shared_lat) * r.shmem_ratio;

  // --- Effective memory requests per SM (Eq. 17) -----------------------------
  const double loads = static_cast<double>(
      std::max<std::uint64_t>(1, ev.load_insts));
  const double mem_per_warp = loads / std::max(1.0, in.total_warps);
  const double trans_per_mem = (offchip + shared) / loads;

  WarpParallelismInputs win;
  win.n_warps = in.n_warps_per_sm;
  win.issued_per_warp = in.issued_per_warp;
  win.mem_insts_per_warp = mem_per_warp;
  win.transactions_per_mem = trans_per_mem;
  win.mem_lat = r.amat;
  win.mlp = ev.mlp;
  win.ilp = ev.ilp;
  win.unloaded_service = dram_latency_constant(ev, arch);
  win.dram_per_mem = static_cast<double>(ev.dram_load_requests) / loads;
  win.active_sms = in.active_sms;
  win.total_banks = arch.total_banks();
  const WarpParallelism wp = compute_warp_parallelism(win, arch);

  r.effective_requests_per_sm =
      loads / std::max(1, in.active_sms) / std::max(1.0, wp.itmlp);

  // Eq. 4.
  r.t_mem = r.effective_requests_per_sm * r.amat;
  return r;
}

double tmem_floor(const TmemFloorInputs& in, const GpuArch& arch) {
  // tmem() computes t_mem = loads / SMs / ITMLP * AMAT. Bounding each factor
  // over every possible placement:
  //   * loads >= in.load_insts_lb (skeleton floor, see TmemFloorInputs);
  //   * AMAT (Eq. 5) is a convex mix of dram_lat * miss (>= 0 with the
  //     Eq. 9 wait relaxed to queue_delay_floor()), cache_hit_lat, and
  //     shared_lat, so AMAT >= amat_min = min(cache_hit_lat, shared_lat);
  //   * ITMLP (Eq. 18) <= MWP_peak_bw = max(1, per_sm_bw * max(1, AMAT) /
  //     max(1e-3, dram_per_mem)) with per_sm_bw <= total_banks /
  //     (bank_service_floor * active_SMs)  (Eq. 8 service >= row-hit).
  // Splitting on the max(1, .) in MWP_peak_bw: when the cap is 1,
  // t_mem >= loads/SMs * amat_min; otherwise the AMAT factors cancel
  // (amat_min >= 1) and t_mem >= loads/SMs * dpm_min / per_sm_bw. Taking
  // the min of both branches is therefore always admissible.
  const double amat_min = static_cast<double>(
      std::min(arch.cache_hit_lat, arch.shared_lat));
  constexpr double kDpmMin = 1e-3;  // compute_warp_parallelism's clamp
  const int sms = std::max(1, in.active_sms);
  const double per_sm_bw_max =
      static_cast<double>(arch.total_banks()) /
      std::max(1.0, bank_service_floor(arch)) / sms;
  const double per_load =
      std::min(amat_min, kDpmMin / std::max(1e-12, per_sm_bw_max)) +
      queue_delay_floor();
  return std::max(0.0, in.load_insts_lb) / sms * per_load;
}

}  // namespace gpuhms
