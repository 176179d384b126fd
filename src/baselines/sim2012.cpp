#include "baselines/sim2012.hpp"

#include <algorithm>

#include "baselines/hong_kim.hpp"
#include "common/check.hpp"

namespace gpuhms {

Sim2012Predictor::Sim2012Predictor(const KernelInfo& kernel,
                                   const GpuArch& arch, bool anchor_to_sample)
    : kernel_(&kernel), arch_(&arch), anchor_(anchor_to_sample),
      skeleton_(kernel, arch) {}

void Sim2012Predictor::profile_sample(const DataPlacement& sample) {
  set_sample(sample, simulate(*kernel_, sample, *arch_, &skeleton_));
}

void Sim2012Predictor::set_sample(const DataPlacement& sample,
                                  const SimResult& measured) {
  sample_ = sample;
  sample_result_ = measured;
  sample_ev_ = analyze_trace(*kernel_, sample, *arch_, AnalysisOptions{},
                             &skeleton_);
  const Prediction self = predict_from_events(*sample_ev_);
  anchor_scale_ = static_cast<double>(sample_result_->cycles) /
                  std::max(1.0, self.raw_cycles);
}

const SimResult& Sim2012Predictor::sample_result() const {
  GPUHMS_CHECK(sample_result_.has_value());
  return *sample_result_;
}

Prediction Sim2012Predictor::predict_from_events(
    const PlacementEvents& target_ev) const {
  GPUHMS_CHECK_MSG(sample_result_.has_value(), "no sample profiled");
  const ProfileCounters& sc = sample_result_->counters;
  const double total_warps =
      static_cast<double>(std::max<std::uint64_t>(1, sc.total_warps));
  const int active_sms = std::max(1, sc.active_sms);
  const double n_warps = std::max(1.0, target_ev.warps_per_sm);

  Prediction p;
  // Executed instructions, assumed placement-invariant ([7] has no replay or
  // addressing-mode accounting).
  p.inst.executed_total = static_cast<double>(sc.inst_executed);
  p.inst.replays_total = 0.0;
  p.inst.issued_total = p.inst.executed_total;
  p.inst.issued_per_warp = p.inst.issued_total / total_warps;

  // T_mem with the constant-latency assumption.
  TmemInputs tin;
  tin.events = &target_ev;
  tin.total_warps = total_warps;
  tin.active_sms = active_sms;
  tin.n_warps_per_sm = n_warps;
  tin.issued_per_warp = p.inst.issued_per_warp;
  tin.tick_to_cycles = 1.0;  // unused without the queuing model
  TmemOptions topts;
  topts.queuing_model = false;
  topts.row_buffer_model = false;  // fixed microbenchmark latency
  const TmemResult tm = tmem(tin, *arch_, topts);
  p.t_mem = tm.t_mem;
  p.amat = tm.amat;
  p.dram_lat = tm.dram_lat;

  TcompInputs cin;
  cin.inst = p.inst;
  cin.total_warps = total_warps;
  cin.active_sms = active_sms;
  const double itilp_max = static_cast<double>(arch_->avg_inst_lat);
  cin.itilp = std::max(1.0, std::min(target_ev.ilp * n_warps, itilp_max));
  p.t_comp = tcomp(cin, *arch_);

  // Overlap via the MWP/CWP case analysis.
  WarpParallelismInputs win;
  win.n_warps = n_warps;
  win.issued_per_warp = p.inst.issued_per_warp;
  win.mem_insts_per_warp =
      static_cast<double>(target_ev.mem_insts) / total_warps;
  win.transactions_per_mem =
      (target_ev.offchip_transactions() +
       static_cast<double>(target_ev.shared_requests)) /
      std::max(1.0, static_cast<double>(target_ev.mem_insts));
  win.mem_lat = tm.amat;
  win.mlp = target_ev.mlp;
  win.ilp = target_ev.ilp;
  win.unloaded_service = static_cast<double>(arch_->dram.row_miss_service);
  win.dram_per_mem =
      static_cast<double>(target_ev.dram_load_requests) /
      std::max(1.0, static_cast<double>(target_ev.load_insts));
  win.active_sms = active_sms;
  win.total_banks = arch_->total_banks();
  const WarpParallelism wp = compute_warp_parallelism(win, *arch_);

  HongKimInputs hin;
  hin.comp_cycles_per_warp = p.t_comp * active_sms / total_warps;
  hin.mem_insts_per_warp = win.mem_insts_per_warp;
  hin.mem_lat = tm.amat;
  hin.n_warps = n_warps;
  hin.mwp = wp.mwp;
  hin.cwp = wp.cwp;
  const double per_sm_warps = total_warps / active_sms;
  const double t_hk = hong_kim_cycles(hin) * per_sm_warps / n_warps;

  p.raw_cycles = std::clamp(t_hk, std::max(p.t_comp, p.t_mem),
                            p.t_comp + p.t_mem);
  p.t_overlap = p.t_comp + p.t_mem - p.raw_cycles;
  p.overlap_ratio = p.t_mem > 0.0 ? p.t_overlap / p.t_mem : 0.0;
  p.total_cycles = p.raw_cycles;
  return p;
}

Prediction Sim2012Predictor::predict(const DataPlacement& target) const {
  const PlacementEvents target_ev = analyze_trace(
      *kernel_, target, *arch_, AnalysisOptions{}, &skeleton_);
  Prediction p = predict_from_events(target_ev);
  if (anchor_) p.total_cycles = p.raw_cycles * anchor_scale_;
  return p;
}

}  // namespace gpuhms
