#include "baselines/sim2012.hpp"

#include <algorithm>

#include "baselines/hong_kim.hpp"
#include "common/check.hpp"

namespace gpuhms {

namespace {

// [7]'s memory model: a constant microbenchmark DRAM latency (no queuing, no
// row-buffer variation) over traces analyzed with the detected mapping.
ModelOptions sim2012_options() {
  ModelOptions o;
  o.queuing_model = false;
  o.row_buffer_model = false;
  return o;
}

}  // namespace

Sim2012Predictor::Sim2012Predictor(const KernelInfo& kernel,
                                   const GpuArch& arch, bool anchor_to_sample)
    : kernel_(&kernel), arch_(&arch), anchor_(anchor_to_sample),
      skeleton_(kernel, arch) {}

void Sim2012Predictor::profile_sample(const DataPlacement& sample) {
  set_sample(sample, simulate(*kernel_, sample, *arch_, &skeleton_));
}

void Sim2012Predictor::set_sample(const DataPlacement& sample,
                                  const SimResult& measured) {
  ProfiledSample s{sample, measured,
                   analyze_trace(*kernel_, sample, *arch_, sim2012_options(),
                                 &skeleton_)};
  s.anchor_scale = static_cast<double>(measured.cycles) /
                   std::max(1.0, predict_from_events(s, s.events).raw_cycles);
  sample_ = std::move(s);
}

const SimResult& Sim2012Predictor::sample_result() const {
  GPUHMS_CHECK(sample_.has_value());
  return sample_->measured;
}

Prediction Sim2012Predictor::predict_from_events(
    const ProfiledSample& sample, const PlacementEvents& target_ev) const {
  const ProfileCounters& sc = sample.measured.counters;
  const double total_warps =
      static_cast<double>(std::max<std::uint64_t>(1, sc.total_warps));
  const int active_sms = std::max(1, sc.active_sms);
  const double n_warps = std::max(1.0, target_ev.warps_per_sm);

  // Executed instructions, assumed placement-invariant ([7] has no replay or
  // addressing-mode accounting).
  InstructionEstimate inst;
  inst.executed_total = static_cast<double>(sc.inst_executed);
  inst.issued_total = inst.executed_total;
  inst.issued_per_warp = inst.issued_total / total_warps;

  // T_mem with the constant-latency assumption (tick_to_cycles is unused
  // without the queuing model); ITILP capped at avg_inst_lat.
  Prediction p = predict_components(
      target_ev, inst, sc, /*tick_to_cycles=*/1.0,
      static_cast<double>(arch_->avg_inst_lat), *arch_, sim2012_options());

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
  win.mem_lat = p.amat;
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
  hin.mem_lat = p.amat;
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
  GPUHMS_CHECK_MSG(sample_.has_value(), "no sample profiled");
  const PlacementEvents target_ev = analyze_trace(
      *kernel_, target, *arch_, sim2012_options(), &skeleton_);
  Prediction p = predict_from_events(*sample_, target_ev);
  if (anchor_) p.total_cycles = p.raw_cycles * sample_->anchor_scale;
  return p;
}

}  // namespace gpuhms
