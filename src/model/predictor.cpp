#include "model/predictor.hpp"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <limits>
#include <memory>
#include <mutex>
#include <numeric>

#include "common/check.hpp"
#include "common/hashing.hpp"
#include "common/obs.hpp"
#include "isa/addressing.hpp"

namespace gpuhms {

namespace {

// Eq. 13's ITILP cap: avg_inst_lat over the cycles one warp instruction
// occupies the SIMD lanes.
double itilp_cap(const GpuArch& arch) {
  return static_cast<double>(arch.avg_inst_lat) /
         (static_cast<double>(arch.warp_size) /
          static_cast<double>(arch.simd_width));
}

// Instruction-tick -> cycle calibration of a measured run.
double tick_to_cycles(const SimResult& measured, const PlacementEvents& ev) {
  return static_cast<double>(measured.cycles) /
         std::max(1.0, static_cast<double>(ev.trace_ticks));
}

}  // namespace

Prediction predict_components(const PlacementEvents& target_ev,
                              const InstructionEstimate& inst,
                              const ProfileCounters& sample,
                              double tick_to_cycles, double itilp_cap,
                              const GpuArch& arch,
                              const ModelOptions& options) {
  const double total_warps =
      static_cast<double>(std::max<std::uint64_t>(1, sample.total_warps));
  const int active_sms = std::max(1, sample.active_sms);
  // Occupancy under the *target* placement (shared staging costs warps).
  const double n_warps = std::max(1.0, target_ev.warps_per_sm);

  Prediction p;
  p.inst = inst;

  // T_mem (Eq. 4-10).
  TmemInputs tin;
  tin.events = &target_ev;
  tin.total_warps = total_warps;
  tin.active_sms = active_sms;
  tin.n_warps_per_sm = n_warps;
  tin.issued_per_warp = inst.issued_per_warp;
  tin.tick_to_cycles = tick_to_cycles;
  const TmemResult tm = tmem(tin, arch, options);
  p.t_mem = tm.t_mem;
  p.amat = tm.amat;
  p.dram_lat = tm.dram_lat;
  p.queue_saturated = tm.queue_saturated;

  // T_comp (Eq. 2). W_serial is placement-invariant and absorbed by the
  // sample anchoring / the T_overlap regression constant.
  TcompInputs cin;
  cin.inst = inst;
  cin.total_warps = total_warps;
  cin.active_sms = active_sms;
  cin.itilp = std::max(1.0, std::min(target_ev.ilp * n_warps, itilp_cap));
  p.t_comp = tcomp(cin, arch);
  return p;
}

Predictor::Predictor(const KernelInfo& kernel, const GpuArch& arch,
                     ModelOptions options, ToverlapModel overlap,
                     std::shared_ptr<const TraceSkeleton> skeleton)
    : kernel_(&kernel), arch_(&arch), options_(options),
      overlap_(std::move(overlap)), skeleton_(std::move(skeleton)) {
  if (skeleton_) {
    // The predicate TraceMaterializer::bind enforces, checked up front.
    GPUHMS_CHECK_MSG(&skeleton_->kernel() == kernel_,
                     "skeleton recorded from a different kernel");
    GPUHMS_CHECK_MSG(skeleton_->fits(*arch_),
                     "skeleton recorded for another cache-line size or shared "
                     "bank count");
  }
}

void Predictor::profile_sample(const DataPlacement& sample) {
  memoize_trace();
  set_sample(sample, simulate(*kernel_, sample, *arch_, skeleton_.get()));
}

void Predictor::set_sample(const DataPlacement& sample,
                           const SimResult& measured) {
  sample_ = analyze_sample(sample, measured);
}

ProfiledSample Predictor::analyze_sample(const DataPlacement& placement,
                                         const SimResult& measured) {
  GPUHMS_SCOPED_PHASE("predictor.set_sample_ns");
  GPUHMS_COUNTER_ADD("predictor.samples_set", 1);
  memoize_trace();
  ProfiledSample s{placement, measured,
                   analyze_trace(*kernel_, placement, *arch_, options_,
                                 skeleton_.get())};
  // Anchor scale computed eagerly so predict() stays const and race-free
  // when one predictor is shared across search threads.
  s.anchor_scale = static_cast<double>(measured.cycles) /
                   std::max(1.0, predict_from_events(s, s.events).raw_cycles);
  return s;
}

Status Predictor::try_profile_sample(const DataPlacement& sample) {
  const std::string ctx =
      "profiling the sample placement of kernel '" + kernel_->name + "'";
  GPUHMS_RETURN_IF_ERROR(validate(*kernel_, sample, *arch_).annotate(ctx));
  SimResult measured;
  try {
    memoize_trace();
    measured = simulate(*kernel_, sample, *arch_, skeleton_.get());
  } catch (const std::exception& e) {
    return InternalError(e.what()).annotate(ctx);
  }
  // The simulated measurement passes the same checks as an injected one.
  return try_set_sample(sample, measured).annotate(ctx);
}

Status Predictor::try_set_sample(const DataPlacement& sample,
                                 const SimResult& measured) {
  const std::string ctx =
      "setting the sample measurement of kernel '" + kernel_->name + "'";
  GPUHMS_RETURN_IF_ERROR(validate(*kernel_, sample, *arch_).annotate(ctx));
  GPUHMS_RETURN_IF_ERROR(validate(measured).annotate(ctx));
  std::optional<ProfiledSample> s;
  try {
    s = analyze_sample(sample, measured);
  } catch (const std::exception& e) {
    return InternalError(e.what()).annotate(ctx);
  }
  if (!std::isfinite(s->anchor_scale) || s->anchor_scale <= 0.0)
    return InternalError("sample calibration produced a non-finite or "
                         "non-positive anchor scale")
        .annotate(ctx);
  sample_ = std::move(s);
  return OkStatus();
}

std::shared_ptr<const TraceSkeleton> Predictor::memoize_trace() {
  if (!skeleton_) skeleton_ = std::make_shared<TraceSkeleton>(*kernel_, *arch_);
  return skeleton_;
}

TraceAnalyzer Predictor::make_analyzer() const {
  return TraceAnalyzer(*kernel_, *arch_, options_);
}

const SimResult& Predictor::sample_result() const {
  GPUHMS_CHECK_MSG(sample_.has_value(), "no sample profiled");
  return sample_->measured;
}

const DataPlacement& Predictor::sample_placement() const {
  GPUHMS_CHECK_MSG(sample_.has_value(), "no sample profiled");
  return sample_->placement;
}

Prediction Predictor::predict_from_events(
    const ProfiledSample& sample, const PlacementEvents& target_ev) const {
  const ProfileCounters& sc = sample.measured.counters;

  // Issued instructions (Sec. III-B / Eq. 3).
  InstructionEstimate inst;
  {
    GPUHMS_SCOPED_PHASE("predictor.inst_count_ns");
    inst = estimate_issued_instructions(sc, sample.events, target_ev,
                                        options_);
  }

  Prediction p;
  {
    GPUHMS_SCOPED_PHASE("predictor.components_ns");
    p = predict_components(target_ev, inst, sc,
                           tick_to_cycles(sample.measured, sample.events),
                           itilp_cap(*arch_), *arch_, options_);
  }

  // T_overlap (Eq. 11-12). The upper bound keeps the overlap physical: it
  // cannot exceed the smaller of the two overlapped components.
  {
    GPUHMS_SCOPED_PHASE("predictor.toverlap_ns");
    p.overlap_ratio = overlap_.overlap_ratio(
        target_ev, std::max(1.0, target_ev.warps_per_sm));
    p.t_overlap = std::clamp(p.overlap_ratio * p.t_mem,
                             -0.25 * (p.t_comp + p.t_mem),
                             std::min(p.t_comp, p.t_mem));
  }

  p.raw_cycles = std::max(1.0, p.t_comp + p.t_mem - p.t_overlap);
  p.total_cycles = p.raw_cycles;
  return p;
}

Prediction Predictor::predict(const DataPlacement& target,
                              TraceAnalyzer* scratch) const {
  GPUHMS_SCOPED_PHASE("predictor.predict_ns");
  GPUHMS_CHECK_MSG(has_sample(),
                   "profile_sample/set_sample must be called first");
  const PlacementEvents target_ev =
      scratch ? scratch->analyze(target, skeleton_.get())
              : analyze_trace(*kernel_, target, *arch_, options_,
                              skeleton_.get());
  GPUHMS_COUNTER_ADD("predictor.predictions", 1);
  GPUHMS_COUNTER_ADD("predictor.replay_global_divergence",
                     target_ev.replay_global_divergence);
  GPUHMS_COUNTER_ADD("predictor.replay_const_miss",
                     target_ev.replay_const_miss);
  GPUHMS_COUNTER_ADD("predictor.replay_const_divergence",
                     target_ev.replay_const_divergence);
  GPUHMS_COUNTER_ADD("predictor.replay_shared_conflict",
                     target_ev.replay_shared_conflict);
  return predict(target_ev);
}

Prediction Predictor::predict(const PlacementEvents& target_ev) const {
  GPUHMS_CHECK_MSG(has_sample(),
                   "profile_sample/set_sample must be called first");
  Prediction p = predict_from_events(*sample_, target_ev);
  if (options_.anchor_to_sample)
    p.total_cycles = p.raw_cycles * sample_->anchor_scale;
  return p;
}

std::vector<Prediction> Predictor::predict_batch(
    std::span<const DataPlacement> targets, ThreadPool* pool) const {
  std::vector<Prediction> out(targets.size());
  if (targets.empty()) return out;
  ThreadPool local_pool(pool ? 1 : 0);
  ThreadPool& p = pool ? *pool : local_pool;
  std::vector<TraceAnalyzer> scratch;
  scratch.reserve(static_cast<std::size_t>(p.size()));
  for (int t = 0; t < p.size(); ++t) scratch.push_back(make_analyzer());
  p.parallel_for(targets.size(), [&](int worker, std::size_t i) {
    out[i] = predict(targets[i], &scratch[static_cast<std::size_t>(worker)]);
  });
  return out;
}

StatusOr<Prediction> Predictor::try_predict(const DataPlacement& target) const {
  if (!has_sample())
    return FailedPreconditionError(
        "no sample has been profiled for kernel '" + kernel_->name +
        "'; call try_profile_sample or try_set_sample first");
  GPUHMS_RETURN_IF_ERROR(
      validate(*kernel_, target, *arch_)
          .annotate("predicting a target placement of kernel '" +
                    kernel_->name + "'"));
  Prediction p;
  try {
    p = predict(target);
  } catch (const std::exception& e) {
    return InternalError(e.what()).annotate(
        "predicting placement " + target.to_string() + " of kernel '" +
        kernel_->name + "'");
  }
  if (!std::isfinite(p.total_cycles) || p.total_cycles <= 0.0)
    return InternalError("model produced a non-finite or non-positive "
                         "prediction for placement " + target.to_string())
        .annotate("predicting a target placement of kernel '" +
                  kernel_->name + "'");
  return p;
}

StatusOr<std::vector<Prediction>> Predictor::try_predict_batch(
    std::span<const DataPlacement> targets, ThreadPool* pool) const {
  if (!has_sample())
    return FailedPreconditionError(
        "no sample has been profiled for kernel '" + kernel_->name +
        "'; call try_profile_sample or try_set_sample first");
  for (std::size_t i = 0; i < targets.size(); ++i) {
    GPUHMS_RETURN_IF_ERROR(
        validate(*kernel_, targets[i], *arch_)
            .annotate("batch target #" + std::to_string(i) + " of kernel '" +
                      kernel_->name + "'"));
  }
  std::vector<Prediction> out;
  try {
    out = predict_batch(targets, pool);
  } catch (const std::exception& e) {
    return InternalError(e.what()).annotate(
        "batch-predicting " + std::to_string(targets.size()) +
        " placements of kernel '" + kernel_->name + "'");
  }
  for (std::size_t i = 0; i < out.size(); ++i) {
    if (!std::isfinite(out[i].total_cycles) || out[i].total_cycles <= 0.0)
      return InternalError(
                 "model produced a non-finite or non-positive prediction "
                 "for batch target #" + std::to_string(i) + " (placement " +
                 targets[i].to_string() + ")")
          .annotate("batch-predicting placements of kernel '" +
                    kernel_->name + "'");
  }
  return out;
}

double PlacementBounder::bound_cycles(double addr_insts_total) const {
  // Issued instructions cannot fall below the sample's executed count
  // rebased onto the placement-invariant skeleton plus the node's
  // addressing-mode inserts (shared-staging preambles only add more), and
  // replays (1)-(4) cannot fall below zero; without detailed counting a
  // target issues exactly what the sample issued. T_comp >= issued /
  // active_SMs (one cycle per issued instruction, W_serial = 0), T_mem >=
  // tmem_floor_, and the Eq. 12 overlap clamp keeps T = T_comp + T_mem -
  // T_overlap >= max(T_comp, T_mem), so both floors apply.
  double issued_lb;
  if (!detailed_) {
    issued_lb = issued_const_;
  } else {
    const double executed_lb = std::max(0.0, exec_base_ + addr_insts_total);
    issued_lb = executed_lb + replays_floor_;
  }
  const double raw_lb = std::max(
      1.0, std::max(tcomp_floor(issued_lb, active_sms_), tmem_floor_));
  return raw_lb * anchor_;
}

PlacementBounder Predictor::make_bounder() const {
  GPUHMS_CHECK_MSG(has_sample(),
                   "profile_sample/set_sample must be called first");
  const TraceSkeleton& skeleton = *skeleton_;
  const ProfileCounters& sc = sample_->measured.counters;
  const PlacementEvents& sample_ev = sample_->events;
  PlacementBounder b;
  b.detailed_ = options_.detailed_instruction_counting;
  b.active_sms_ = std::max(1, sc.active_sms);
  b.anchor_ = options_.anchor_to_sample ? sample_->anchor_scale : 1.0;
  const double exec_sample = static_cast<double>(sc.inst_executed);
  const double replays_sample = static_cast<double>(sc.replays_total());
  b.issued_const_ = exec_sample + replays_sample;
  b.exec_base_ = exec_sample + static_cast<double>(skeleton.base_insts()) -
                 static_cast<double>(sample_ev.insts_executed);
  b.replays_floor_ = std::max(
      0.0, replays_sample - static_cast<double>(sample_ev.replays_1_4()));
  TmemFloorInputs tf;
  tf.load_insts_lb = static_cast<double>(skeleton.base_load_insts());
  tf.active_sms = b.active_sms_;
  b.tmem_floor_ = tmem_floor(tf, *arch_);

  const std::size_t n = kernel_->arrays.size();
  const auto mem_ops = skeleton.mem_ops_per_array();
  constexpr double kInf = std::numeric_limits<double>::infinity();
  b.addr_.assign(n, {kInf, kInf, kInf, kInf, kInf});
  b.relaxed_spaces_.resize(n);
  b.min_addr_.assign(n, kInf);
  // All-Global is legal for every array in isolation and costs no capacity,
  // so validating against it yields exactly the per-array relaxed set.
  DataPlacement all_global(
      std::vector<MemSpace>(n, MemSpace::Global));
  for (std::size_t a = 0; a < n; ++a) {
    for (MemSpace s : kAllMemSpaces) {
      if (validate_placement(*kernel_, all_global.with(static_cast<int>(a), s),
                             *arch_))
        continue;
      const double insts =
          static_cast<double>(mem_ops[a]) *
          addr_calc_instructions(s, kernel_->arrays[a].dtype);
      b.addr_[a][static_cast<std::size_t>(s)] = insts;
      b.relaxed_spaces_[a].push_back(s);
      b.min_addr_[a] = std::min(b.min_addr_[a], insts);
    }
    if (b.relaxed_spaces_[a].empty()) b.infeasible_ = true;
  }
  if (!b.infeasible_)
    for (std::size_t a = 0; a < n; ++a) b.root_addr_ += b.min_addr_[a];
  return b;
}

namespace {

// One training case's Eq. 11 regression row.
struct TrainingRow {
  std::vector<double> x;
  double y = 0.0;
  bool valid = false;
};

// The measured overlap ratio of one case against its analytical T_comp and
// T_mem. The case is its own sample, so the instruction estimate is its
// measured issue count.
TrainingRow training_row(const SimResult& measured, const PlacementEvents& ev,
                         const GpuArch& arch, const ModelOptions& options) {
  const ProfileCounters& sc = measured.counters;
  const Prediction p = predict_components(
      ev, estimate_issued_instructions(sc, ev, ev, options),
      sc, tick_to_cycles(measured, ev), itilp_cap(arch), arch, options);
  TrainingRow row;
  if (p.t_mem <= 0.0) return row;
  row.y = std::clamp(
      (p.t_comp + p.t_mem - static_cast<double>(measured.cycles)) / p.t_mem,
      -1.0, 1.5);
  row.x = ToverlapModel::features(ev, std::max(1.0, ev.warps_per_sm));
  row.valid = true;
  return row;
}

// rows[i] = row_of(cases[i], skeleton of its kernel), from one work queue
// over every case, grouped by kernel in order of first appearance. The first
// worker to reach a kernel records its skeleton, the kernel's cases share
// it, and the last of them to finish frees it; a worker that runs out of a
// kernel's cases moves on to the next kernel instead of waiting for the
// others. On one thread a single skeleton is alive at a time. Rows land at
// their case's index, so the fit does not depend on the thread count.
template <class Case, class RowOf>
std::vector<TrainingRow> rows_by_kernel(std::span<const Case> cases,
                                        const GpuArch& arch, ThreadPool* pool,
                                        RowOf&& row_of) {
  struct Group {
    const KernelInfo* kernel = nullptr;
    std::once_flag recorded;
    std::unique_ptr<const TraceSkeleton> skeleton;
    std::atomic<std::size_t> left{0};  // cases not finished yet
  };
  std::vector<const KernelInfo*> kernels;  // in order of first appearance
  std::vector<std::size_t> group_of(cases.size());
  for (std::size_t i = 0; i < cases.size(); ++i) {
    GPUHMS_CHECK(cases[i].kernel != nullptr);
    const auto it = std::find(kernels.begin(), kernels.end(), cases[i].kernel);
    group_of[i] = static_cast<std::size_t>(it - kernels.begin());
    if (it == kernels.end()) kernels.push_back(cases[i].kernel);
  }
  std::vector<Group> groups(kernels.size());
  for (std::size_t g = 0; g < kernels.size(); ++g) groups[g].kernel = kernels[g];
  for (std::size_t i = 0; i < cases.size(); ++i) ++groups[group_of[i]].left;
  // Case indices grouped by kernel, in case order within a kernel.
  std::vector<std::size_t> queue(cases.size());
  std::iota(queue.begin(), queue.end(), std::size_t{0});
  std::stable_sort(queue.begin(), queue.end(),
                   [&](std::size_t a, std::size_t b) {
                     return group_of[a] < group_of[b];
                   });

  std::vector<TrainingRow> rows(cases.size());
  ThreadPool local_pool(pool ? 1 : 0);
  ThreadPool& tp = pool ? *pool : local_pool;
  tp.parallel_for(queue.size(), [&](int, std::size_t q) {
    const std::size_t i = queue[q];
    Group& g = groups[group_of[i]];
    std::call_once(g.recorded, [&] {
      g.skeleton = std::make_unique<const TraceSkeleton>(*g.kernel, arch);
    });
    rows[i] = row_of(cases[i], *g.skeleton);
    if (g.left.fetch_sub(1) == 1) g.skeleton.reset();
  });
  return rows;
}

// Fits Eq. 11 on the valid rows, in case order: the regression input — and
// hence the model — is independent of the thread count.
ToverlapModel fit_rows(std::vector<TrainingRow>& rows, double ridge) {
  std::vector<std::vector<double>> xs;
  std::vector<double> ys;
  for (TrainingRow& r : rows) {
    if (!r.valid) continue;
    xs.push_back(std::move(r.x));
    ys.push_back(r.y);
  }
  ToverlapModel model;
  if (!xs.empty()) model.train(xs, ys, ridge);
  return model;
}

}  // namespace

ToverlapModel train_overlap_model_measured(std::span<const MeasuredCase> cases,
                                           const GpuArch& arch,
                                           const ModelOptions& options,
                                           double ridge, ThreadPool* pool) {
  GPUHMS_SCOPED_PHASE("predictor.train_overlap_ns");
  std::vector<TrainingRow> rows = rows_by_kernel(
      cases, arch, pool,
      [&](const MeasuredCase& c, const TraceSkeleton& skeleton) {
        return training_row(c.measured,
                            analyze_trace(*c.kernel, c.placement, arch, options,
                                          &skeleton),
                            arch, options);
      });
  return fit_rows(rows, ridge);
}

ToverlapModel train_overlap_model(std::span<const TrainingCase> cases,
                                  const GpuArch& arch,
                                  const ModelOptions& options, double ridge,
                                  ThreadPool* pool) {
  GPUHMS_SCOPED_PHASE("predictor.train_overlap_ns");
  std::vector<TrainingRow> rows = rows_by_kernel(
      cases, arch, pool,
      [&](const TrainingCase& c, const TraceSkeleton& skeleton) {
        return training_row(
            simulate(*c.kernel, c.placement, arch, &skeleton),
            analyze_trace(*c.kernel, c.placement, arch, options, &skeleton),
            arch, options);
      });
  return fit_rows(rows, ridge);
}

// --- fingerprints ------------------------------------------------------------

std::uint64_t fingerprint(const KernelInfo& kernel) {
  Fnv1a h;
  h.mix(std::string_view(kernel.name));
  h.mix(kernel.num_blocks);
  h.mix(kernel.threads_per_block);
  h.mix(kernel.arrays.size());
  for (const ArrayDecl& a : kernel.arrays) {
    h.mix(std::string_view(a.name));
    h.mix(a.dtype);
    h.mix(a.elems);
    h.mix(a.width);
    h.mix(a.written);
    h.mix(a.shared_slice_elems);
    h.mix(a.default_space);
  }
  return h.digest();
}

std::uint64_t fingerprint(const GpuArch& arch) {
  Fnv1a h;
  h.mix(arch.num_sms);
  h.mix(arch.warp_size);
  h.mix(arch.max_warps_per_sm);
  h.mix(arch.max_blocks_per_sm);
  h.mix(arch.simd_width);
  h.mix(arch.ialu_lat);
  h.mix(arch.falu_lat);
  h.mix(arch.dalu_lat);
  h.mix(arch.sfu_lat);
  h.mix(arch.avg_inst_lat);
  h.mix(arch.shared_lat);
  h.mix(arch.shared_banks);
  h.mix(arch.shared_conflict_penalty);
  h.mix(arch.shared_capacity);
  h.mix(arch.constant_capacity);
  h.mix(arch.cache_line);
  h.mix(arch.cache_hit_lat);
  h.mix(arch.const_cache_hit_lat);
  h.mix(arch.tex_cache_hit_lat);
  h.mix(arch.l2_capacity);
  h.mix(arch.l2_ways);
  h.mix(arch.const_cache_capacity);
  h.mix(arch.const_cache_ways);
  h.mix(arch.tex_cache_capacity);
  h.mix(arch.tex_cache_ways);
  h.mix(arch.dram_channels);
  h.mix(arch.banks_per_channel);
  h.mix(arch.dram.page_policy);
  h.mix(arch.dram.pipeline_lat);
  h.mix(arch.dram.row_hit_service);
  h.mix(arch.dram.row_miss_service);
  h.mix(arch.dram.row_conflict_service);
  // Address-map strategy: two archs identical in every scalar but decoding
  // banks differently must never share a cached Prediction. Lengths are
  // mixed before elements so {1,2}+{3} and {1}+{2,3} cannot collide.
  h.mix(arch.addr_map.transaction_bits);
  for (const std::vector<int>* g :
       {&arch.addr_map.bank_bits, &arch.addr_map.column_bits,
        &arch.addr_map.row_bits, &arch.addr_map.bank_xor_bits}) {
    h.mix(g->size());
    for (int b : *g) h.mix(b);
  }
  return h.digest();
}

std::uint64_t fingerprint(const ModelOptions& options) {
  Fnv1a h;
  h.mix(options.detailed_instruction_counting);
  h.mix(options.queuing_model);
  h.mix(options.address_mapping);
  h.mix(options.row_buffer_model);
  h.mix(options.queue_discipline);
  h.mix(options.anchor_to_sample);
  return h.digest();
}

}  // namespace gpuhms
