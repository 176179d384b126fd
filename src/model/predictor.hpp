// End-to-end prediction framework (Sec. IV): given a kernel, profile one
// *sample* placement (here: run the simulator substrate, standing in for an
// nvprof run on the K80) and predict the execution time of any *target*
// placement via T = T_comp + T_mem - T_overlap (Eq. 1).
//
// The six ModelOptions toggles (model/model_options.hpp, one comment per
// field naming the figure it ablates) reproduce the paper's ablations.
#pragma once

#include <array>
#include <memory>
#include <optional>
#include <span>
#include <vector>

#include "common/status.hpp"
#include "common/thread_pool.hpp"
#include "kernel/placement.hpp"
#include "model/instruction_counter.hpp"
#include "model/model_options.hpp"
#include "model/tcomp.hpp"
#include "model/tmem.hpp"
#include "model/toverlap.hpp"
#include "sim/simulator.hpp"

namespace gpuhms {

class Predictor;

// Incremental admissible lower bound over *partial* placements, the pruning
// engine of branch-and-bound search (search_branch_and_bound): arrays the
// search has pinned contribute their actual addressing-mode instruction
// counts (Eq. 2-3), unassigned arrays their cheapest count over the spaces
// any legal completion could use, and T_mem enters as the placement-
// independent tmem_floor (Eq. 4-8 with zero queuing wait). The bound of a
// node never exceeds predict(completion).total_cycles for any legal
// completion of that node.
//
// All per-array tables are precomputed at construction, so descending one
// tree level costs one add and bound_cycles() is O(1). Immutable after
// construction; safe to share across threads.
class PlacementBounder {
 public:
  // A default-constructed bounder is an empty shell (no arrays, no tables);
  // populated ones come from Predictor::make_bounder.
  PlacementBounder() = default;

  // Spaces an array could occupy in *some* legal placement: the per-array
  // constraints (writability, Texture2D shape, the array's own footprint vs.
  // the constant/shared capacity) with every other array relaxed to Global.
  // A superset of any placement-context-dependent legal set, which keeps the
  // min below admissible — and exactly the per-level branching set of the
  // search (capacity interactions are handled by running prefix sums there).
  std::span<const MemSpace> relaxed_spaces(std::size_t array) const {
    return relaxed_spaces_[array];
  }

  // Addressing-instruction contribution of pinning `array` to `space`
  // (skeleton mem ops x Eq. 2-3 addr-calc instructions). +inf for spaces
  // outside relaxed_spaces(array).
  double addr_insts(std::size_t array, MemSpace space) const {
    return addr_[array][static_cast<std::size_t>(space)];
  }
  // Cheapest contribution over relaxed_spaces(array) — what an unassigned
  // array contributes to a node's addressing total.
  double min_addr_insts(std::size_t array) const { return min_addr_[array]; }
  // Sum of min_addr_insts over all arrays (the root node's total).
  double root_addr_insts() const { return root_addr_; }
  // True when some array has no relaxed-legal space (no legal placement
  // exists at all); every other accessor is meaningless then.
  bool infeasible() const { return infeasible_; }

  // Anchored lower bound on total cycles for a node whose addressing-
  // instruction total is `addr_insts_total` (pinned arrays' addr_insts plus
  // unassigned arrays' min_addr_insts).
  double bound_cycles(double addr_insts_total) const;

 private:
  friend class Predictor;

  std::vector<std::array<double, kNumMemSpaces>> addr_;
  std::vector<std::vector<MemSpace>> relaxed_spaces_;
  std::vector<double> min_addr_;
  double root_addr_ = 0.0;
  bool infeasible_ = false;
  bool detailed_ = true;
  double issued_const_ = 0.0;  // !detailed_counting: the sample's issue count
  double exec_base_ = 0.0;  // sample executed + skeleton base - sample-event
  double replays_floor_ = 0.0;
  double tmem_floor_ = 0.0;
  int active_sms_ = 1;
  double anchor_ = 1.0;
};

struct Prediction {
  double t_comp = 0.0;
  double t_mem = 0.0;
  double t_overlap = 0.0;
  double total_cycles = 0.0;  // anchored when the option is on
  double raw_cycles = 0.0;    // before anchoring
  double amat = 0.0;
  double dram_lat = 0.0;
  double overlap_ratio = 0.0;
  // True when the G/G/1 queuing model clamped an over-saturated or
  // degenerate bank (rho >= kRhoMax, or non-finite inputs): the prediction
  // is a bounded extrapolation rather than a steady-state delay.
  bool queue_saturated = false;
  InstructionEstimate inst;
};

// T_comp (Eq. 2) and T_mem (Eq. 4-10) of one placement's events, shared by
// the predictor, the Eq. 11 training rows and the Sim et al. [7] baseline.
// Fills inst, t_comp, t_mem, amat, dram_lat and queue_saturated; the caller
// owns what tells the models apart: the estimate `inst`, the ITILP cap
// (Eq. 13) and the overlap. `sample` gives the warp and SM counts.
Prediction predict_components(const PlacementEvents& target_ev,
                              const InstructionEstimate& inst,
                              const ProfileCounters& sample,
                              double tick_to_cycles, double itilp_cap,
                              const GpuArch& arch, const ModelOptions& options);

// A profiled sample placement: its measurement, its analyzed events and the
// anchor scale (measured / predicted cycles) they give. A predictor adopts
// one whole or not at all.
struct ProfiledSample {
  DataPlacement placement;
  SimResult measured;
  PlacementEvents events;
  double anchor_scale = 1.0;
};

// Once a sample is profiled (profile_sample/set_sample), every predict
// method is const and touches no hidden state: one Predictor can be shared
// by any number of threads (the anchor scale is computed eagerly at sample
// time, not lazily inside predict).
class Predictor {
 public:
  // `skeleton`, when given, is an already-recorded skeleton of `kernel` that
  // fits `arch` (both CHECKed); the sample and every predict replay it
  // instead of a recording of the predictor's own.
  Predictor(const KernelInfo& kernel, const GpuArch& arch,
            ModelOptions options = {}, ToverlapModel overlap = {},
            std::shared_ptr<const TraceSkeleton> skeleton = nullptr);

  // Run the simulator substrate on the sample placement ("measure" it).
  // Aborts on malformed input; prefer try_profile_sample at API boundaries.
  void profile_sample(const DataPlacement& sample);
  // Inject an existing measurement instead. Aborts on malformed input.
  // The first sample records the kernel's TraceSkeleton; the sample and
  // every later predict and bound are analyzed from it. A sample whose
  // analysis throws is not adopted.
  void set_sample(const DataPlacement& sample, const SimResult& measured);

  // Non-aborting variants: validate the placement against this predictor's
  // kernel/arch and the measurement against its counter identities, and
  // return INVALID_ARGUMENT naming the offending entity instead of
  // aborting. try_profile_sample hands its simulated measurement to
  // try_set_sample, so both reject the same measurements, and a rejected
  // one is never adopted. Exceptions escaping the substrate (including
  // injected faults) and a non-finite sample anchor surface as INTERNAL,
  // and leave the predictor's earlier sample (or its lack of one) as it was.
  Status try_profile_sample(const DataPlacement& sample);
  Status try_set_sample(const DataPlacement& sample, const SimResult& measured);

  // Whether a sample has been profiled/injected (the precondition of every
  // predict entry point).
  bool has_sample() const { return sample_.has_value(); }

  // Records (once) the placement-independent skeleton of the kernel, for
  // the predictor's arch, and returns it (the constructor's skeleton when
  // one was given). Setting a sample already does this; kept for callers
  // that replay the skeleton themselves.
  std::shared_ptr<const TraceSkeleton> memoize_trace();

  // Predicts `target` from the kernel's skeleton. `scratch` (one per
  // thread, from make_analyzer) reuses the cache/row-buffer models across
  // calls; without it a fresh analyzer is built.
  Prediction predict(const DataPlacement& target,
                     TraceAnalyzer* scratch = nullptr) const;
  // The anchored prediction for already-analyzed target events, e.g. the
  // full walk `make_analyzer().analyze(target)` that tests and benches
  // check the skeleton replay against.
  Prediction predict(const PlacementEvents& target_ev) const;

  // Predict many placements, optionally spread over a thread pool (a local
  // pool of default size is used when null). Results are in target order and
  // identical to per-call predict().
  std::vector<Prediction> predict_batch(std::span<const DataPlacement> targets,
                                        ThreadPool* pool = nullptr) const;

  // Non-aborting variants of predict/predict_batch:
  //   * FAILED_PRECONDITION when no sample has been profiled yet,
  //   * INVALID_ARGUMENT when a target placement is malformed or illegal
  //     (the batch variant names the offending target index),
  //   * INTERNAL when the model produces a non-finite prediction or an
  //     exception (e.g. an injected fault) escapes the analysis pipeline.
  StatusOr<Prediction> try_predict(const DataPlacement& target) const;
  StatusOr<std::vector<Prediction>> try_predict_batch(
      std::span<const DataPlacement> targets, ThreadPool* pool = nullptr) const;

  // Builds the partial-placement bound tables for branch-and-bound search
  // (requires a profiled sample).
  PlacementBounder make_bounder() const;

  // A trace analyzer configured like this predictor's analysis passes (one
  // per worker thread for predict).
  TraceAnalyzer make_analyzer() const;

  const SimResult& sample_result() const;
  const DataPlacement& sample_placement() const;
  const KernelInfo& kernel() const { return *kernel_; }
  const GpuArch& arch() const { return *arch_; }
  const ModelOptions& options() const { return options_; }

 private:
  // Analyzes a sample and computes its anchor scale without adopting it
  // (throws what the analysis throws).
  ProfiledSample analyze_sample(const DataPlacement& placement,
                                const SimResult& measured);
  Prediction predict_from_events(const ProfiledSample& sample,
                                 const PlacementEvents& target_ev) const;

  const KernelInfo* kernel_;
  const GpuArch* arch_;
  ModelOptions options_;
  ToverlapModel overlap_;

  std::optional<ProfiledSample> sample_;
  std::shared_ptr<const TraceSkeleton> skeleton_;
};

// --- T_overlap training ------------------------------------------------------
struct TrainingCase {
  const KernelInfo* kernel = nullptr;
  DataPlacement placement;
};

// A training case together with its (already collected) measurement, so a
// harness comparing several model variants can simulate each placement once.
struct MeasuredCase {
  const KernelInfo* kernel = nullptr;
  DataPlacement placement;
  SimResult measured;
};

// Computes the measured overlap ratio y = (T_comp + T_mem - T_measured) /
// T_mem against the analytical T_comp/T_mem of each placement and fits
// Eq. 11 by ridge regression. Cases run from one work queue over `pool` (a
// local default-size pool when null), grouped by kernel: the first worker to
// reach a kernel records its TraceSkeleton, the kernel's cases are analyzed
// from it, and it is freed with the kernel's last case, while idle workers
// go on to the next kernel. The regression consumes the cases in case
// order, so the fit is independent of the thread count.
ToverlapModel train_overlap_model_measured(std::span<const MeasuredCase> cases,
                                           const GpuArch& arch,
                                           const ModelOptions& options = {},
                                           double ridge = 1e-3,
                                           ThreadPool* pool = nullptr);

// Convenience: runs every training case on the simulator substrate first,
// fed from the same per-kernel skeleton that analyzes it.
ToverlapModel train_overlap_model(std::span<const TrainingCase> cases,
                                  const GpuArch& arch,
                                  const ModelOptions& options = {},
                                  double ridge = 1e-3,
                                  ThreadPool* pool = nullptr);

// --- fingerprints ------------------------------------------------------------
// Structural 64-bit digests (FNV-1a over fields, never pointers) of the
// inputs that determine a prediction. The serve layer keys its prediction
// cache on them (DESIGN §11 "Cache key derivation"). The arch digest covers
// every GpuArch field, address map and DRAM timing included.
std::uint64_t fingerprint(const KernelInfo& kernel);
std::uint64_t fingerprint(const GpuArch& arch);
std::uint64_t fingerprint(const ModelOptions& options);

}  // namespace gpuhms
