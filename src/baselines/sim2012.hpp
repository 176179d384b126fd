// Baseline: Sim et al., "A Performance Analysis Framework for Identifying
// Potential Benefits in GPGPU Applications" (PPoPP'12 [7]) — the model our
// work extends. Differences to our model (exactly the ones Sec. V evaluates):
//   * uses *executed* instructions, assumed unchanged across placements
//     (no instruction-replay or addressing-mode accounting),
//   * assumes a constant off-chip DRAM access latency (microbenchmark value,
//     no queuing, no row-buffer variation),
//   * computes the computation/memory overlap with the MWP/CWP case analysis
//     of Hong & Kim instead of the trained event model.
// It shares the cache models (Sim et al. model cache effects), the same
// sample anchoring and the same skeleton replay, so the comparison isolates
// the modeling differences.
#pragma once

#include "model/predictor.hpp"

namespace gpuhms {

class Sim2012Predictor {
 public:
  Sim2012Predictor(const KernelInfo& kernel, const GpuArch& arch,
                   bool anchor_to_sample = true);

  void profile_sample(const DataPlacement& sample);
  void set_sample(const DataPlacement& sample, const SimResult& measured);
  Prediction predict(const DataPlacement& target) const;
  const SimResult& sample_result() const;

 private:
  Prediction predict_from_events(const PlacementEvents& target_ev) const;

  const KernelInfo* kernel_;
  const GpuArch* arch_;
  bool anchor_;
  std::optional<DataPlacement> sample_;
  std::optional<SimResult> sample_result_;
  std::optional<PlacementEvents> sample_ev_;
  double anchor_scale_ = 1.0;  // computed eagerly in set_sample
  TraceSkeleton skeleton_;     // recorded once, at construction
};

}  // namespace gpuhms
