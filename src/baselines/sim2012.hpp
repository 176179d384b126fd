// Baseline: Sim et al., "A Performance Analysis Framework for Identifying
// Potential Benefits in GPGPU Applications" (PPoPP'12 [7]) — the model our
// work extends. Differences to our model (exactly the ones Sec. V evaluates):
//   * uses *executed* instructions, assumed unchanged across placements
//     (no instruction-replay or addressing-mode accounting),
//   * assumes a constant off-chip DRAM access latency (microbenchmark value,
//     no queuing, no row-buffer variation),
//   * computes the computation/memory overlap with the MWP/CWP case analysis
//     of Hong & Kim instead of the trained event model,
//   * caps ITILP (Eq. 13) at avg_inst_lat, without our division by
//     warp_size / simd_width.
// It shares the cache models (Sim et al. model cache effects), the same
// sample anchoring, the same skeleton replay and the same T_comp/T_mem core
// (predict_components), so the comparison isolates the modeling
// differences.
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
  Prediction predict_from_events(const ProfiledSample& sample,
                                 const PlacementEvents& target_ev) const;

  const KernelInfo* kernel_;
  const GpuArch* arch_;
  bool anchor_;
  std::optional<ProfiledSample> sample_;
  TraceSkeleton skeleton_;  // recorded once, at construction
};

}  // namespace gpuhms
