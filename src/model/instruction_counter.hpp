// Issued-instruction quantification across data placements (Sec. III-B).
//
// The paper's T_comp model needs #inst — issued instructions per warp,
// including replays — for a *target* placement that was never run. It is
// derived from the sample placement's measured profile plus trace-analysis
// deltas:
//
//   executed_target = executed_sample(measured)
//                   + [executed_target(trace) - executed_sample(trace)]
//       (addressing-mode instruction difference + shared-staging preamble)
//
//   replays_target  = replays_sample(measured)
//                   - replays_sample_1-4(trace) + replays_target_1-4(trace)
//       (Eq. 3: causes (1)-(4) re-derived per placement; (5)-(10) assumed
//        placement-invariant)
//
//   issued_target   = executed_target + replays_target
#pragma once

#include "model/model_options.hpp"
#include "model/trace_analysis.hpp"
#include "sim/counters.hpp"

namespace gpuhms {

struct InstructionEstimate {
  double executed_total = 0.0;  // whole kernel
  double replays_total = 0.0;
  double issued_total = 0.0;
  double issued_per_warp = 0.0;

  // Deltas for diagnostics.
  double addr_mode_delta = 0.0;
  double replay_delta = 0.0;
};

// Reads options.detailed_instruction_counting. issued_per_warp is over the
// sample's grid (sample_profile.total_warps): placements do not change the
// launch geometry.
InstructionEstimate estimate_issued_instructions(
    const ProfileCounters& sample_profile, const PlacementEvents& sample_ev,
    const PlacementEvents& target_ev, const ModelOptions& options = {});

}  // namespace gpuhms
