#include "model/instruction_counter.hpp"

#include <algorithm>

namespace gpuhms {

InstructionEstimate estimate_issued_instructions(
    const ProfileCounters& sample_profile, const PlacementEvents& sample_ev,
    const PlacementEvents& target_ev, const ModelOptions& options) {
  InstructionEstimate e;
  const double warps = static_cast<double>(
      std::max<std::uint64_t>(1, sample_profile.total_warps));

  const double exec_sample =
      static_cast<double>(sample_profile.inst_executed);
  const double replays_sample =
      static_cast<double>(sample_profile.replays_total());

  if (!options.detailed_instruction_counting) {
    e.executed_total = exec_sample;
    e.replays_total = replays_sample;
    e.issued_total = exec_sample + replays_sample;
    e.issued_per_warp = e.issued_total / warps;
    return e;
  }

  // Addressing-mode + staging difference from the two trace analyses.
  e.addr_mode_delta = static_cast<double>(target_ev.insts_executed) -
                      static_cast<double>(sample_ev.insts_executed);
  e.executed_total = std::max(0.0, exec_sample + e.addr_mode_delta);

  // Eq. 3: swap causes (1)-(4) between placements.
  e.replay_delta = static_cast<double>(target_ev.replays_1_4()) -
                   static_cast<double>(sample_ev.replays_1_4());
  e.replays_total = std::max(0.0, replays_sample + e.replay_delta);

  e.issued_total = e.executed_total + e.replays_total;
  e.issued_per_warp = e.issued_total / warps;
  return e;
}

}  // namespace gpuhms
