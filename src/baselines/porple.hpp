// Baseline: PORPLE's memory-latency-oriented placement model (Chen et al.,
// MICRO'14 [4]). PORPLE ranks data placements by an aggregate memory access
// cost — per-space request counts weighted by per-space latencies — without
// modeling computation cost, instruction replays, queuing delay, shared-
// memory bank conflicts, or the staging copy. Fig. 6 of the paper shows this
// mis-ranks placements (notably the shared-memory one); we reproduce that
// comparison.
#pragma once

#include "kernel/placement.hpp"
#include "model/trace_analysis.hpp"

namespace gpuhms {

// PORPLE-style memory cost (lower = predicted faster). Only meaningful for
// ranking placements of one kernel, not as an execution-time estimate.
double porple_cost(const PlacementEvents& ev, const GpuArch& arch);

// Convenience: analyze `placement` of the skeleton's kernel on `arch`, the
// arch the skeleton was recorded for (replaying the skeleton, so scoring a
// whole space records the kernel once) + score.
double porple_cost(const TraceSkeleton& skeleton,
                   const DataPlacement& placement, const GpuArch& arch);

}  // namespace gpuhms
