// T_mem: memory cost of a data placement (Sec. III-C, Eq. 4-10).
//
// The distinguishing ingredients versus prior models:
//   * DRAM latency is NOT a constant — it comes from per-bank G/G/1 queues
//     (Kingman, Eq. 9) over the request distribution derived from the
//     detected address mapping, with service times classified by row-buffer
//     outcome (Eq. 8);
//   * AMAT (Eq. 5) combines the L2-miss-weighted DRAM latency, the uniform
//     cache hit latency, and the shared-memory fraction.
#pragma once

#include "arch/gpu_arch.hpp"
#include "model/model_options.hpp"
#include "model/queuing.hpp"
#include "model/trace_analysis.hpp"
#include "model/warp_parallelism.hpp"

namespace gpuhms {

struct TmemResult {
  double t_mem = 0.0;
  double amat = 0.0;          // Eq. 5
  double dram_lat = 0.0;      // Eq. 7 (or the constant fallback)
  double queue_delay = 0.0;
  double miss_ratio = 0.0;    // DRAM requests / off-chip+shared requests
  double shmem_ratio = 0.0;
  double effective_requests_per_sm = 0.0;  // Eq. 17
  // Propagated from QueuingResult::saturated: dram_lat (and everything
  // downstream of it) is a clamped saturation floor, not a faithful G/G/1
  // estimate. Always false for the non-queuing ablations.
  bool queue_saturated = false;
};

struct TmemInputs {
  const PlacementEvents* events = nullptr;
  double total_warps = 1.0;
  int active_sms = 1;
  double n_warps_per_sm = 1.0;
  double issued_per_warp = 1.0;   // for MWP/CWP (Appendix)
  // Converts analysis instruction ticks to cycles (sample-calibrated).
  double tick_to_cycles = 1.0;
};

// Reads options.queuing_model, row_buffer_model and queue_discipline.
TmemResult tmem(const TmemInputs& in, const GpuArch& arch,
                const ModelOptions& options = {});

// --- Admissible T_mem floor (branch-and-bound search) -----------------------
struct TmemFloorInputs {
  // Floor on the kernel-wide warp-level load count for *any* placement
  // (TraceSkeleton::base_load_insts: lowering never drops a load, staging
  // preambles only add more).
  double load_insts_lb = 0.0;
  int active_sms = 1;
};

// Placement-independent lower bound on tmem().t_mem (Eq. 4-8 relaxed to zero
// queuing wait, see queue_delay_floor). Derivation in tmem.cpp. This term is
// provable but weak — for real kernels the T_comp instruction floor
// dominates the combined bound; it exists so the bound stays sound for
// degenerate, nearly compute-free kernels.
double tmem_floor(const TmemFloorInputs& in, const GpuArch& arch);

}  // namespace gpuhms
