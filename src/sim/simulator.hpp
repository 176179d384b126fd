// Event-driven Kepler-class GPU timing simulator.
//
// This is the substitution for the paper's Tesla K80 testbed: it executes a
// kernel's trace on a model with
//   * per-SM single-issue warp schedulers where instruction replays consume
//     issue slots (the paper's key T_comp observation),
//   * scoreboard-lite RAW stalls driven by the trace's uses_prev bits,
//   * per-SM constant/texture caches, a shared L2, coalescing,
//   * the banked GDDR system of src/dram with FCFS queues and row buffers.
// It produces the kernel time and nvprof-like counters the analytical models
// take as the "sample placement" profile — and the measured times the
// evaluation compares predictions against.
//
// No trace is materialized: every resident warp is a LoweringCursor over
// its recorded DSL stream (from a TraceSkeleton when one is passed,
// otherwise from its block re-run through the kernel function when the
// block is loaded), which yields the ops TraceMaterializer::generate would
// build, one at a time, with lane addresses computed at issue. Memory stays
// at one block's DSL streams per block slot however large the kernel is.
#pragma once

#include <memory>

#include "sim/counters.hpp"
#include "trace/generator.hpp"

namespace gpuhms {

// Warp scheduling discipline of the SM issue stage. Loose round-robin is
// the default (and what the model's trace interleaving mirrors); greedy-
// then-oldest (GTO) keeps issuing from the current warp until it stalls —
// used to probe the model's robustness to scheduler mismatch.
enum class WarpScheduler { RoundRobin, Gto };

struct SimOptions {
  // Record raw per-bank inter-arrival samples (Fig. 4 reproduction).
  bool record_interarrivals = false;
  WarpScheduler scheduler = WarpScheduler::RoundRobin;
};

class GpuSimulator {
 public:
  explicit GpuSimulator(const GpuArch& arch, SimOptions opts = {});

  // `skeleton`, when non-null, must have been recorded from `kernel`; the
  // result is identical with and without it.
  SimResult run(const KernelInfo& kernel, const DataPlacement& placement,
                const TraceSkeleton* skeleton = nullptr);

  // Raw inter-arrival samples per bank from the last run (empty unless
  // SimOptions::record_interarrivals was set).
  const std::vector<std::vector<std::uint64_t>>& interarrival_samples() const;

 private:
  const GpuArch* arch_;
  SimOptions opts_;
  std::vector<std::vector<std::uint64_t>> last_samples_;
};

// Convenience: one run with default SimOptions.
SimResult simulate(const KernelInfo& kernel, const DataPlacement& placement,
                   const GpuArch& arch = kepler_arch(),
                   const TraceSkeleton* skeleton = nullptr);

}  // namespace gpuhms
