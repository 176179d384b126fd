#include "baselines/porple.hpp"

#include <algorithm>

namespace gpuhms {

double porple_cost(const PlacementEvents& ev, const GpuArch& arch) {
  const double dram_const = static_cast<double>(arch.dram.row_miss_service) +
                            static_cast<double>(arch.dram.pipeline_lat);
  const double hit = static_cast<double>(arch.cache_hit_lat);
  const double l2_miss_ratio =
      ev.l2_transactions
          ? static_cast<double>(ev.l2_misses) /
                static_cast<double>(ev.l2_transactions)
          : 0.0;

  // Off-chip spaces: every transaction pays its first cache's latency; the
  // ones missing into L2 pay the (constant) DRAM latency weighted by the
  // aggregate L2 miss ratio.
  const double global_cost =
      static_cast<double>(ev.global_transactions) *
      (hit + l2_miss_ratio * dram_const);
  const double tex_cost =
      static_cast<double>(ev.tex_transactions) *
          static_cast<double>(arch.tex_cache_hit_lat) +
      static_cast<double>(ev.tex_misses) * (hit + l2_miss_ratio * dram_const);
  const double const_cost =
      static_cast<double>(ev.const_requests) *
          static_cast<double>(arch.const_cache_hit_lat) +
      static_cast<double>(ev.const_misses) *
          (hit + l2_miss_ratio * dram_const);
  // Shared memory: flat latency, no bank-conflict serialization and no
  // staging copy — PORPLE's blind spot the paper highlights (NN_S).
  const double shared_cost = static_cast<double>(ev.shared_requests) *
                             static_cast<double>(arch.shared_lat);

  return global_cost + tex_cost + const_cost + shared_cost;
}

double porple_cost(const TraceSkeleton& skeleton,
                   const DataPlacement& placement, const GpuArch& arch) {
  // PORPLE has no bank-conflict or staging model; analyze with defaults and
  // score only the events its model understands.
  const PlacementEvents ev = analyze_trace(skeleton.kernel(), placement, arch,
                                           ModelOptions{}, &skeleton);
  return porple_cost(ev, arch);
}

}  // namespace gpuhms
