// Memory layout: resolves (array, element index) -> byte address under a
// given data placement.
//
// Address-assignment policy follows Sec. III-E of the paper:
//   * every array owns a fixed device (off-chip) allocation, so moving an
//     array between off-chip spaces keeps its addresses unchanged;
//   * arrays placed in 2-D texture memory keep their base but use the
//     block-linear layout within the allocation (allocations are padded for
//     the tile grid);
//   * arrays placed in shared memory get a per-block shared-memory offset,
//     assigned sequentially with 128 B alignment.
//
// Shared indexing convention: a global element index maps into the block's
// slice by modulo (slice-local indices pass through unchanged when the DSL
// kernel already uses block-local indices, and block-partitioned streams map
// onto their block's tile).
#pragma once

#include <cstdint>
#include <vector>

#include "arch/gpu_arch.hpp"
#include "cache/texture_layout.hpp"
#include "kernel/placement.hpp"

namespace gpuhms {

// Elements of `a` a single block keeps in shared memory (the whole array
// unless it declares a per-block slice).
std::int64_t shared_slice_elems(const ArrayDecl& a);
// First global element index of block `block`'s shared slice of `a` (0 in
// every block for a replicated slice).
std::int64_t shared_slice_start(const ArrayDecl& a, std::int64_t block);

class MemoryLayout {
 public:
  MemoryLayout(const KernelInfo& kernel, const DataPlacement& placement,
               const GpuArch& arch);

  const KernelInfo& kernel() const { return *kernel_; }
  const DataPlacement& placement() const { return *placement_; }

  std::uint64_t device_base(int array) const;
  // Device byte address of an element, honoring the array's placed layout
  // (block-linear when placed in Texture2D, pitch-linear otherwise).
  std::uint64_t device_addr(int array, std::int64_t elem) const;

  bool in_shared(int array) const;
  std::uint64_t shared_offset(int array) const;  // within the block's segment
  std::uint64_t shared_addr(int array, std::int64_t elem) const;
  // Elements of `array` a single block keeps in shared memory.
  std::int64_t shared_slice_elems(int array) const;
  // First global element index of block `block`'s shared slice.
  std::int64_t shared_slice_start(int array, std::int64_t block) const;

  std::uint64_t total_device_bytes() const { return device_cursor_; }
  std::uint64_t total_shared_bytes() const { return shared_cursor_; }

 public:
  // Concurrent thread blocks one SM can host under this placement: the
  // block/warp limits and the per-block shared-memory footprint (a
  // placement that stages large arrays into shared memory costs occupancy,
  // a first-order performance effect of the shared placement choice).
  int blocks_per_sm(const GpuArch& arch) const;
  double warps_per_sm(const GpuArch& arch) const;

 private:
  const KernelInfo* kernel_;
  const DataPlacement* placement_;
  std::vector<std::uint64_t> device_base_;
  std::vector<std::uint64_t> shared_offset_;
  std::uint64_t device_cursor_ = 0;
  std::uint64_t shared_cursor_ = 0;
};

}  // namespace gpuhms
