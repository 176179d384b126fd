#include "trace/allocation.hpp"

#include <algorithm>

#include "common/check.hpp"

namespace gpuhms {

namespace {

constexpr std::uint64_t kDeviceHeapStart = 1ull << 16;  // skip the null page
constexpr std::uint64_t kDeviceAlign = 512;
// kSharedAlign lives in arch/gpu_arch.hpp, next to the bank-count rule that
// depends on it.

std::uint64_t align_up(std::uint64_t v, std::uint64_t a) {
  return (v + a - 1) / a * a;
}

// Device allocation size, padded so the block-linear tile grid fits if the
// array is ever viewed as a 2-D texture.
std::uint64_t alloc_bytes(const ArrayDecl& a) {
  std::uint64_t bytes = a.bytes();
  if (a.width > 0) {
    const TextureTileShape tile;
    const std::uint64_t row_bytes = a.width * a.elem_size();
    const std::uint64_t tiles_x = (row_bytes + tile.tile_w - 1) / tile.tile_w;
    const std::uint64_t tiles_y = (a.height() + tile.tile_h - 1) / tile.tile_h;
    const std::uint64_t padded =
        tiles_x * tiles_y * static_cast<std::uint64_t>(tile.tile_w) * tile.tile_h;
    bytes = padded > bytes ? padded : bytes;
  }
  return bytes;
}

}  // namespace

MemoryLayout::MemoryLayout(const KernelInfo& kernel,
                           const DataPlacement& placement, const GpuArch& arch)
    : kernel_(&kernel), placement_(&placement) {
  GPUHMS_CHECK(placement.size() == kernel.arrays.size());
  device_base_.resize(kernel.arrays.size());
  shared_offset_.resize(kernel.arrays.size(), 0);
  device_cursor_ = kDeviceHeapStart;
  for (std::size_t i = 0; i < kernel.arrays.size(); ++i) {
    // Stagger bases across DRAM banks: power-of-two-sized arrays would
    // otherwise start in the same bank and row-thrash when streamed
    // together (real allocators/mappings stagger or swizzle the same way).
    const std::uint64_t bank_stagger = (i * 13 % 128) * 128;
    device_base_[i] = device_cursor_ + bank_stagger;
    device_cursor_ = align_up(device_base_[i] + alloc_bytes(kernel.arrays[i]),
                              kDeviceAlign);
  }
  for (std::size_t i = 0; i < kernel.arrays.size(); ++i) {
    if (placement.of(static_cast<int>(i)) != MemSpace::Shared) continue;
    shared_offset_[i] = shared_cursor_;
    shared_cursor_ = align_up(
        shared_cursor_ + kernel.arrays[i].shared_slice_bytes(), kSharedAlign);
  }
  GPUHMS_CHECK_MSG(shared_cursor_ <= arch.shared_capacity,
                   "placement exceeds shared capacity (validate first)");
}

int MemoryLayout::blocks_per_sm(const GpuArch& arch) const {
  const int wpb = kernel_->warps_per_block();
  int blocks = std::min(arch.max_blocks_per_sm,
                        std::max(1, arch.max_warps_per_sm / wpb));
  if (shared_cursor_ > 0) {
    const int by_shared =
        static_cast<int>(arch.shared_capacity / shared_cursor_);
    blocks = std::min(blocks, by_shared);
  }
  return std::max(1, blocks);
}

double MemoryLayout::warps_per_sm(const GpuArch& arch) const {
  return static_cast<double>(blocks_per_sm(arch)) *
         kernel_->warps_per_block();
}

std::uint64_t MemoryLayout::device_base(int array) const {
  return device_base_[static_cast<std::size_t>(array)];
}

std::uint64_t MemoryLayout::device_addr(int array, std::int64_t elem) const {
  const ArrayDecl& a = kernel_->arrays[static_cast<std::size_t>(array)];
  const MemSpace s = placement_->of(array);
  const std::uint64_t off = s == MemSpace::Texture2D
                                ? block_linear_offset(a, elem)
                                : pitch_linear_offset(a, elem);
  return device_base_[static_cast<std::size_t>(array)] + off;
}

bool MemoryLayout::in_shared(int array) const {
  return placement_->of(array) == MemSpace::Shared;
}

std::uint64_t MemoryLayout::shared_offset(int array) const {
  GPUHMS_CHECK(in_shared(array));
  return shared_offset_[static_cast<std::size_t>(array)];
}

std::int64_t shared_slice_elems(const ArrayDecl& a) {
  return static_cast<std::int64_t>(a.shared_slice_elems ? a.shared_slice_elems
                                                        : a.elems);
}

std::int64_t shared_slice_start(const ArrayDecl& a, std::int64_t block) {
  const std::int64_t slice = shared_slice_elems(a);
  if (static_cast<std::size_t>(slice) >= a.elems) return 0;  // replicated
  return (block * slice) % static_cast<std::int64_t>(a.elems);
}

std::int64_t MemoryLayout::shared_slice_elems(int array) const {
  return gpuhms::shared_slice_elems(
      kernel_->arrays[static_cast<std::size_t>(array)]);
}

std::uint64_t MemoryLayout::shared_addr(int array, std::int64_t elem) const {
  const ArrayDecl& a = kernel_->arrays[static_cast<std::size_t>(array)];
  const std::int64_t slice = shared_slice_elems(array);
  const std::int64_t local = elem % slice;
  return shared_offset(array) + static_cast<std::uint64_t>(local) * a.elem_size();
}

std::int64_t MemoryLayout::shared_slice_start(int array,
                                              std::int64_t block) const {
  return gpuhms::shared_slice_start(
      kernel_->arrays[static_cast<std::size_t>(array)], block);
}

}  // namespace gpuhms
