// 2-D texture block-linear layout.
//
// The texture path's "2D spatial locality" (Sec. I of the paper) comes from
// storing 2-D arrays in tiles so that a 2-D neighborhood shares cache lines.
// We model the layout explicitly: a (x, y) element coordinate maps to a byte
// offset inside fixed-size tiles, and the texture/L2 caches operate on the
// resulting addresses. 1-D textures and all other spaces are pitch-linear.
#pragma once

#include <cstdint>

#include "common/check.hpp"
#include "kernel/array.hpp"

namespace gpuhms {

struct TextureTileShape {
  // Tile footprint in bytes: tile_w bytes wide, tile_h rows tall -> one tile
  // spans tile_w * tile_h contiguous bytes (512 B = 4 cache sectors by
  // default, matching the locality granularity of NVIDIA block-linear).
  // Both are powers of two.
  std::uint32_t tile_w = 64;
  std::uint32_t tile_h = 8;
};

// The block-linear image of one array, with its per-array constants (row
// bytes, tiles per row, tile shifts) computed once: an offset costs one
// division by the row width, where the per-element formula costs six, and
// none when the caller has the element's row and column.
class BlockLinearMap {
 public:
  // CHECKs that arr is 2-D and the tile sides are powers of two.
  explicit BlockLinearMap(const ArrayDecl& arr,
                          const TextureTileShape& tile = {});

  // Byte offset of element `elem` (the flattened row-major index; CHECKed
  // to lie inside the array).
  std::uint64_t offset(std::int64_t elem) const {
    GPUHMS_CHECK(elem >= 0 && static_cast<std::uint64_t>(elem) < elems_);
    const std::uint64_t e = static_cast<std::uint64_t>(elem);
    const std::uint64_t y = e / width_;
    return tiled(y, e - y * width_);
  }
  // offset(y * width() + x) for a column x < width() (CHECKed, as is the
  // element lying inside the array), without the division by the width.
  std::uint64_t offset(std::uint64_t y, std::uint64_t x) const {
    GPUHMS_CHECK(x < width_ && y * width_ + x < elems_);
    return tiled(y, x);
  }
  // Row width in elements.
  std::uint64_t width() const { return width_; }

 private:
  std::uint64_t tiled(std::uint64_t y, std::uint64_t x) const {
    const std::uint64_t bx = x * esize_;  // byte column
    const std::uint64_t tile =
        (y >> h_shift_) * tiles_per_row_ + (bx >> w_shift_);
    return (tile << (w_shift_ + h_shift_)) +
           ((y & h_mask_) << w_shift_) + (bx & w_mask_);
  }

  std::uint64_t elems_, width_, esize_, tiles_per_row_;
  unsigned w_shift_, h_shift_;
  std::uint64_t w_mask_, h_mask_;
};

// Byte offset of element `elem` of `arr` within a block-linear image of the
// array (elem is the flattened row-major index; arr.width defines rows).
inline std::uint64_t block_linear_offset(const ArrayDecl& arr,
                                         std::int64_t elem,
                                         const TextureTileShape& tile = {}) {
  return BlockLinearMap(arr, tile).offset(elem);
}

// Pitch-linear offset (plain elem * elem_size), for symmetry.
std::uint64_t pitch_linear_offset(const ArrayDecl& arr, std::int64_t elem);

}  // namespace gpuhms
