#include "cache/texture_layout.hpp"

#include <bit>

namespace gpuhms {

BlockLinearMap::BlockLinearMap(const ArrayDecl& arr,
                               const TextureTileShape& tile)
    : elems_(arr.elems), width_(arr.width), esize_(arr.elem_size()),
      w_shift_(static_cast<unsigned>(std::countr_zero(tile.tile_w))),
      h_shift_(static_cast<unsigned>(std::countr_zero(tile.tile_h))),
      w_mask_(tile.tile_w - 1u), h_mask_(tile.tile_h - 1u) {
  GPUHMS_CHECK_MSG(arr.width > 0, "block-linear layout needs a 2-D shape");
  GPUHMS_CHECK_MSG(std::has_single_bit(tile.tile_w) &&
                       std::has_single_bit(tile.tile_h),
                   "block-linear tile sides must be powers of two");
  tiles_per_row_ = (width_ * esize_ + w_mask_) >> w_shift_;
}

std::uint64_t pitch_linear_offset(const ArrayDecl& arr, std::int64_t elem) {
  GPUHMS_CHECK(elem >= 0 && static_cast<std::size_t>(elem) < arr.elems);
  return static_cast<std::uint64_t>(elem) * arr.elem_size();
}

}  // namespace gpuhms
