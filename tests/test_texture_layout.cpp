#include "cache/texture_layout.hpp"

#include <set>

#include <gtest/gtest.h>

namespace gpuhms {
namespace {

ArrayDecl image(std::size_t width, std::size_t height) {
  return ArrayDecl{.name = "img", .dtype = DType::F32,
                   .elems = width * height, .width = width};
}

TEST(PitchLinear, Basics) {
  const ArrayDecl a = image(64, 64);
  EXPECT_EQ(pitch_linear_offset(a, 0), 0u);
  EXPECT_EQ(pitch_linear_offset(a, 10), 40u);
}

TEST(BlockLinear, FirstTileIsContiguous) {
  // Tile = 64 B x 8 rows: elements (x<16, y<8) live in bytes [0, 512).
  const ArrayDecl a = image(64, 64);
  for (std::int64_t y = 0; y < 8; ++y) {
    for (std::int64_t x = 0; x < 16; ++x) {
      const auto off = block_linear_offset(a, y * 64 + x);
      EXPECT_LT(off, 512u);
      EXPECT_EQ(off, static_cast<std::uint64_t>(y) * 64 +
                         static_cast<std::uint64_t>(x) * 4);
    }
  }
}

TEST(BlockLinear, IsInjective) {
  const ArrayDecl a = image(48, 24);  // width not a multiple of the tile
  std::set<std::uint64_t> seen;
  for (std::size_t e = 0; e < a.elems; ++e) {
    const auto off = block_linear_offset(a, static_cast<std::int64_t>(e));
    EXPECT_TRUE(seen.insert(off).second) << "collision at element " << e;
  }
}

TEST(BlockLinear, VerticalNeighborsShareTile) {
  // The whole point of block-linear: (x, y) and (x, y+1) are 64 bytes apart
  // (same tile), not a full row apart.
  const ArrayDecl a = image(256, 64);
  const auto o1 = block_linear_offset(a, 5);          // (5, 0)
  const auto o2 = block_linear_offset(a, 256 + 5);    // (5, 1)
  EXPECT_EQ(o2 - o1, 64u);
  // Pitch-linear puts them 1 KiB apart.
  EXPECT_EQ(pitch_linear_offset(a, 256 + 5) - pitch_linear_offset(a, 5),
            1024u);
}

TEST(BlockLinear, ColumnWalkTouchesFewerLines) {
  // Walking a column of 32 rows: block-linear touches 4 tiles of 512 B
  // (16 cache lines of 128 B), pitch-linear touches 32 distinct lines.
  const ArrayDecl a = image(256, 64);
  std::set<std::uint64_t> bl_lines, pl_lines;
  for (std::int64_t y = 0; y < 32; ++y) {
    bl_lines.insert(block_linear_offset(a, y * 256 + 7) / 128);
    pl_lines.insert(pitch_linear_offset(a, y * 256 + 7) / 128);
  }
  EXPECT_EQ(pl_lines.size(), 32u);
  EXPECT_LT(bl_lines.size(), pl_lines.size());
  EXPECT_EQ(bl_lines.size(), 16u);  // 4 lines per 512 B tile, 4 tiles
}

TEST(BlockLinear, CustomTileShape) {
  const ArrayDecl a = image(128, 32);
  const TextureTileShape tile{.tile_w = 32, .tile_h = 4};
  // Element (8, 1): tile (1, 0), local (0, 1) -> 1*128 + 1*32.
  EXPECT_EQ(block_linear_offset(a, 128 + 8, tile), 128u + 32u);
}

TEST(BlockLinear, StaysWithinPaddedBounds) {
  const ArrayDecl a = image(100, 10);  // ragged against the 64 B x 8 tile
  const TextureTileShape tile;
  const std::uint64_t row_bytes = a.width * 4;
  const std::uint64_t tiles_x = (row_bytes + tile.tile_w - 1) / tile.tile_w;
  const std::uint64_t tiles_y = (a.height() + tile.tile_h - 1) / tile.tile_h;
  const std::uint64_t padded = tiles_x * tiles_y * tile.tile_w * tile.tile_h;
  for (std::size_t e = 0; e < a.elems; ++e) {
    EXPECT_LT(block_linear_offset(a, static_cast<std::int64_t>(e)), padded);
  }
}

// BlockLinearMap hoists the per-array constants and turns the tile
// divisions into shifts; every element of ragged images, in every element
// size and tile shape, lands where the per-element tile formula puts it.
TEST(BlockLinear, MapMatchesTheTileFormula) {
  const auto reference = [](const ArrayDecl& arr, std::uint64_t e,
                            const TextureTileShape& tile) {
    const std::uint64_t esize = arr.elem_size();
    const std::uint64_t bx = e % arr.width * esize;
    const std::uint64_t y = e / arr.width;
    const std::uint64_t tiles_per_row =
        (arr.width * esize + tile.tile_w - 1) / tile.tile_w;
    return (y / tile.tile_h * tiles_per_row + bx / tile.tile_w) *
               tile.tile_w * tile.tile_h +
           y % tile.tile_h * tile.tile_w + bx % tile.tile_w;
  };
  for (DType dtype : {DType::F32, DType::F64}) {
    for (std::size_t width : {1u, 7u, 16u, 100u, 257u}) {
      const ArrayDecl a{.name = "img", .dtype = dtype, .elems = width * 19,
                        .width = width};
      for (const TextureTileShape tile :
           {TextureTileShape{}, TextureTileShape{.tile_w = 32, .tile_h = 4},
            TextureTileShape{.tile_w = 16, .tile_h = 1}}) {
        const BlockLinearMap map(a, tile);
        for (std::uint64_t e = 0; e < a.elems; ++e) {
          ASSERT_EQ(map.offset(static_cast<std::int64_t>(e)),
                    reference(a, e, tile))
              << "width " << width << " elem " << e;
        }
      }
    }
  }
}

TEST(BlockLinearDeathTest, ElementOutsideTheArrayAborts) {
  const ArrayDecl a = image(16, 4);
  const BlockLinearMap map(a);
  EXPECT_DEATH(map.offset(64), "check failed");
  EXPECT_DEATH(map.offset(-1), "check failed");
  const TextureTileShape ragged{.tile_w = 48, .tile_h = 8};
  EXPECT_DEATH(BlockLinearMap(a, ragged), "powers of two");
}

}  // namespace
}  // namespace gpuhms
