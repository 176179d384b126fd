// Tiled dense matrix multiply (CUDA SDK matrixMul): each block stages a
// tile of A and B into shared memory and iterates the inner product. The
// Table IV tests move A/B to 1-D and 2-D texture memory.
#include "workloads/workloads.hpp"

#include <array>

#include "common/check.hpp"

namespace gpuhms::workloads {

KernelInfo make_matrixmul(int n, int tile) {
  GPUHMS_CHECK(n % tile == 0 && tile * tile % kWarpSize == 0);
  KernelInfo k;
  k.name = "matrixmul";
  k.threads_per_block = tile * tile;
  const int grid = n / tile;
  k.num_blocks = static_cast<std::int64_t>(grid) * grid;

  const std::size_t elems = static_cast<std::size_t>(n) * n;
  ArrayDecl A{.name = "A", .dtype = DType::F32, .elems = elems,
              .width = static_cast<std::size_t>(n)};
  ArrayDecl B = A;
  B.name = "B";
  ArrayDecl C = A;
  C.name = "C";
  C.written = true;
  ArrayDecl As{.name = "As", .dtype = DType::F32,
               .elems = static_cast<std::size_t>(tile) * tile,
               .width = static_cast<std::size_t>(tile), .written = true,
               .shared_slice_elems = static_cast<std::size_t>(tile) * tile,
               .default_space = MemSpace::Shared};
  ArrayDecl Bs = As;
  Bs.name = "Bs";
  A.shared_slice_elems = static_cast<std::size_t>(tile) * tile;
  B.shared_slice_elems = A.shared_slice_elems;
  k.arrays = {A, B, C, As, Bs};

  const int iA = 0, iB = 1, iC = 2, iAs = 3, iBs = 4;
  k.fn = [n, tile, grid, iA, iB, iC, iAs, iBs](WarpEmitter& em,
                                               const WarpCtx& ctx) {
    const int bx = static_cast<int>(ctx.block % grid);
    const int by = static_cast<int>(ctx.block / grid);
    // Thread (tx, ty) within the tile; lanes are row-major in the block.
    // Computed once per warp: every op below reads them.
    std::array<int, kWarpSize> tx_of{}, ty_of{};
    for (int l = 0; l < kWarpSize; ++l) {
      const int thread = ctx.warp_in_block * kWarpSize + l;
      tx_of[static_cast<std::size_t>(l)] = thread % tile;
      ty_of[static_cast<std::size_t>(l)] = thread / tile;
    }
    auto tx = [&](int l) { return tx_of[static_cast<std::size_t>(l)]; };
    auto ty = [&](int l) { return ty_of[static_cast<std::size_t>(l)]; };
    for (int t = 0; t < grid; ++t) {
      // As[ty][tx] = A[by*tile+ty][t*tile+tx]
      em.load(iA, em.by_lane([&](int l) {
        return static_cast<std::int64_t>(by * tile + ty(l)) * n + t * tile +
               tx(l);
      }));
      em.store(iAs, em.by_lane([&](int l) {
        return static_cast<std::int64_t>(ty(l)) * tile + tx(l);
      }));
      // Bs[ty][tx] = B[t*tile+ty][bx*tile+tx]
      em.load(iB, em.by_lane([&](int l) {
        return static_cast<std::int64_t>(t * tile + ty(l)) * n + bx * tile +
               tx(l);
      }));
      em.store(iBs, em.by_lane([&](int l) {
        return static_cast<std::int64_t>(ty(l)) * tile + tx(l);
      }));
      em.sync();
      // Inner product over the tile.
      for (int kk = 0; kk < tile; ++kk) {
        em.load(iAs, em.by_lane([&](int l) {
          return static_cast<std::int64_t>(ty(l)) * tile + kk;
        }));
        em.load(iBs, em.by_lane([&](int l) {
          return static_cast<std::int64_t>(kk) * tile + tx(l);
        }));
        em.falu(1, /*uses_prev=*/true);  // fma into the accumulator
      }
      em.sync();
    }
    em.store(iC, em.by_lane([&](int l) {
      return static_cast<std::int64_t>(by * tile + ty(l)) * n + bx * tile +
             tx(l);
    }));
  };
  return k;
}

KernelInfo make_matrixmul_naive(int n) {
  // Untiled variant: every thread walks a full row of A and column of B
  // from off-chip memory — the quadratic-reuse pattern whose caching the
  // texture placements transform most visibly. Each warp covers one tile
  // row of C (lanes = consecutive columns).
  KernelInfo k;
  k.name = "matrixmul_naive";
  k.threads_per_block = 128;
  const std::int64_t cells = static_cast<std::int64_t>(n) * n;
  k.num_blocks = (cells + k.threads_per_block - 1) / k.threads_per_block;

  const std::size_t elems = static_cast<std::size_t>(n) * n;
  ArrayDecl A{.name = "A", .dtype = DType::F32, .elems = elems,
              .width = static_cast<std::size_t>(n)};
  ArrayDecl B = A;
  B.name = "B";
  ArrayDecl C = A;
  C.name = "C";
  C.written = true;
  k.arrays = {A, B, C};

  const int iA = 0, iB = 1, iC = 2;
  k.fn = [n, cells, iA, iB, iC](WarpEmitter& em, const WarpCtx& ctx) {
    if (ctx.thread_id(0) >= cells) return;
    auto row = [&](int l) { return ctx.thread_id(l) / n; };
    auto col = [&](int l) { return ctx.thread_id(l) % n; };
    em.ialu(2);
    for (int kk = 0; kk < n; ++kk) {
      // A[row][kk]: one word per distinct row in the warp (broadcast-ish).
      em.load(iA, em.by_lane([&](int l) {
        const std::int64_t t = ctx.thread_id(l);
        return t < cells ? row(l) * n + kk : kInactiveLane;
      }));
      // B[kk][col]: coalesced across lanes, column-strided across kk.
      em.load(iB, em.by_lane([&](int l) {
        const std::int64_t t = ctx.thread_id(l);
        return t < cells ? static_cast<std::int64_t>(kk) * n + col(l)
                         : kInactiveLane;
      }));
      em.falu(1, /*uses_prev=*/true);
    }
    em.store(iC, em.by_lane([&](int l) {
      const std::int64_t t = ctx.thread_id(l);
      return t < cells ? t : kInactiveLane;
    }), /*uses_prev=*/true);
  };
  return k;
}

}  // namespace gpuhms::workloads
