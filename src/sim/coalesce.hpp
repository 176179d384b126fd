// Warp-level memory request formation, shared by the timing simulator and
// the model's trace analysis so both agree on how lane addresses become
// transactions, divergences, and bank conflicts.
//
// The core primitives write into caller-provided fixed-capacity buffers (a
// warp touches at most kWarpSize distinct lines/words) and exploit that real
// access patterns are overwhelmingly lane-monotone: addresses are gathered
// with an on-the-fly sortedness check, and only the rare non-monotone warp
// pays for a (bounded, in-place) insertion sort. The results are identical
// to the original sort+unique formulation — ascending, deduplicated — which
// the replay paths rely on for bit-identical cache and row-buffer walks.
#pragma once

#include <algorithm>
#include <cstdint>
#include <vector>

#include "arch/gpu_arch.hpp"
#include "isa/op.hpp"

namespace gpuhms {

namespace detail {

// Ascending insertion sort; n <= kWarpSize, only hit on non-monotone warps.
inline void sort_small(std::uint64_t* v, int n) {
  for (int i = 1; i < n; ++i) {
    const std::uint64_t x = v[i];
    int j = i - 1;
    while (j >= 0 && v[j] > x) {
      v[j + 1] = v[j];
      --j;
    }
    v[j + 1] = x;
  }
}

// Gathers f(lane address) for active lanes into `out`, sorts unless already
// non-decreasing, and deduplicates adjacent values. Returns the distinct
// count; `out` holds the values ascending (exactly sort+unique's output).
template <class F>
inline int gather_distinct(std::uint32_t active_mask, const std::int64_t* addr,
                           std::uint64_t* out, F&& f) {
  int n = 0;
  bool sorted = true;
  std::uint64_t prev = 0;
  for (int l = 0; l < kWarpSize; ++l) {
    if (!(active_mask & (1u << l))) continue;
    const std::uint64_t v = f(static_cast<std::uint64_t>(addr[l]));
    sorted &= (n == 0) | (v >= prev);
    out[n++] = v;
    prev = v;
  }
  if (!sorted) sort_small(out, n);
  int m = 0;
  for (int i = 0; i < n; ++i) {
    if (m == 0 || out[i] != out[m - 1]) out[m++] = out[i];
  }
  return m;
}

}  // namespace detail

// Distinct cache-line addresses touched by the active lanes (global/texture
// coalescing), written ascending into out[0..return) — line-aligned *byte*
// values. `out` must hold kWarpSize entries.
inline int coalesce_lines_buf(std::uint32_t active_mask,
                              const std::int64_t* addr, std::size_t line_size,
                              std::uint64_t* out) {
  if ((line_size & (line_size - 1)) == 0) {
    const std::uint64_t line_mask =
        ~(static_cast<std::uint64_t>(line_size) - 1);
    return detail::gather_distinct(
        active_mask, addr, out,
        [line_mask](std::uint64_t a) { return a & line_mask; });
  }
  return detail::gather_distinct(
      active_mask, addr, out,
      [line_size](std::uint64_t a) { return a / line_size * line_size; });
}

// Vector-output form kept for the analysis full walk and the tests.
inline void coalesce_lines(std::uint32_t active_mask,
                           const std::int64_t* addr, std::size_t line_size,
                           std::vector<std::uint64_t>& out) {
  std::uint64_t buf[kWarpSize];
  const int n = coalesce_lines_buf(active_mask, addr, line_size, buf);
  out.assign(buf, buf + n);
}

inline void coalesce_lines(const TraceOp& op, std::size_t line_size,
                           std::vector<std::uint64_t>& out) {
  coalesce_lines(op.active_mask, op.addr.data(), line_size, out);
}

// Number of distinct word (4 B) addresses among active lanes; constant
// memory broadcasts when this is 1, and each extra address is an indexed-
// constant divergence replay (cause 3).
inline int distinct_words(std::uint32_t active_mask,
                          const std::int64_t* addr) {
  std::uint64_t words[kWarpSize];
  return detail::gather_distinct(active_mask, addr, words,
                                 [](std::uint64_t a) { return a / 4; });
}

inline int distinct_words(const TraceOp& op) {
  return distinct_words(op.active_mask, op.addr.data());
}

// Shared-memory bank-conflict degree: the maximum number of *distinct* words
// any bank must serve for this warp access (1 = conflict-free). Lanes hitting
// the same word broadcast. Computed as a bank histogram over the globally
// distinct words — equivalent to the previous per-bank dedup scratch, since
// each word maps to exactly one bank. num_banks <= 64 (same bound as the
// previous implementation's scratch rows).
inline int shared_conflict_degree(std::uint32_t active_mask,
                                  const std::int64_t* addr, int num_banks) {
  std::uint64_t words[kWarpSize];
  const int n = detail::gather_distinct(active_mask, addr, words,
                                        [](std::uint64_t a) { return a / 4; });
  std::uint8_t per_bank[64] = {};
  int degree = 1;
  for (int i = 0; i < n; ++i) {
    const int bank =
        static_cast<int>(words[i] % static_cast<std::uint64_t>(num_banks));
    per_bank[bank] = static_cast<std::uint8_t>(per_bank[bank] + 1);
    degree = std::max<int>(degree, per_bank[bank]);
  }
  return degree;
}

inline int shared_conflict_degree(const TraceOp& op, int num_banks) {
  return shared_conflict_degree(op.active_mask, op.addr.data(), num_banks);
}

}  // namespace gpuhms
