#include "trace/generator.hpp"

#include <algorithm>
#include <bit>
#include <limits>
#include <numeric>
#include <unordered_map>

#include "common/check.hpp"
#include "common/fault_injection.hpp"
#include "common/obs.hpp"
#include "isa/addressing.hpp"
#include "sim/coalesce.hpp"

namespace gpuhms {

namespace {

// Active-lane mask and largest offset of a lane pattern.
struct PatternShape {
  std::uint32_t mask = 0;
  std::int32_t span = 0;
};

// The shape of every pattern (`none` marks an inactive lane).
std::vector<PatternShape> shapes_of(
    const std::vector<TraceSkeleton::Lanes>& patterns, std::int32_t none) {
  std::vector<PatternShape> shapes(patterns.size());
  for (std::size_t i = 0; i < patterns.size(); ++i) {
    for (int l = 0; l < kWarpSize; ++l) {
      const std::int32_t off = patterns[i][static_cast<std::size_t>(l)];
      if (off == none) continue;
      shapes[i].mask |= 1u << l;
      shapes[i].span = std::max(shapes[i].span, off);
    }
  }
  return shapes;
}

// Writes the kWarpSize lane byte addresses `to(offset)` of a pattern's
// offsets into `addr` (inactive lanes, `none`: -1).
template <class To>
void lane_bytes(const TraceSkeleton::Lanes& pattern, std::int32_t none,
                To&& to, std::int64_t* addr) {
  for (int l = 0; l < kWarpSize; ++l) {
    const std::int32_t off = pattern[static_cast<std::size_t>(l)];
    addr[l] = off == none ? -1 : static_cast<std::int64_t>(to(off));
  }
}

// Key of a result memoized per (pattern, alignment of the op's base).
std::uint64_t memo_key(std::uint32_t pattern, std::uint64_t align) {
  return std::uint64_t{pattern} << 32 | align;
}

// Hash of a lane pattern, for interning while the skeleton records.
struct LanesHash {
  std::size_t operator()(const TraceSkeleton::Lanes& p) const {
    std::uint64_t h = 0;
    for (std::int32_t v : p)
      h = (h ^ static_cast<std::uint32_t>(v)) * 0x9e3779b97f4a7c15ull;
    return static_cast<std::size_t>(h ^ h >> 32);
  }
};

// The copy-in lanes of the chunk starting at slice-local element `first`:
// those still inside the slice.
std::uint32_t chunk_mask(std::int64_t slice, std::int64_t first) {
  const std::int64_t left = slice - first;
  return left >= kWarpSize ? 0xffffffffu
                           : (1u << static_cast<unsigned>(left)) - 1;
}

template <class T>
std::size_t bytes_of(const std::vector<T>& v) {
  return v.capacity() * sizeof(T);
}

}  // namespace

std::uint32_t active_mask_of(const LaneIdx& idx) {
  std::uint32_t m = 0;
  for (int l = 0; l < kWarpSize; ++l) {
    if (idx[static_cast<std::size_t>(l)] != kInactiveLane) m |= 1u << l;
  }
  return m;
}

TraceSkeleton::TraceSkeleton(const KernelInfo& kernel, const GpuArch& arch)
    : kernel_(&kernel),
      lanes_(kernel.arrays.size()),
      mem_ops_per_array_(kernel.arrays.size(), 0),
      line_size_(arch.cache_line) {
  GPUHMS_SCOPED_PHASE("trace.skeleton_record_ns");
  GPUHMS_COUNTER_ADD("trace.skeletons_recorded", 1);
  const std::size_t num_arrays = kernel.arrays.size();
  for (const ArrayDecl& arr : kernel.arrays) {
    GPUHMS_CHECK_MSG(arr.elems <= static_cast<std::size_t>(
                                      std::numeric_limits<std::int32_t>::max()),
                     "TraceSkeleton: array too large for 32-bit lane indices");
    // Copy-in geometry (see copy_in_entry): block b's slice starts at
    // (b * slice) % elems, which repeats every elems / gcd(slice, elems)
    // blocks; a replicated slice starts at 0 in every block.
    const std::uint64_t elems = arr.elems;
    const std::uint64_t slice =
        static_cast<std::uint64_t>(shared_slice_elems(arr));
    const std::uint64_t period =
        slice >= elems ? 1 : elems / std::gcd(slice, elems);
    const std::uint64_t blocks = static_cast<std::uint64_t>(
        std::max<std::int64_t>(1, kernel.num_blocks));
    copy_in_chunks_.push_back(
        static_cast<std::uint32_t>((slice + kWarpSize - 1) / kWarpSize));
    copy_in_classes_.push_back(
        static_cast<std::uint32_t>(std::min(period, blocks)));
  }
  const std::size_t total_warps =
      static_cast<std::size_t>(kernel.total_warps());
  const int wpb = kernel.warps_per_block();
  ctx_.reserve(total_warps);
  proto_begin_.reserve(total_warps + 1);
  proto_begin_.push_back(0);
  // Every warp records into one reused buffer; only its digest is kept.
  std::vector<DslOp> ops;
  // Per array: pattern -> its id in the array's dictionary, and the id of
  // its last op's pattern, which consecutive ops of a loop often repeat.
  std::vector<std::unordered_map<Lanes, std::uint32_t, LanesHash>> ids(
      num_arrays);
  std::vector<std::uint32_t> last(num_arrays, 0);
  for (std::int64_t b = 0; b < kernel.num_blocks; ++b) {
    for (int w = 0; w < wpb; ++w) {
      ctx_.push_back(record_warp(kernel, b, w, ops));
      for (const DslOp& op : ops) {
        ProtoOp p;
        p.cls = op.cls;
        p.uses_prev = op.uses_prev;
        switch (op.cls) {
          case OpClass::Load:
          case OpClass::Store: {
            ++base_insts_;
            if (op.cls == OpClass::Load) ++base_load_insts_;
            const auto a = static_cast<std::size_t>(op.array);
            p.array = op.array;
            p.ordinal = static_cast<std::uint32_t>(mem_ops_per_array_[a]);
            ++mem_ops_per_array_[a];
            // Interned as its lowest active index and the offsets from it.
            std::int64_t lo = std::numeric_limits<std::int64_t>::max();
            for (int l = 0; l < kWarpSize; ++l) {
              const std::int64_t e = op.idx[static_cast<std::size_t>(l)];
              if (e == kInactiveLane) continue;
              p.active_mask |= 1u << l;
              lo = std::min(lo, e);
            }
            if (p.active_mask == 0) lo = 0;
            Lanes pattern{};
            for (std::size_t l = 0; l < pattern.size(); ++l) {
              const std::int64_t e = op.idx[l];
              GPUHMS_CHECK_MSG(
                  e == static_cast<std::int32_t>(e) &&
                      e - lo <= std::numeric_limits<std::int32_t>::max(),
                  "TraceSkeleton: lane index out of 32-bit range");
              pattern[l] = e == kInactiveLane
                               ? kNoLane
                               : static_cast<std::int32_t>(e - lo);
            }
            std::vector<Lanes>& patterns = lanes_[a].patterns;
            if (patterns.empty() || patterns[last[a]] != pattern) {
              const auto [it, fresh] = ids[a].try_emplace(
                  pattern, static_cast<std::uint32_t>(patterns.size()));
              if (fresh) patterns.push_back(pattern);
              last[a] = it->second;
            }
            lanes_[a].ops.push_back({static_cast<std::int32_t>(lo), last[a]});
            break;
          }
          case OpClass::Sync:
            ++base_insts_;
            p.active_mask = 0xffffffffu;
            break;
          default:
            base_insts_ += op.count;
            p.count = op.count;
            p.active_mask = 0xffffffffu;
            break;
        }
        proto_.push_back(p);
      }
      proto_begin_.push_back(static_cast<std::uint32_t>(proto_.size()));
    }
  }
  proto_.shrink_to_fit();
  for (ArrayLanes& lanes : lanes_) {
    lanes.ops.shrink_to_fit();
    lanes.patterns.shrink_to_fit();
  }

  // SoA replay tables: digest the proto stream into per-warp memory-record
  // ranges plus the placement-invariant tallies the data-oriented path folds
  // analytically (see the header for the dependency/chain rules mirrored
  // from TraceMaterializer::lower).
  const std::size_t num_warps = ctx_.size();
  std::uint64_t mem_ops = 0;
  for (std::uint64_t n : mem_ops_per_array_) mem_ops += n;
  inv_ops_.resize(num_warps);
  mem_cnt_.assign(num_warps * num_arrays, 0);
  invariants_.mem_uses_prev.assign(num_arrays, 0);
  invariants_.chain_mem_up.assign(num_arrays, 0);
  invariants_.unmasked.assign(num_arrays, 0);
  invariants_.unmasked_loads.assign(num_arrays, 0);
  mem_rec_.reserve(static_cast<std::size_t>(mem_ops));
  mem_rec_begin_.reserve(num_warps + 1);
  mem_rec_begin_.push_back(0);
  for (std::size_t w = 0; w < num_warps; ++w) {
    const std::span<const ProtoOp> ps = proto(w);
    std::uint32_t inv = 0;
    for (std::size_t i = 0; i < ps.size(); ++i) {
      const ProtoOp& p = ps[i];
      switch (p.cls) {
        case OpClass::Load:
        case OpClass::Store: {
          const std::size_t a = static_cast<std::size_t>(p.array);
          MemRecord r;
          r.inv_prefix = inv;
          r.active_mask = p.active_mask;
          r.ordinal = p.ordinal;
          r.array = p.array;
          r.is_store = p.cls == OpClass::Store;
          mem_rec_.push_back(r);
          ++mem_cnt_[w * num_arrays + a];
          ++invariants_.mem_protos;
          if (p.cls == OpClass::Load) ++invariants_.load_protos;
          if (p.uses_prev) ++invariants_.mem_uses_prev[a];
          if (p.active_mask != 0) {
            ++invariants_.unmasked[a];
            if (p.cls == OpClass::Load) ++invariants_.unmasked_loads[a];
          }
          // Memory-chain successor: the expanded op right after this memory
          // op is (a) a dependency-free addressing insert when the successor
          // memory proto lowers with ai > 0, (b) the successor memory op
          // itself when ai == 0, or (c) the head of a compute run. Syncs
          // never depend. Case (b) is placement-dependent, so it is tallied
          // per successor array and gated on ai at fold time.
          if (i + 1 < ps.size()) {
            const ProtoOp& q = ps[i + 1];
            if (is_memory(q.cls)) {
              if (q.uses_prev)
                ++invariants_.chain_mem_up[static_cast<std::size_t>(q.array)];
            } else if (q.cls != OpClass::Sync && q.uses_prev) {
              ++invariants_.chain_comp_up;
            }
          }
          ++inv;
          break;
        }
        case OpClass::Sync:
          ++invariants_.sync_protos;
          ++inv;
          break;
        default:
          if (p.uses_prev) ++invariants_.dep_compute;
          inv += p.count;
          break;
      }
    }
    inv_ops_[w] = inv;
    mem_rec_begin_.push_back(static_cast<std::uint32_t>(mem_rec_.size()));
  }
  {
    // Device bases do not depend on the placement: read them off any one.
    const DataPlacement offchip(
        std::vector<MemSpace>(num_arrays, MemSpace::Global));
    const MemoryLayout layout(kernel, offchip, arch);
    for (std::size_t a = 0; a < num_arrays; ++a)
      device_base_.push_back(layout.device_base(static_cast<int>(a)));
  }
  lines_.resize(num_arrays * (kCopyLines + 1));
  folds_.resize(num_arrays * 2 * kFoldSlots);
  const_words_.resize(num_arrays);
  once_ = std::make_unique<std::once_flag[]>(num_arrays * kTables);
}

const TraceSkeleton::LinePool& TraceSkeleton::line_pool(
    int array, bool block_linear) const {
  const Table table = block_linear ? kBlockLines : kPitchLines;
  const std::size_t a = static_cast<std::size_t>(array);
  LinePool& lp = lines_[a * (kCopyLines + 1) + table];
  std::call_once(once(array, table), [&] {
    const ArrayDecl& arr = kernel_->arrays[a];
    // Fixed per-array allocation base: identical under every placement, so
    // one table serves the whole search.
    const std::uint64_t base = device_base_[a];
    const ArrayLanes& lanes = lanes_[a];
    const std::vector<PatternShape> shapes = shapes_of(lanes.patterns, kNoLane);
    lp.begin.reserve(lanes.ops.size() + 1);
    lp.begin.push_back(0);
    lp.lines.reserve(lanes.ops.size());
    std::int64_t addr[kWarpSize];
    std::uint64_t buf[kWarpSize];
    if (block_linear) {
      // Lane element op.base + off sits at row yb + dy, column xb + dx
      // (carrying one row past the width), with (yb, xb) the op's base and
      // (dy, dx) the offset split once per pattern: one division per op.
      const BlockLinearMap map(arr);
      const std::uint64_t width = map.width();
      constexpr std::size_t kLanes = kWarpSize;
      using Split = std::array<std::uint32_t, kLanes>;  // offsets are int32
      std::vector<Split> dy(lanes.patterns.size()), dx(lanes.patterns.size());
      for (std::size_t i = 0; i < lanes.patterns.size(); ++i) {
        for (std::size_t l = 0; l < kLanes; ++l) {
          const std::int32_t off = lanes.patterns[i][l];
          if (off == kNoLane) continue;
          dy[i][l] = static_cast<std::uint32_t>(
              static_cast<std::uint64_t>(off) / width);
          dx[i][l] = static_cast<std::uint32_t>(
              static_cast<std::uint64_t>(off) - dy[i][l] * width);
        }
      }
      for (const MemOp& op : lanes.ops) {
        const std::uint32_t mask = shapes[op.pattern].mask;
        int n = 0;  // masked-off ops keep an empty range
        if (mask != 0) {
          GPUHMS_CHECK(op.base >= 0);
          const std::uint64_t yb = static_cast<std::uint64_t>(op.base) / width;
          const std::uint64_t xb =
              static_cast<std::uint64_t>(op.base) - yb * width;
          for (std::size_t l = 0; l < kLanes; ++l) {
            if ((mask >> l & 1u) == 0) {
              addr[l] = -1;
              continue;
            }
            std::uint64_t y = yb + dy[op.pattern][l];
            std::uint64_t x = xb + dx[op.pattern][l];
            if (x >= width) {
              x -= width;
              ++y;
            }
            addr[l] = static_cast<std::int64_t>(base + map.offset(y, x));
          }
          n = coalesce_lines_buf(mask, addr, line_size_, buf);
        }
        lp.lines.insert(lp.lines.end(), buf, buf + n);
        lp.begin.push_back(static_cast<std::uint32_t>(lp.lines.size()));
      }
    } else {
      // An op's lanes sit at at + off * esize, at = base + op.base * esize.
      // With at = q * L + r, the line of at + x is q * L plus the line of
      // r + x: the op's lines are those of its pattern at r, shifted.
      const std::uint64_t esize = arr.elem_size();
      std::unordered_map<std::uint64_t, std::uint32_t> memo;  // -> rel index
      std::vector<std::uint64_t> rel;  // per (pattern, r): count, then lines
      for (const MemOp& op : lanes.ops) {
        const PatternShape& shape = shapes[op.pattern];
        if (shape.mask != 0) {
          GPUHMS_CHECK(op.base >= 0 &&
                       static_cast<std::uint64_t>(op.base) + shape.span <
                           arr.elems);
          const std::uint64_t at =
              base + static_cast<std::uint64_t>(op.base) * esize;
          const std::uint64_t r = at % line_size_;
          const auto [it, fresh] = memo.try_emplace(
              memo_key(op.pattern, r), static_cast<std::uint32_t>(rel.size()));
          if (fresh) {
            lane_bytes(
                lanes.patterns[op.pattern], kNoLane,
                [&](std::int32_t off) {
                  return r + static_cast<std::uint64_t>(off) * esize;
                },
                addr);
            const int n = coalesce_lines_buf(shape.mask, addr, line_size_, buf);
            rel.push_back(static_cast<std::uint64_t>(n));
            rel.insert(rel.end(), buf, buf + n);
          }
          const std::uint64_t* lines = rel.data() + it->second;
          for (std::uint64_t i = 1; i <= lines[0]; ++i)
            lp.lines.push_back(at - r + lines[i]);
        }
        lp.begin.push_back(static_cast<std::uint32_t>(lp.lines.size()));
      }
    }
    lp.lines.shrink_to_fit();
  });
  return lp;
}

std::span<const std::uint8_t> TraceSkeleton::const_words_pool(
    int array) const {
  const std::size_t a = static_cast<std::size_t>(array);
  std::vector<std::uint8_t>& words = const_words_[a];
  std::call_once(once(array, kConstWords), [&] {
    // Words are 4 bytes, so an op's count is its pattern's at its linear
    // base address modulo 4 (the pitch-linear line pool's argument).
    const ArrayDecl& arr = kernel_->arrays[a];
    const std::uint64_t esize = arr.elem_size();
    const ArrayLanes& lanes = lanes_[a];
    const std::vector<PatternShape> shapes = shapes_of(lanes.patterns, kNoLane);
    std::unordered_map<std::uint64_t, std::uint8_t> memo;
    words.reserve(lanes.ops.size());
    std::int64_t addr[kWarpSize];
    for (const MemOp& op : lanes.ops) {
      const PatternShape& shape = shapes[op.pattern];
      std::uint8_t n = 0;
      if (shape.mask != 0) {
        GPUHMS_CHECK(op.base >= 0 &&
                     static_cast<std::uint64_t>(op.base) + shape.span <
                         arr.elems);
        const std::uint64_t r =
            (device_base_[a] + static_cast<std::uint64_t>(op.base) * esize) % 4;
        const auto [it, fresh] = memo.try_emplace(memo_key(op.pattern, r), 0);
        if (fresh) {
          lane_bytes(
              lanes.patterns[op.pattern], kNoLane,
              [&](std::int32_t off) {
                return r + static_cast<std::uint64_t>(off) * esize;
              },
              addr);
          it->second =
              static_cast<std::uint8_t>(distinct_words(shape.mask, addr));
        }
        n = it->second;
      }
      words.push_back(n);
    }
  });
  return words;
}

int TraceSkeleton::fold_slot(int shared_banks) {
  // The shared folds are exact only when kSharedAlign is a whole number of
  // bank rotations; validate(GpuArch) rejects every other bank count. The
  // foldable counts are the powers of two up to kSharedAlign / 4.
  GPUHMS_CHECK_MSG(shared_banks_foldable(shared_banks),
                   "TraceSkeleton: bank count not foldable at kSharedAlign");
  return std::countr_zero(static_cast<unsigned>(shared_banks));
}

template <class Build>
const TraceSkeleton::SharedFold& TraceSkeleton::fold(int array, int table,
                                                     Build&& build) const {
  std::unique_ptr<SharedFold>& slot =
      folds_[static_cast<std::size_t>(array) * 2 * kFoldSlots +
             static_cast<std::size_t>(table - kBodyFold)];
  std::call_once(once(array, table), [&] {
    auto f = std::make_unique<SharedFold>();
    build(*f);
    slot = std::move(f);
  });
  return *slot;
}

const TraceSkeleton::SharedFold& TraceSkeleton::shared_fold(
    int array, int shared_banks) const {
  const std::size_t a = static_cast<std::size_t>(array);
  return fold(array, kBodyFold + fold_slot(shared_banks), [&](SharedFold& f) {
    // Degrees are computed on the slice-local byte offsets. The shared base
    // offset of every placement is kSharedAlign-byte aligned, and fold_slot
    // checked that kSharedAlign is a multiple of the bank stride
    // 4 * shared_banks, so the base shifts every word by a whole number of
    // bank rotations: distinctness and bank assignment — hence the conflict
    // degree — match shared_conflict_degree on the real addresses of any
    // placement. Likewise a shift by whole words only rotates the banks, so
    // an op whose lanes stay inside one slice has the degree of its pattern
    // at its slice-local base offset modulo 4; an op that wraps the slice is
    // computed per op.
    const ArrayDecl& arr = kernel_->arrays[a];
    const std::int64_t slice = shared_slice_elems(arr);
    const std::int64_t esize = static_cast<std::int64_t>(arr.elem_size());
    const ArrayLanes& lanes = lanes_[a];
    const std::vector<PatternShape> shapes = shapes_of(lanes.patterns, kNoLane);
    std::unordered_map<std::uint64_t, std::uint8_t> memo;
    f.degree.reserve(lanes.ops.size());
    std::int64_t addr[kWarpSize];
    const auto degree = [&](const MemOp& op, auto&& to) {
      lane_bytes(lanes.patterns[op.pattern], kNoLane, to, addr);
      return static_cast<std::uint8_t>(shared_conflict_degree(
          shapes[op.pattern].mask, addr, shared_banks));
    };
    for (const MemOp& op : lanes.ops) {
      const PatternShape& shape = shapes[op.pattern];
      std::uint8_t deg = 1;
      if (shape.mask != 0) {
        const std::int64_t local = op.base % slice;
        if (op.base >= 0 && local + shape.span < slice) {
          const std::int64_t r = local * esize % 4;
          const auto [it, fresh] = memo.try_emplace(
              memo_key(op.pattern, static_cast<std::uint64_t>(r)), 0);
          if (fresh)
            it->second =
                degree(op, [&](std::int32_t off) { return r + off * esize; });
          deg = it->second;
        } else {
          deg = degree(op, [&](std::int32_t off) {
            return (std::int64_t{op.base} + off) % slice * esize;
          });
        }
        f.conflict_sum += static_cast<std::uint64_t>(deg - 1);
      }
      f.degree.push_back(deg);
    }
  });
}

const TraceSkeleton::LinePool& TraceSkeleton::copy_in_lines(int array) const {
  const std::size_t a = static_cast<std::size_t>(array);
  LinePool& lp = lines_[a * (kCopyLines + 1) + kCopyLines];
  std::call_once(once(array, kCopyLines), [&] {
    // The load reads the block's slice pitch-linear from the array's fixed
    // device allocation, wrapping around the array, exactly as
    // LoweringCursor::lane_addresses does; block c stands for its class.
    const ArrayDecl& arr = kernel_->arrays[a];
    const std::int64_t slice = shared_slice_elems(arr);
    const std::int64_t elems = static_cast<std::int64_t>(arr.elems);
    const std::uint64_t base = device_base_[a];
    const std::uint32_t chunks = copy_in_chunks_[a];
    const std::uint32_t classes = copy_in_classes_[a];
    lp.begin.reserve(std::size_t{classes} * chunks + 1);
    lp.begin.push_back(0);
    std::int64_t addr[kWarpSize];
    std::uint64_t buf[kWarpSize];
    for (std::uint32_t c = 0; c < classes; ++c) {
      const std::int64_t start = shared_slice_start(arr, c);
      for (std::uint32_t j = 0; j < chunks; ++j) {
        const std::int64_t first = std::int64_t{j} * kWarpSize;
        const std::uint32_t mask = chunk_mask(slice, first);
        for (int l = 0; l < kWarpSize; ++l) {
          addr[l] = (mask >> l & 1u) != 0
                        ? static_cast<std::int64_t>(
                              base + pitch_linear_offset(
                                         arr, (start + first + l) % elems))
                        : -1;
        }
        const int n = coalesce_lines_buf(mask, addr, line_size_, buf);
        lp.lines.insert(lp.lines.end(), buf, buf + n);
        lp.begin.push_back(static_cast<std::uint32_t>(lp.lines.size()));
      }
    }
    lp.lines.shrink_to_fit();
  });
  return lp;
}

const TraceSkeleton::SharedFold& TraceSkeleton::copy_in_fold(
    int array, int shared_banks) const {
  const std::size_t a = static_cast<std::size_t>(array);
  return fold(array, kCopyFold + fold_slot(shared_banks), [&](SharedFold& f) {
    // The store writes slice-local element first + l at byte offset
    // (first + l) * elem_size past the kSharedAlign-aligned base offset:
    // the fold shared_fold makes.
    const ArrayDecl& arr = kernel_->arrays[a];
    const std::int64_t slice = shared_slice_elems(arr);
    const std::int64_t esize = static_cast<std::int64_t>(arr.elem_size());
    const std::uint32_t chunks = copy_in_chunks_[a];
    f.degree.reserve(chunks);
    std::int64_t addr[kWarpSize];
    for (std::uint32_t j = 0; j < chunks; ++j) {
      const std::int64_t first = std::int64_t{j} * kWarpSize;
      const std::uint32_t mask = chunk_mask(slice, first);
      for (int l = 0; l < kWarpSize; ++l)
        addr[l] = (mask >> l & 1u) != 0 ? (first + l) * esize : -1;
      const int deg = shared_conflict_degree(mask, addr, shared_banks);
      f.conflict_sum += static_cast<std::uint64_t>(deg - 1);
      f.degree.push_back(static_cast<std::uint8_t>(deg));
    }
  });
}

std::size_t TraceSkeleton::footprint_bytes() const {
  std::size_t n = sizeof(*this) + bytes_of(ctx_) + bytes_of(proto_) +
                  bytes_of(proto_begin_) + bytes_of(lanes_) +
                  bytes_of(mem_ops_per_array_) + bytes_of(copy_in_chunks_) +
                  bytes_of(copy_in_classes_) + bytes_of(mem_rec_) +
                  bytes_of(mem_rec_begin_) + bytes_of(inv_ops_) +
                  bytes_of(mem_cnt_) + bytes_of(invariants_.mem_uses_prev) +
                  bytes_of(invariants_.chain_mem_up) +
                  bytes_of(invariants_.unmasked) +
                  bytes_of(invariants_.unmasked_loads) +
                  bytes_of(device_base_) + bytes_of(lines_) +
                  bytes_of(folds_) + bytes_of(const_words_) +
                  kernel_->arrays.size() * kTables * sizeof(std::once_flag);
  for (const ArrayLanes& lanes : lanes_)
    n += bytes_of(lanes.ops) + bytes_of(lanes.patterns);
  for (const LinePool& lp : lines_) n += bytes_of(lp.begin) + bytes_of(lp.lines);
  for (const std::unique_ptr<SharedFold>& f : folds_)
    if (f) n += sizeof(SharedFold) + bytes_of(f->degree);
  for (const std::vector<std::uint8_t>& words : const_words_)
    n += bytes_of(words);
  return n;
}

TraceMaterializer::TraceMaterializer(const KernelInfo& kernel,
                                     const DataPlacement& placement,
                                     const GpuArch& arch)
    : kernel_(&kernel), placement_(placement), arch_(&arch),
      layout_(kernel, placement_, arch) {
  const auto err = validate_placement(kernel, placement_, arch);
  GPUHMS_CHECK_MSG(!err.has_value(), err ? err->c_str() : "");
  arrays_.resize(kernel.arrays.size());
  for (std::size_t i = 0; i < kernel.arrays.size(); ++i) {
    const int a = static_cast<int>(i);
    const ArrayDecl& arr = kernel.arrays[i];
    PlacedArray& p = arrays_[i];
    p.space = placement_.of(a);
    p.inserts =
        static_cast<std::uint32_t>(addr_calc_instructions(p.space, arr.dtype));
    p.staged = p.space == MemSpace::Shared &&
               arr.default_space != MemSpace::Shared;
    if (!p.staged) continue;
    staged_arrays_.push_back(a);
    // The copy-in load uses Global addressing (register indirect).
    p.copy_inserts = static_cast<std::uint32_t>(
        addr_calc_instructions(MemSpace::Global, arr.dtype));
  }
}

std::vector<PlacedArray> TraceMaterializer::bind(
    const TraceSkeleton& skeleton) const {
  GPUHMS_CHECK_MSG(&skeleton.kernel() == kernel_,
                   "skeleton recorded from a different kernel");
  GPUHMS_CHECK_MSG(skeleton.fits(*arch_),
                   "skeleton recorded for another cache-line size");
  const int banks = arch_->shared_banks;
  std::vector<PlacedArray> out = arrays_;
  for (std::size_t a = 0; a < out.size(); ++a) {
    const int array = static_cast<int>(a);
    PlacedArray& p = out[a];
    if (p.space == MemSpace::Shared) {
      const TraceSkeleton::SharedFold& fold =
          skeleton.shared_fold(array, banks);
      p.degree = fold.degree.data();
      p.conflict_sum = fold.conflict_sum;
    } else {
      const TraceSkeleton::LinePool& lp =
          skeleton.line_pool(array, p.space == MemSpace::Texture2D);
      p.line_begin = lp.begin.data();
      p.lines = lp.lines.data();
      if (p.space == MemSpace::Constant)
        p.words = skeleton.const_words_pool(array).data();
    }
  }
  for (int array : staged_arrays_) {
    PlacedArray& p = out[static_cast<std::size_t>(array)];
    const TraceSkeleton::LinePool& copy = skeleton.copy_in_lines(array);
    const TraceSkeleton::SharedFold& fold =
        skeleton.copy_in_fold(array, banks);
    p.copy_chunks = skeleton.copy_in_chunks(array);
    p.copy_begin = copy.begin.data();
    p.copy_lines = copy.lines.data();
    p.copy_degree = fold.degree.data();
    p.copy_conflict_sum = fold.conflict_sum;
  }
  return out;
}

std::uint32_t TraceMaterializer::warp_ops(const TraceSkeleton& skeleton,
                                          std::size_t warp) const {
  std::uint32_t n = skeleton.invariant_ops(warp);
  for (std::size_t a = 0; a < arrays_.size(); ++a)
    n += skeleton.mem_count(warp, a) * arrays_[a].inserts;
  if (staged_arrays_.empty()) return n;
  // The warp copies chunks warp_in_block, + wpb, ... of each staged slice,
  // then waits at the preamble's closing Sync.
  const std::uint32_t wib =
      static_cast<std::uint32_t>(skeleton.warp_ctx(warp).warp_in_block);
  const std::uint32_t wpb =
      static_cast<std::uint32_t>(kernel_->warps_per_block());
  for (int array : staged_arrays_) {
    const PlacedArray& p = arrays_[static_cast<std::size_t>(array)];
    const std::uint32_t chunks = skeleton.copy_in_chunks(array);
    if (chunks > wib) n += (chunks - wib + wpb - 1) / wpb * (p.copy_inserts + 2);
  }
  return n + 1;
}

LoweringCursor::LoweringCursor(const TraceMaterializer& mat,
                               const TraceSkeleton& skeleton, std::size_t warp)
    : mat_(&mat), skeleton_(&skeleton), op_(skeleton.proto(warp).data()),
      end_(op_ + skeleton.proto(warp).size()),
      stage_(mat.staged_arrays_.empty() ? -1 : 0),
      chunk_(static_cast<std::int64_t>(skeleton.warp_ctx(warp).warp_in_block) *
             kWarpSize),
      block_(skeleton.warp_ctx(warp).block),
      warp_in_block_(skeleton.warp_ctx(warp).warp_in_block), done_(false) {
  settle();
}

void LoweringCursor::settle() {
  const int num_staged = static_cast<int>(mat_->staged_arrays_.size());
  while (stage_ >= 0) {
    if (stage_ == num_staged) {  // the preamble's closing barrier
      if (step_ == 0) {
        cls_ = OpClass::Sync;
        uses_prev_ = false;
        addr_calc_ = false;
        return;
      }
      stage_ = -1;
      step_ = 0;
      break;
    }
    const int array = mat_->staged_arrays_[static_cast<std::size_t>(stage_)];
    const std::uint32_t ai =
        mat_->arrays_[static_cast<std::size_t>(array)].copy_inserts;
    if (step_ > ai + 1) {  // chunk copied: on to the warp's next one
      chunk_ += static_cast<std::int64_t>(mat_->kernel_->warps_per_block()) *
                kWarpSize;
      step_ = 0;
    }
    if (chunk_ < mat_->layout_.shared_slice_elems(array)) {
      cls_ = step_ < ai ? OpClass::IAlu
             : step_ == ai ? OpClass::Load
                           : OpClass::Store;
      // The load consumes its address; the store, the loaded value.
      uses_prev_ = step_ >= ai;
      addr_calc_ = step_ < ai;
      return;
    }
    ++stage_;  // this warp's chunks of the slice are all copied
    chunk_ = static_cast<std::int64_t>(warp_in_block_) * kWarpSize;
    step_ = 0;
  }
  for (; op_ != end_; ++op_, step_ = 0) {
    const ProtoOp& op = *op_;
    switch (op.cls) {
      case OpClass::Load:
      case OpClass::Store: {
        GPUHMS_CHECK(op.array >= 0 && static_cast<std::size_t>(op.array) <
                                          mat_->arrays_.size());
        const std::uint32_t ai =
            mat_->arrays_[static_cast<std::size_t>(op.array)].inserts;
        if (step_ < ai) {
          cls_ = OpClass::IAlu;
          uses_prev_ = false;
          addr_calc_ = true;
          return;
        }
        if (step_ == ai) {
          cls_ = op.cls;
          // The access consumes the computed address when one was
          // materialized; otherwise it keeps the DSL dependency.
          uses_prev_ = ai > 0 || op.uses_prev;
          addr_calc_ = false;
          return;
        }
        break;
      }
      case OpClass::Sync:
        if (step_ == 0) {
          cls_ = OpClass::Sync;
          uses_prev_ = false;
          addr_calc_ = false;
          return;
        }
        break;
      default:
        if (step_ < op.count) {
          cls_ = op.cls;
          uses_prev_ = step_ == 0 && op.uses_prev;
          addr_calc_ = false;
          return;
        }
        break;
    }
  }
  done_ = true;
}

MemSpace LoweringCursor::space() const {
  if (stage_ >= 0) return cls_ == OpClass::Store ? MemSpace::Shared
                                                 : MemSpace::Global;
  return mat_->placement_.of(op_->array);
}

int LoweringCursor::array() const {
  return stage_ >= 0 ? mat_->staged_arrays_[static_cast<std::size_t>(stage_)]
                     : op_->array;
}

std::uint32_t LoweringCursor::active_mask() const {
  if (stage_ >= 0 &&
      stage_ < static_cast<int>(mat_->staged_arrays_.size()))
    return chunk_mask(mat_->layout_.shared_slice_elems(array()), chunk_);
  // Compute and sync protos carry every lane.
  if (stage_ < 0) return op_->active_mask;
  return 0xffffffffu;
}

std::uint32_t LoweringCursor::lane_addresses(std::int64_t* addr) const {
  const MemoryLayout& layout = mat_->layout_;
  const int array = this->array();
  std::uint32_t mask = 0;
  if (stage_ >= 0) {
    // Copy-in chunk: the Global load reads the block's slice (pitch-linear,
    // wrapping around the array), the Shared store writes it.
    const ArrayDecl& arr =
        mat_->kernel_->arrays[static_cast<std::size_t>(array)];
    const std::int64_t slice = layout.shared_slice_elems(array);
    const std::int64_t start = layout.shared_slice_start(array, block_);
    const bool store = cls_ == OpClass::Store;
    for (int l = 0; l < kWarpSize; ++l) {
      const std::int64_t local = chunk_ + l;
      if (local >= slice) {
        addr[l] = -1;
        continue;
      }
      mask |= 1u << l;
      addr[l] = static_cast<std::int64_t>(
          store ? layout.shared_offset(array) +
                      static_cast<std::uint64_t>(local) * arr.elem_size()
                : layout.device_base(array) +
                      pitch_linear_offset(
                          arr, (start + local) %
                                   static_cast<std::int64_t>(arr.elems)));
    }
    return mask;
  }
  const bool shared = space() == MemSpace::Shared;
  const TraceSkeleton::Lanes idx = skeleton_->lane_idx(array, op_->ordinal);
  for (int l = 0; l < kWarpSize; ++l) {
    const std::int64_t e = idx[static_cast<std::size_t>(l)];
    if (e == kInactiveLane) {
      addr[l] = -1;
      continue;
    }
    mask |= 1u << l;
    addr[l] = static_cast<std::int64_t>(shared ? layout.shared_addr(array, e)
                                               : layout.device_addr(array, e));
  }
  return mask;
}

void TraceMaterializer::emit(LoweringCursor cursor,
                             std::vector<TraceOp>& out) {
  for (; !cursor.done(); cursor.next()) {
    TraceOp t;
    t.cls = cursor.cls();
    t.uses_prev = cursor.uses_prev();
    t.is_addr_calc = cursor.is_addr_calc();
    if (is_memory(t.cls)) {
      t.space = cursor.space();
      t.array = static_cast<std::int16_t>(cursor.array());
      t.active_mask = cursor.lane_addresses(t.addr.data());
    } else {
      t.active_mask = cursor.active_mask();
    }
    out.push_back(t);
  }
}

std::vector<WarpTrace> TraceMaterializer::generate(
    const TraceSkeleton& skeleton, std::int64_t block_begin,
    std::int64_t block_end, std::vector<WarpTrace> traces) const {
  GPUHMS_CHECK_MSG(&skeleton.kernel() == kernel_,
                   "skeleton recorded from a different kernel");
  GPUHMS_CHECK(0 <= block_begin && block_begin <= block_end &&
               block_end <= kernel_->num_blocks);
  const std::size_t wpb = static_cast<std::size_t>(kernel_->warps_per_block());
  const std::size_t w0 = static_cast<std::size_t>(block_begin) * wpb;
  const std::size_t w1 = static_cast<std::size_t>(block_end) * wpb;
  GPUHMS_COUNTER_ADD("trace.waves_lowered", 1);
  GPUHMS_COUNTER_ADD("trace.warps_lowered", w1 - w0);
  traces.resize(w1 - w0);
  for (std::size_t w = w0; w < w1; ++w) {
    if (GPUHMS_FAULT_POINT("trace.lower"))
      throw InjectedFault("trace.lower: injected failure lowering warp trace");
    WarpTrace& wt = traces[w - w0];
    wt.ctx = skeleton.warp_ctx(w);
    wt.ops.clear();
    wt.ops.reserve(warp_ops(skeleton, w));
    emit(LoweringCursor(*this, skeleton, w), wt.ops);
  }
  return traces;
}

}  // namespace gpuhms
