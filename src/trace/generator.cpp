#include "trace/generator.hpp"

#include <limits>
#include <numeric>

#include "common/check.hpp"
#include "common/fault_injection.hpp"
#include "common/obs.hpp"
#include "isa/addressing.hpp"
#include "sim/coalesce.hpp"

namespace gpuhms {

namespace {

// Active-lane mask of a lane element-index block of either width.
template <class Idx>
std::uint32_t mask_of(const Idx& idx) {
  std::uint32_t m = 0;
  for (int l = 0; l < kWarpSize; ++l) {
    if (idx[static_cast<std::size_t>(l)] != kInactiveLane)
      m |= 1u << l;
  }
  return m;
}

// Writes the kWarpSize lane byte addresses `to(e)` of the element indices
// `idx` into `addr` (inactive lanes: -1).
template <class To>
void lane_bytes(const TraceSkeleton::Lanes& idx, To&& to,
                std::int64_t* addr) {
  for (int l = 0; l < kWarpSize; ++l) {
    const std::int64_t e = idx[static_cast<std::size_t>(l)];
    addr[l] = e == kInactiveLane ? -1 : static_cast<std::int64_t>(to(e));
  }
}

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

std::uint32_t active_mask_of(const LaneIdx& idx) { return mask_of(idx); }

TraceSkeleton::TraceSkeleton(const KernelInfo& kernel)
    : kernel_(&kernel),
      lanes_(kernel.arrays.size()),
      mem_ops_per_array_(kernel.arrays.size(), 0) {
  GPUHMS_SCOPED_PHASE("trace.skeleton_record_ns");
  GPUHMS_COUNTER_ADD("trace.skeletons_recorded", 1);
  for (const ArrayDecl& arr : kernel.arrays) {
    GPUHMS_CHECK_MSG(arr.elems <= static_cast<std::size_t>(
                                      std::numeric_limits<std::int32_t>::max()),
                     "TraceSkeleton: array too large for 32-bit lane indices");
    // Copy-in geometry (see copy_in_entry): block b's slice starts at
    // (b * slice) % elems, which repeats every elems / gcd(slice, elems)
    // blocks; a replicated slice starts at 0 in every block.
    const std::uint64_t elems = arr.elems;
    const std::uint64_t slice =
        arr.shared_slice_elems ? arr.shared_slice_elems : elems;
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
            p.active_mask = mask_of(op.idx);
            p.ordinal = static_cast<std::uint32_t>(mem_ops_per_array_[a]);
            ++mem_ops_per_array_[a];
            Lanes& lanes = lanes_[a].emplace_back();
            for (std::size_t l = 0; l < lanes.size(); ++l) {
              lanes[l] = static_cast<std::int32_t>(op.idx[l]);
              GPUHMS_CHECK_MSG(lanes[l] == op.idx[l],
                               "TraceSkeleton: lane index out of 32-bit range");
            }
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
  for (std::vector<Lanes>& pool : lanes_) pool.shrink_to_fit();

  // SoA replay tables: digest the proto stream into per-warp memory-record
  // ranges plus the placement-invariant tallies the data-oriented path folds
  // analytically (see the header for the dependency/chain rules mirrored
  // from TraceMaterializer::lower).
  const std::size_t num_warps = ctx_.size();
  const std::size_t num_arrays = kernel.arrays.size();
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
  const_words_.resize(num_arrays);
  const_once_ = std::make_unique<std::once_flag[]>(num_arrays);
  // line_tables_ / fold_tables_ are found-or-created per arch parameter.
}

TraceSkeleton::LineTable& TraceSkeleton::line_table(
    std::size_t line_size) const {
  std::lock_guard<std::mutex> lock(memo_mu_);
  for (const std::unique_ptr<LineTable>& t : line_tables_) {
    if (t->line_size == line_size) return *t;
  }
  const std::size_t slots = kernel_->arrays.size() * 3;
  auto t = std::make_unique<LineTable>();
  t->line_size = line_size;
  t->pools.resize(slots);
  t->once = std::make_unique<std::once_flag[]>(slots);
  line_tables_.push_back(std::move(t));
  return *line_tables_.back();
}

TraceSkeleton::FoldTable& TraceSkeleton::fold_table(int num_banks) const {
  std::lock_guard<std::mutex> lock(memo_mu_);
  for (const std::unique_ptr<FoldTable>& t : fold_tables_) {
    if (t->num_banks == num_banks) return *t;
  }
  const std::size_t slots = kernel_->arrays.size() * 2;
  auto t = std::make_unique<FoldTable>();
  t->num_banks = num_banks;
  t->folds.resize(slots);
  t->once = std::make_unique<std::once_flag[]>(slots);
  fold_tables_.push_back(std::move(t));
  return *fold_tables_.back();
}

const TraceSkeleton::LinePool& TraceSkeleton::line_pool(
    int array, bool block_linear, const MemoryLayout& layout,
    std::size_t line_size) const {
  LineTable& table = line_table(line_size);
  const std::size_t slot =
      static_cast<std::size_t>(array) * 3 + (block_linear ? 1 : 0);
  std::call_once(table.once[slot], [&] {
    const std::size_t a = static_cast<std::size_t>(array);
    const ArrayDecl& arr = kernel_->arrays[a];
    // Fixed per-array allocation base: identical under every placement, so
    // one table serves the whole search.
    const std::uint64_t base = layout.device_base(array);
    const std::vector<Lanes>& pool = lanes_[a];
    LinePool& lp = table.pools[slot];
    lp.line_size = line_size;
    lp.begin.reserve(pool.size() + 1);
    lp.begin.push_back(0);
    lp.lines.reserve(pool.size());
    std::int64_t addr[kWarpSize];
    std::uint64_t buf[kWarpSize];
    // Masked-off ops keep an empty range (they form no requests).
    for (const Lanes& idx : pool) {
      const std::uint32_t mask = mask_of(idx);
      int n = 0;
      if (mask != 0) {
        lane_bytes(
            idx,
            [&](std::int64_t e) {
              return base + (block_linear ? block_linear_offset(arr, e)
                                          : pitch_linear_offset(arr, e));
            },
            addr);
        n = coalesce_lines_buf(mask, addr, line_size, buf);
      }
      lp.lines.insert(lp.lines.end(), buf, buf + n);
      lp.begin.push_back(static_cast<std::uint32_t>(lp.lines.size()));
    }
    lp.lines.shrink_to_fit();
  });
  return table.pools[slot];
}

std::span<const std::uint8_t> TraceSkeleton::const_words_pool(
    int array, const MemoryLayout& layout) const {
  const std::size_t a = static_cast<std::size_t>(array);
  std::call_once(const_once_[a], [&] {
    const ArrayDecl& arr = kernel_->arrays[a];
    const std::uint64_t base = layout.device_base(array);
    const std::vector<Lanes>& pool = lanes_[a];
    std::vector<std::uint8_t>& words = const_words_[a];
    words.reserve(pool.size());
    std::int64_t addr[kWarpSize];
    for (const Lanes& idx : pool) {
      const std::uint32_t mask = mask_of(idx);
      int n = 0;
      if (mask != 0) {
        lane_bytes(
            idx,
            [&](std::int64_t e) { return base + pitch_linear_offset(arr, e); },
            addr);
        n = distinct_words(mask, addr);
      }
      words.push_back(static_cast<std::uint8_t>(n));
    }
  });
  return const_words_[a];
}

const TraceSkeleton::SharedFold& TraceSkeleton::shared_fold(
    int array, int num_banks) const {
  FoldTable& table = fold_table(num_banks);
  const std::size_t a = static_cast<std::size_t>(array);
  const std::size_t slot = a * 2;
  std::call_once(table.once[slot], [&] {
    // Degrees are computed on the slice-local byte offsets. The shared base
    // offset of every placement is kSharedAlign-byte aligned, so as long as
    // kSharedAlign is a multiple of the bank stride 4 * num_banks, the base
    // shifts every word by a whole number of bank rotations: distinctness
    // and bank assignment — hence the conflict degree — match
    // shared_conflict_degree on the real addresses of any placement.
    // validate(GpuArch) rejects every bank count this CHECK would refuse.
    GPUHMS_CHECK_MSG(shared_banks_foldable(num_banks),
                     "shared_fold: bank count not foldable at kSharedAlign");
    const ArrayDecl& arr = kernel_->arrays[a];
    const std::int64_t slice =
        static_cast<std::int64_t>(arr.shared_slice_elems ? arr.shared_slice_elems
                                                         : arr.elems);
    const std::int64_t esize = static_cast<std::int64_t>(arr.elem_size());
    SharedFold& fold = table.folds[slot];
    fold.num_banks = num_banks;
    fold.degree.reserve(lanes_[a].size());
    std::int64_t addr[kWarpSize];
    for (const Lanes& idx : lanes_[a]) {
      const std::uint32_t mask = mask_of(idx);
      std::uint8_t deg = 1;
      if (mask != 0) {
        lane_bytes(idx, [&](std::int64_t e) { return e % slice * esize; },
                   addr);
        deg = static_cast<std::uint8_t>(
            shared_conflict_degree(mask, addr, num_banks));
        fold.conflict_sum += static_cast<std::uint64_t>(deg - 1);
      }
      fold.degree.push_back(deg);
    }
  });
  return table.folds[slot];
}

const TraceSkeleton::LinePool& TraceSkeleton::copy_in_lines(
    int array, const MemoryLayout& layout, std::size_t line_size) const {
  LineTable& table = line_table(line_size);
  const std::size_t a = static_cast<std::size_t>(array);
  const std::size_t slot = a * 3 + 2;
  std::call_once(table.once[slot], [&] {
    // The load reads the block's slice pitch-linear from the array's fixed
    // device allocation, wrapping around the array, exactly as
    // LoweringCursor::lane_addresses does; block c stands for its class.
    const ArrayDecl& arr = kernel_->arrays[a];
    const std::int64_t slice = layout.shared_slice_elems(array);
    const std::int64_t elems = static_cast<std::int64_t>(arr.elems);
    const std::uint64_t base = layout.device_base(array);
    const std::uint32_t chunks = copy_in_chunks_[a];
    const std::uint32_t classes = copy_in_classes_[a];
    LinePool& lp = table.pools[slot];
    lp.line_size = line_size;
    lp.begin.reserve(std::size_t{classes} * chunks + 1);
    lp.begin.push_back(0);
    std::int64_t addr[kWarpSize];
    std::uint64_t buf[kWarpSize];
    for (std::uint32_t c = 0; c < classes; ++c) {
      const std::int64_t start = layout.shared_slice_start(array, c);
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
        const int n = coalesce_lines_buf(mask, addr, line_size, buf);
        lp.lines.insert(lp.lines.end(), buf, buf + n);
        lp.begin.push_back(static_cast<std::uint32_t>(lp.lines.size()));
      }
    }
    lp.lines.shrink_to_fit();
  });
  return table.pools[slot];
}

const TraceSkeleton::SharedFold& TraceSkeleton::copy_in_fold(
    int array, int num_banks) const {
  FoldTable& table = fold_table(num_banks);
  const std::size_t a = static_cast<std::size_t>(array);
  const std::size_t slot = a * 2 + 1;
  std::call_once(table.once[slot], [&] {
    // The store writes slice-local element first + l at byte offset
    // (first + l) * elem_size past the kSharedAlign-aligned base offset:
    // the fold shared_fold makes, on the same condition.
    GPUHMS_CHECK_MSG(shared_banks_foldable(num_banks),
                     "copy_in_fold: bank count not foldable at kSharedAlign");
    const ArrayDecl& arr = kernel_->arrays[a];
    const std::int64_t slice = static_cast<std::int64_t>(
        arr.shared_slice_elems ? arr.shared_slice_elems : arr.elems);
    const std::int64_t esize = static_cast<std::int64_t>(arr.elem_size());
    const std::uint32_t chunks = copy_in_chunks_[a];
    SharedFold& fold = table.folds[slot];
    fold.num_banks = num_banks;
    fold.degree.reserve(chunks);
    std::int64_t addr[kWarpSize];
    for (std::uint32_t j = 0; j < chunks; ++j) {
      const std::int64_t first = std::int64_t{j} * kWarpSize;
      const std::uint32_t mask = chunk_mask(slice, first);
      for (int l = 0; l < kWarpSize; ++l)
        addr[l] = (mask >> l & 1u) != 0 ? (first + l) * esize : -1;
      const int deg = shared_conflict_degree(mask, addr, num_banks);
      fold.conflict_sum += static_cast<std::uint64_t>(deg - 1);
      fold.degree.push_back(static_cast<std::uint8_t>(deg));
    }
  });
  return table.folds[slot];
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
                  bytes_of(const_words_);
  for (const std::vector<Lanes>& pool : lanes_) n += bytes_of(pool);
  std::lock_guard<std::mutex> lock(memo_mu_);
  for (const std::vector<std::uint8_t>& words : const_words_)
    n += bytes_of(words);
  for (const std::unique_ptr<LineTable>& t : line_tables_) {
    n += sizeof(LineTable) + bytes_of(t->pools);
    for (const LinePool& lp : t->pools)
      n += bytes_of(lp.begin) + bytes_of(lp.lines);
  }
  for (const std::unique_ptr<FoldTable>& t : fold_tables_) {
    n += sizeof(FoldTable) + bytes_of(t->folds);
    for (const SharedFold& f : t->folds) n += bytes_of(f.degree);
  }
  return n;
}

TraceMaterializer::TraceMaterializer(const KernelInfo& kernel,
                                     const DataPlacement& placement,
                                     const GpuArch& arch)
    : kernel_(&kernel), placement_(placement), arch_(&arch),
      layout_(kernel, placement_, arch) {
  const auto err = validate_placement(kernel, placement_, arch);
  GPUHMS_CHECK_MSG(!err.has_value(), err ? err->c_str() : "");
  for (std::size_t i = 0; i < kernel.arrays.size(); ++i) {
    const int a = static_cast<int>(i);
    const ArrayDecl& arr = kernel.arrays[i];
    const MemSpace space = placement_.of(a);
    addr_insts_.push_back(
        static_cast<std::uint32_t>(addr_calc_instructions(space, arr.dtype)));
    if (space == MemSpace::Shared && arr.default_space != MemSpace::Shared)
      staged_arrays_.push_back(a);
  }
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
    // The copy-in load uses Global addressing (register indirect).
    const std::uint32_t ai = static_cast<std::uint32_t>(addr_calc_instructions(
        MemSpace::Global,
        mat_->kernel_->arrays[static_cast<std::size_t>(array)].dtype));
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
                                          mat_->addr_insts_.size());
        const std::uint32_t ai =
            mat_->addr_insts_[static_cast<std::size_t>(op.array)];
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
  const TraceSkeleton::Lanes& idx = skeleton_->lane_idx(array, op_->ordinal);
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
    std::int64_t block_end) const {
  GPUHMS_CHECK_MSG(&skeleton.kernel() == kernel_,
                   "skeleton recorded from a different kernel");
  GPUHMS_CHECK(0 <= block_begin && block_begin <= block_end &&
               block_end <= kernel_->num_blocks);
  const std::size_t wpb = static_cast<std::size_t>(kernel_->warps_per_block());
  const std::size_t w0 = static_cast<std::size_t>(block_begin) * wpb;
  const std::size_t w1 = static_cast<std::size_t>(block_end) * wpb;
  GPUHMS_COUNTER_ADD("trace.waves_lowered", 1);
  GPUHMS_COUNTER_ADD("trace.warps_lowered", w1 - w0);
  std::vector<WarpTrace> traces;
  traces.reserve(w1 - w0);
  for (std::size_t w = w0; w < w1; ++w) {
    if (GPUHMS_FAULT_POINT("trace.lower"))
      throw InjectedFault("trace.lower: injected failure lowering warp trace");
    WarpTrace wt;
    wt.ctx = skeleton.warp_ctx(w);
    emit(LoweringCursor(*this, skeleton, w), wt.ops);
    traces.push_back(std::move(wt));
  }
  return traces;
}

}  // namespace gpuhms
