#include "trace/generator.hpp"

#include "common/check.hpp"
#include "common/fault_injection.hpp"
#include "common/obs.hpp"
#include "isa/addressing.hpp"
#include "sim/coalesce.hpp"

namespace gpuhms {

std::uint32_t active_mask_of(const LaneIdx& idx) {
  std::uint32_t m = 0;
  for (int l = 0; l < kWarpSize; ++l) {
    if (idx[static_cast<std::size_t>(l)] != kInactiveLane)
      m |= 1u << l;
  }
  return m;
}

TraceSkeleton::TraceSkeleton(const KernelInfo& kernel)
    : kernel_(&kernel),
      mem_ops_per_array_(kernel.arrays.size(), 0) {
  GPUHMS_SCOPED_PHASE("trace.skeleton_record_ns");
  GPUHMS_COUNTER_ADD("trace.skeletons_recorded", 1);
  warps_.reserve(static_cast<std::size_t>(kernel.total_warps()));
  proto_begin_.reserve(static_cast<std::size_t>(kernel.total_warps()) + 1);
  proto_begin_.push_back(0);
  for_each_warp(kernel, 0, kernel.num_blocks,
                [&](const WarpCtx& ctx, std::vector<DslOp>&& ops) {
                  for (std::size_t i = 0; i < ops.size(); ++i) {
                    const DslOp& op = ops[i];
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
                        p.active_mask = active_mask_of(op.idx);
                        p.ordinal =
                            static_cast<std::uint32_t>(mem_ops_per_array_[a]);
                        p.dsl_index = static_cast<std::uint32_t>(i);
                        ++mem_ops_per_array_[a];
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
                  proto_begin_.push_back(
                      static_cast<std::uint32_t>(proto_.size()));
                  warps_.push_back({ctx, std::move(ops)});
                });
  device_pools_.resize(kernel.arrays.size() * 2);
  pool_once_ = std::make_unique<std::once_flag[]>(kernel.arrays.size() * 2);

  // SoA replay tables: digest the proto stream into per-warp memory-record
  // ranges plus the placement-invariant tallies the data-oriented path folds
  // analytically (see the header for the dependency/chain rules mirrored
  // from TraceMaterializer::lower).
  const std::size_t num_warps = warps_.size();
  const std::size_t num_arrays = kernel.arrays.size();
  inv_ops_.resize(num_warps);
  mem_cnt_.assign(num_warps * num_arrays, 0);
  invariants_.mem_uses_prev.assign(num_arrays, 0);
  invariants_.chain_mem_up.assign(num_arrays, 0);
  invariants_.unmasked.assign(num_arrays, 0);
  invariants_.unmasked_loads.assign(num_arrays, 0);
  mem_rec_.reserve(static_cast<std::size_t>(base_insts_));
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
  const std::size_t slots = kernel_->arrays.size() * 2;
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
  auto t = std::make_unique<FoldTable>();
  t->num_banks = num_banks;
  t->folds.resize(kernel_->arrays.size());
  t->once = std::make_unique<std::once_flag[]>(kernel_->arrays.size());
  fold_tables_.push_back(std::move(t));
  return *fold_tables_.back();
}

const TraceSkeleton::LinePool& TraceSkeleton::line_pool(
    int array, bool block_linear, const MemoryLayout& layout,
    std::size_t line_size) const {
  LineTable& table = line_table(line_size);
  const std::size_t slot =
      static_cast<std::size_t>(array) * 2 + (block_linear ? 1 : 0);
  std::call_once(table.once[slot], [&] {
    const std::span<const AddrBlock> pool =
        device_addr_pool(array, block_linear, layout);
    LinePool& lp = table.pools[slot];
    lp.line_size = line_size;
    lp.begin.reserve(pool.size() + 1);
    lp.begin.push_back(0);
    lp.lines.reserve(pool.size());
    std::uint64_t buf[kWarpSize];
    // mem_rec_ is warp-major, so the records of `array` appear in ordinal
    // order; masked-off ops keep an empty range (they form no requests).
    for (const MemRecord& r : mem_rec_) {
      if (r.array != array) continue;
      const int n = r.active_mask == 0
                        ? 0
                        : coalesce_lines_buf(r.active_mask,
                                             pool[r.ordinal].data(), line_size,
                                             buf);
      lp.lines.insert(lp.lines.end(), buf, buf + n);
      lp.begin.push_back(static_cast<std::uint32_t>(lp.lines.size()));
    }
  });
  return table.pools[slot];
}

std::span<const std::uint8_t> TraceSkeleton::const_words_pool(
    int array, const MemoryLayout& layout) const {
  const std::size_t a = static_cast<std::size_t>(array);
  std::call_once(const_once_[a], [&] {
    const std::span<const AddrBlock> pool =
        device_addr_pool(array, /*block_linear=*/false, layout);
    std::vector<std::uint8_t>& words = const_words_[a];
    words.reserve(pool.size());
    for (const MemRecord& r : mem_rec_) {
      if (r.array != array) continue;
      words.push_back(static_cast<std::uint8_t>(
          r.active_mask == 0
              ? 0
              : distinct_words(r.active_mask, pool[r.ordinal].data())));
    }
  });
  return const_words_[a];
}

const TraceSkeleton::SharedFold& TraceSkeleton::shared_fold(
    int array, int num_banks) const {
  FoldTable& table = fold_table(num_banks);
  const std::size_t a = static_cast<std::size_t>(array);
  std::call_once(table.once[a], [&] {
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
    SharedFold& fold = table.folds[a];
    fold.num_banks = num_banks;
    fold.degree.reserve(mem_ops_per_array_[a]);
    std::int64_t addrs[kWarpSize];
    for (std::size_t w = 0; w < warps_.size(); ++w) {
      const WarpRecord& rec = warps_[w];
      for (const ProtoOp& p : proto(w)) {
        if (!is_memory(p.cls) || p.array != array) continue;
        std::uint8_t deg = 1;
        if (p.active_mask != 0) {
          const LaneIdx& idx = rec.ops[p.dsl_index].idx;
          for (int l = 0; l < kWarpSize; ++l) {
            const std::int64_t e = idx[static_cast<std::size_t>(l)];
            addrs[l] = e == kInactiveLane ? -1 : e % slice * esize;
          }
          deg = static_cast<std::uint8_t>(
              shared_conflict_degree(p.active_mask, addrs, num_banks));
          fold.conflict_sum += static_cast<std::uint64_t>(deg - 1);
        }
        fold.degree.push_back(deg);
      }
    }
  });
  return table.folds[a];
}

std::span<const AddrBlock> TraceSkeleton::device_addr_pool(
    int array, bool block_linear, const MemoryLayout& layout) const {
  const std::size_t slot =
      static_cast<std::size_t>(array) * 2 + (block_linear ? 1 : 0);
  std::call_once(pool_once_[slot], [&] {
    const std::size_t a = static_cast<std::size_t>(array);
    const ArrayDecl& arr = kernel_->arrays[a];
    // Fixed per-array allocation base: identical under every placement, so
    // one pool serves the whole search.
    const std::uint64_t base = layout.device_base(array);
    std::vector<AddrBlock>& pool = device_pools_[slot];
    pool.resize(mem_ops_per_array_[a]);
    std::size_t ord = 0;
    for (const WarpRecord& w : warps_) {
      for (const DslOp& op : w.ops) {
        if (!is_memory(op.cls) || op.array != array) continue;
        AddrBlock& blk = pool[ord++];
        for (int l = 0; l < kWarpSize; ++l) {
          const std::int64_t e = op.idx[static_cast<std::size_t>(l)];
          blk[static_cast<std::size_t>(l)] =
              e == kInactiveLane
                  ? -1
                  : static_cast<std::int64_t>(
                        base + (block_linear ? block_linear_offset(arr, e)
                                             : pitch_linear_offset(arr, e)));
        }
      }
    }
  });
  return device_pools_[slot];
}

std::span<const TraceSkeleton::WarpRecord> TraceSkeleton::warps(
    std::int64_t block_begin, std::int64_t block_end) const {
  GPUHMS_CHECK(0 <= block_begin && block_begin <= block_end &&
               block_end <= kernel_->num_blocks);
  const std::size_t wpb =
      static_cast<std::size_t>(kernel_->warps_per_block());
  return std::span<const WarpRecord>(
      warps_.data() + static_cast<std::size_t>(block_begin) * wpb,
      static_cast<std::size_t>(block_end - block_begin) * wpb);
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
                               const WarpCtx& ctx, std::span<const DslOp> ops)
    : mat_(&mat), op_(ops.data()), end_(ops.data() + ops.size()),
      stage_(mat.staged_arrays_.empty() ? -1 : 0),
      chunk_(static_cast<std::int64_t>(ctx.warp_in_block) * kWarpSize),
      block_(ctx.block), warp_in_block_(ctx.warp_in_block), done_(false) {
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
    const DslOp& op = *op_;
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
      stage_ < static_cast<int>(mat_->staged_arrays_.size())) {
    // A copy-in chunk's lanes: those still inside the slice.
    const std::int64_t left =
        mat_->layout_.shared_slice_elems(array()) - chunk_;
    return left >= kWarpSize ? 0xffffffffu
                             : (1u << static_cast<unsigned>(left)) - 1;
  }
  if (stage_ < 0 && (is_memory(cls_) || addr_calc_))
    return active_mask_of(op_->idx);
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
  for (int l = 0; l < kWarpSize; ++l) {
    const std::int64_t e = op_->idx[static_cast<std::size_t>(l)];
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

void TraceMaterializer::staging_preamble(const WarpCtx& ctx,
                                         std::vector<TraceOp>& out) const {
  emit(LoweringCursor(*this, ctx, {}), out);
}

std::vector<WarpTrace> TraceMaterializer::generate(
    std::int64_t block_begin, std::int64_t block_end) const {
  GPUHMS_COUNTER_ADD("trace.waves_lowered", 1);
  GPUHMS_COUNTER_ADD("trace.warps_lowered",
                     (block_end - block_begin) * kernel_->warps_per_block());
  std::vector<WarpTrace> traces;
  traces.reserve(static_cast<std::size_t>(
      (block_end - block_begin) * kernel_->warps_per_block()));
  for_each_warp(*kernel_, block_begin, block_end,
                [&](const WarpCtx& ctx, std::vector<DslOp>&& ops) {
                  if (GPUHMS_FAULT_POINT("trace.lower"))
                    throw InjectedFault(
                        "trace.lower: injected failure lowering warp trace");
                  WarpTrace wt;
                  wt.ctx = ctx;
                  emit(LoweringCursor(*this, ctx, ops), wt.ops);
                  traces.push_back(std::move(wt));
                });
  return traces;
}

}  // namespace gpuhms
