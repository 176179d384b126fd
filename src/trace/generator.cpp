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
    if (placement_.of(static_cast<int>(i)) == MemSpace::Shared &&
        kernel.arrays[i].default_space != MemSpace::Shared) {
      staged_arrays_.push_back(static_cast<int>(i));
    }
  }
}

void TraceMaterializer::lower_mem(const WarpCtx& ctx, const DslOp& op,
                                  std::vector<TraceOp>& out) const {
  const int array = op.array;
  GPUHMS_CHECK(array >= 0 &&
               static_cast<std::size_t>(array) < kernel_->arrays.size());
  const ArrayDecl& arr = kernel_->arrays[static_cast<std::size_t>(array)];
  const MemSpace space = placement_.of(array);

  // Addressing-mode instructions (Fig. 2 of the paper).
  const int addr_insts = addr_calc_instructions(space, arr.dtype);
  for (int i = 0; i < addr_insts; ++i) {
    TraceOp a;
    a.cls = OpClass::IAlu;
    a.is_addr_calc = true;
    a.uses_prev = false;
    a.active_mask = active_mask_of(op.idx);
    out.push_back(a);
  }

  TraceOp m;
  m.cls = op.cls;
  m.space = space;
  m.array = static_cast<std::int16_t>(array);
  // The load consumes the computed address when one was materialized;
  // otherwise it keeps the DSL dependency.
  m.uses_prev = addr_insts > 0 ? true : op.uses_prev;
  m.active_mask = active_mask_of(op.idx);
  for (int l = 0; l < kWarpSize; ++l) {
    const std::int64_t e = op.idx[static_cast<std::size_t>(l)];
    if (e == kInactiveLane) {
      m.addr[static_cast<std::size_t>(l)] = -1;
      continue;
    }
    const std::uint64_t addr = space == MemSpace::Shared
                                   ? layout_.shared_addr(array, e)
                                   : layout_.device_addr(array, e);
    m.addr[static_cast<std::size_t>(l)] = static_cast<std::int64_t>(addr);
  }
  (void)ctx;
  out.push_back(m);
}

void TraceMaterializer::lower(const WarpCtx& ctx,
                              const std::vector<DslOp>& ops,
                              std::vector<TraceOp>& out) const {
  if (GPUHMS_FAULT_POINT("trace.lower"))
    throw InjectedFault("trace.lower: injected failure lowering warp trace");
  for (const DslOp& op : ops) {
    switch (op.cls) {
      case OpClass::Load:
      case OpClass::Store:
        lower_mem(ctx, op, out);
        break;
      case OpClass::Sync: {
        TraceOp t;
        t.cls = OpClass::Sync;
        t.active_mask = 0xffffffffu;
        out.push_back(t);
        break;
      }
      default: {
        for (int i = 0; i < op.count; ++i) {
          TraceOp t;
          t.cls = op.cls;
          t.uses_prev = i == 0 && op.uses_prev;
          t.active_mask = 0xffffffffu;
          out.push_back(t);
        }
      }
    }
  }
}

void TraceMaterializer::staging_preamble(const WarpCtx& ctx,
                                         std::vector<TraceOp>& out) const {
  if (staged_arrays_.empty()) return;
  const int wpb = kernel_->warps_per_block();
  const std::int64_t lanes_per_block =
      static_cast<std::int64_t>(wpb) * kWarpSize;
  for (int array : staged_arrays_) {
    const ArrayDecl& arr = kernel_->arrays[static_cast<std::size_t>(array)];
    const std::int64_t slice = layout_.shared_slice_elems(array);
    const std::int64_t start = layout_.shared_slice_start(array, ctx.block);
    const std::int64_t iters =
        (slice + lanes_per_block - 1) / lanes_per_block;
    for (std::int64_t it = 0; it < iters; ++it) {
      const std::int64_t base =
          it * lanes_per_block + ctx.warp_in_block * kWarpSize;
      // Global load of the chunk (coalesced) ...
      TraceOp ld;
      ld.cls = OpClass::Load;
      ld.space = MemSpace::Global;
      ld.array = static_cast<std::int16_t>(array);
      ld.uses_prev = false;
      TraceOp st;
      st.cls = OpClass::Store;
      st.space = MemSpace::Shared;
      st.array = static_cast<std::int16_t>(array);
      st.uses_prev = true;  // stores the just-loaded value
      std::uint32_t mask = 0;
      for (int l = 0; l < kWarpSize; ++l) {
        const std::int64_t local = base + l;
        if (local >= slice) {
          ld.addr[static_cast<std::size_t>(l)] = -1;
          st.addr[static_cast<std::size_t>(l)] = -1;
          continue;
        }
        mask |= 1u << l;
        const std::int64_t global_elem =
            (start + local) % static_cast<std::int64_t>(arr.elems);
        ld.addr[static_cast<std::size_t>(l)] = static_cast<std::int64_t>(
            layout_.device_base(array) +
            pitch_linear_offset(arr, global_elem));
        st.addr[static_cast<std::size_t>(l)] = static_cast<std::int64_t>(
            layout_.shared_offset(array) +
            static_cast<std::uint64_t>(local) * arr.elem_size());
      }
      if (mask == 0) continue;
      ld.active_mask = mask;
      st.active_mask = mask;
      // Global addressing for the load (register indirect, 2 IMADs).
      for (int i = 0; i < addr_calc_instructions(MemSpace::Global, arr.dtype);
           ++i) {
        TraceOp a;
        a.cls = OpClass::IAlu;
        a.is_addr_calc = true;
        a.active_mask = mask;
        out.push_back(a);
      }
      ld.uses_prev = true;
      out.push_back(ld);
      out.push_back(st);
    }
  }
  TraceOp sync;
  sync.cls = OpClass::Sync;
  sync.active_mask = 0xffffffffu;
  out.push_back(sync);
}

std::vector<WarpTrace> TraceMaterializer::generate(
    std::int64_t block_begin, std::int64_t block_end,
    const TraceSkeleton* skeleton) const {
  GPUHMS_COUNTER_ADD("trace.waves_lowered", 1);
  GPUHMS_COUNTER_ADD("trace.warps_lowered",
                     (block_end - block_begin) * kernel_->warps_per_block());
  std::vector<WarpTrace> traces;
  traces.reserve(static_cast<std::size_t>(
      (block_end - block_begin) * kernel_->warps_per_block()));
  if (skeleton != nullptr) {
    GPUHMS_CHECK_MSG(&skeleton->kernel() == kernel_,
                     "skeleton recorded from a different kernel");
    for (const TraceSkeleton::WarpRecord& rec :
         skeleton->warps(block_begin, block_end)) {
      WarpTrace wt;
      wt.ctx = rec.ctx;
      staging_preamble(rec.ctx, wt.ops);
      lower(rec.ctx, rec.ops, wt.ops);
      traces.push_back(std::move(wt));
    }
    return traces;
  }
  for_each_warp(*kernel_, block_begin, block_end,
                [&](const WarpCtx& ctx, std::vector<DslOp>&& ops) {
                  WarpTrace wt;
                  wt.ctx = ctx;
                  staging_preamble(ctx, wt.ops);
                  lower(ctx, ops, wt.ops);
                  traces.push_back(std::move(wt));
                });
  return traces;
}

}  // namespace gpuhms
