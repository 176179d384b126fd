#include "model/trace_analysis.hpp"

#include <algorithm>

#include "common/check.hpp"
#include "common/obs.hpp"
#include "sim/coalesce.hpp"

namespace gpuhms {

TraceAnalyzer::TraceAnalyzer(const KernelInfo& kernel, const GpuArch& arch,
                             const ModelOptions& options)
    : kernel_(&kernel), arch_(&arch),
      address_mapping_(options.address_mapping),
      mapping_(arch_mapping(arch)), l2_(l2_config(arch)) {
  const std::size_t num_sms = static_cast<std::size_t>(arch.num_sms);
  const_caches_.assign(num_sms, SetAssocCache(const_cache_config(arch)));
  tex_caches_.assign(num_sms, SetAssocCache(tex_cache_config(arch)));
  rows_.resize(static_cast<std::size_t>(mapping_.num_banks()));
}

void TraceAnalyzer::reset() {
  l2_.reset();
  for (SetAssocCache& c : const_caches_) c.reset();
  for (SetAssocCache& c : tex_caches_) c.reset();
  std::fill(rows_.begin(), rows_.end(), BankRow{});
  ev_ = PlacementEvents{};
  ev_.banks.resize(static_cast<std::size_t>(mapping_.num_banks()));
  tick_ = 0;
  rr_bank_ = 0;
  dep_breaks_ = 0;
  mem_chain_breaks_ = 0;
}

void TraceAnalyzer::dram_request(std::uint64_t line_addr, bool is_store) {
  ++ev_.dram_requests;
  if (!is_store) ++ev_.dram_load_requests;
  int bank;
  std::uint64_t row;
  const auto d = mapping_.decode(line_addr);
  row = d.row;
  if (!address_mapping_) {
    bank = static_cast<int>(rr_bank_++ % static_cast<std::uint64_t>(
                                             mapping_.num_banks()));
  } else {
    bank = d.bank;
  }
  BankRow& b = rows_[static_cast<std::size_t>(bank)];
  BankStream& s = ev_.banks[static_cast<std::size_t>(bank)];
  std::uint64_t service;
  if (!b.row_open) {
    service = arch_->dram.row_miss_service;
    ++ev_.row_misses;
  } else if (b.open_row == row) {
    service = arch_->dram.row_hit_service;
    ++ev_.row_hits;
  } else {
    service = arch_->dram.row_conflict_service;
    ++ev_.row_conflicts;
  }
  if (arch_->dram.page_policy == PagePolicy::Open) {
    b.row_open = true;
    b.open_row = row;
  } else {
    b.row_open = false;  // closed page: auto-precharge
  }
  if (b.seen) s.interarrival.add(static_cast<double>(tick_ - b.last_tick));
  b.seen = true;
  b.last_tick = tick_;
  s.service.add(static_cast<double>(service));
  ++s.count;
}

void TraceAnalyzer::mem_op(const TraceOp& op, int sm) {
  ++ev_.mem_insts;
  const bool is_store = op.cls == OpClass::Store;
  if (!is_store) ++ev_.load_insts;
  if (op.active_mask == 0) return;  // predicated off: issues, touches nothing
  switch (op.space) {
    case MemSpace::Global: {
      coalesce_lines(op.active_mask, op.addr.data(), arch_->cache_line, lines_);
      ++ev_.global_requests;
      ev_.global_transactions += lines_.size();
      ev_.replay_global_divergence += lines_.size() - 1;
      if (!is_store) ev_.offchip_load_transactions += lines_.size();
      for (std::uint64_t line : lines_) {
        ++ev_.l2_transactions;
        if (!l2_.access(line, is_store)) {
          ++ev_.l2_misses;
          dram_request(line, is_store);
        }
      }
      break;
    }
    case MemSpace::Texture1D:
    case MemSpace::Texture2D: {
      coalesce_lines(op.active_mask, op.addr.data(), arch_->cache_line, lines_);
      ++ev_.tex_requests;
      ev_.tex_transactions += lines_.size();
      ev_.offchip_load_transactions += lines_.size();
      for (std::uint64_t line : lines_) {
        if (tex_caches_[static_cast<std::size_t>(sm)].access(line, false))
          continue;
        ++ev_.tex_misses;
        ++ev_.l2_transactions;
        if (!l2_.access(line, false)) {
          ++ev_.l2_misses;
          dram_request(line, false);
        }
      }
      break;
    }
    case MemSpace::Constant: {
      coalesce_lines(op.active_mask, op.addr.data(), arch_->cache_line, lines_);
      const int div = distinct_words(op.active_mask, op.addr.data());
      ++ev_.const_requests;
      ev_.replay_const_divergence += static_cast<std::uint64_t>(div - 1);
      ev_.offchip_load_transactions += lines_.size();
      for (std::uint64_t line : lines_) {
        if (const_caches_[static_cast<std::size_t>(sm)].access(line, false))
          continue;
        ++ev_.const_misses;
        ++ev_.replay_const_miss;
        ++ev_.l2_transactions;
        if (!l2_.access(line, false)) {
          ++ev_.l2_misses;
          dram_request(line, false);
        }
      }
      break;
    }
    case MemSpace::Shared: {
      const int degree = shared_conflict_degree(
          op.active_mask, op.addr.data(), arch_->shared_banks);
      ++ev_.shared_requests;
      if (!is_store) ++ev_.shared_load_requests;
      ev_.shared_conflicts += static_cast<std::uint64_t>(degree - 1);
      ev_.replay_shared_conflict += static_cast<std::uint64_t>(degree - 1);
      break;
    }
  }
}

// Round-robin, one op per warp per turn, mirroring the schedulers. The ILP /
// MLP dependency counters accumulate across waves through the members the
// callers zero in reset().
void TraceAnalyzer::rr_schedule(const std::vector<WarpTrace>& traces) {
  const std::size_t warp_count = traces.size();
  std::vector<std::size_t> pcs(warp_count, 0);
  std::vector<int> warp_sm(warp_count);
  for (std::size_t w = 0; w < warp_count; ++w) {
    warp_sm[w] = static_cast<int>(traces[w].ctx.block %
                                  static_cast<std::int64_t>(arch_->num_sms));
  }
  bool progress = true;
  while (progress) {
    progress = false;
    for (std::size_t w = 0; w < warp_count; ++w) {
      const std::vector<TraceOp>& ops = traces[w].ops;
      const std::size_t n = ops.size();
      std::size_t& pc = pcs[w];
      if (pc >= n) continue;
      progress = true;
      const TraceOp& op = ops[pc];
      const int sm = warp_sm[w];
      ++tick_;
      ++ev_.insts_executed;
      if (op.uses_prev) ++dep_breaks_;
      switch (op.cls) {
        case OpClass::Load:
        case OpClass::Store:
          mem_op(op, sm);
          if (pc + 1 < n && ops[pc + 1].uses_prev) ++mem_chain_breaks_;
          break;
        case OpClass::Sync:
          ++ev_.sync_insts;
          break;
        default:
          if (op.is_addr_calc) ++ev_.addr_calc_insts;
          break;
      }
      ++pc;
    }
  }
}

void TraceAnalyzer::run(const TraceMaterializer& mat) {
  const KernelInfo& k = mat.kernel();
  const TraceSkeleton skeleton(k, *arch_);
  const int blocks_per_sm = mat.layout().blocks_per_sm(*arch_);
  ev_.warps_per_sm = mat.layout().warps_per_sm(*arch_);
  const std::int64_t wave_blocks =
      static_cast<std::int64_t>(arch_->num_sms) * blocks_per_sm;
  for (std::int64_t wave = 0; wave * wave_blocks < k.num_blocks; ++wave) {
    const std::int64_t b0 = wave * wave_blocks;
    const std::int64_t b1 = std::min(k.num_blocks, b0 + wave_blocks);
    wave_ = mat.generate(skeleton, b0, b1, std::move(wave_));
    rr_schedule(wave_);
  }
}

// Replays the SoA-lowered waves through the same stateful cache/row-buffer
// models the full walk uses. Stage 1 (lower_wave) pre-resolved coalescing,
// scheduling and every order-free counter; only the order-sensitive walk —
// cache lookups and DRAM bank streams, driven by the precomputed issue
// ticks — remains, over the off-chip records alone.
void TraceAnalyzer::run_soa(const TraceMaterializer& mat,
                            const TraceSkeleton& skeleton) {
  const KernelInfo& k = mat.kernel();
  const int blocks_per_sm = mat.layout().blocks_per_sm(*arch_);
  ev_.warps_per_sm = mat.layout().warps_per_sm(*arch_);
  soa_.bind(mat, skeleton, *arch_);
  std::uint64_t total_ops = 0;
  const std::int64_t wave_blocks =
      static_cast<std::int64_t>(arch_->num_sms) * blocks_per_sm;
  for (std::int64_t wave = 0; wave * wave_blocks < k.num_blocks; ++wave) {
    const std::int64_t b0 = wave * wave_blocks;
    const std::int64_t b1 = std::min(k.num_blocks, b0 + wave_blocks);
    SoaWave wv;
    {
      GPUHMS_SCOPED_PHASE("trace.soa_lower_ns");
      wv = soa_.lower_wave(b0, b1);
    }
    GPUHMS_SCOPED_PHASE("trace.soa_replay_ns");
    total_ops += wv.ops;
    for (std::size_t i = 0; i < wv.mem_n; ++i) {
      const SoaRecord& r = wv.rec[i];
      tick_ = wv.tick_base + r.tick;
      const std::uint64_t* lines = r.lines;
      const std::uint16_t cnt = r.lines_n;
      const bool is_store = r.is_store();
      const std::size_t sm = r.sm;
      switch (r.space()) {
        case MemSpace::Global:
          for (std::uint16_t j = 0; j < cnt; ++j) {
            ++ev_.l2_transactions;
            if (!l2_.access(lines[j], is_store)) {
              ++ev_.l2_misses;
              dram_request(lines[j], is_store);
            }
          }
          break;
        case MemSpace::Texture1D:
        case MemSpace::Texture2D:
          for (std::uint16_t j = 0; j < cnt; ++j) {
            if (tex_caches_[sm].access(lines[j], false)) continue;
            ++ev_.tex_misses;
            ++ev_.l2_transactions;
            if (!l2_.access(lines[j], false)) {
              ++ev_.l2_misses;
              dram_request(lines[j], false);
            }
          }
          break;
        case MemSpace::Constant:
          for (std::uint16_t j = 0; j < cnt; ++j) {
            if (const_caches_[sm].access(lines[j], false)) continue;
            ++ev_.const_misses;
            ++ev_.replay_const_miss;
            ++ev_.l2_transactions;
            if (!l2_.access(lines[j], false)) {
              ++ev_.l2_misses;
              dram_request(lines[j], false);
            }
          }
          break;
        case MemSpace::Shared:
          break;  // folded analytically; never scheduled
      }
    }
  }
  const SoaTallies& t = soa_.tallies();
  ev_.insts_executed = t.insts_executed;
  ev_.addr_calc_insts = t.addr_calc_insts;
  ev_.mem_insts = t.mem_insts;
  ev_.load_insts = t.load_insts;
  ev_.sync_insts = t.sync_insts;
  ev_.global_requests = t.global_requests;
  ev_.global_transactions = t.global_transactions;
  ev_.replay_global_divergence = t.replay_global_divergence;
  ev_.tex_requests = t.tex_requests;
  ev_.tex_transactions = t.tex_transactions;
  ev_.const_requests = t.const_requests;
  ev_.replay_const_divergence = t.replay_const_divergence;
  ev_.offchip_load_transactions = t.offchip_load_transactions;
  ev_.shared_requests = t.shared_requests;
  ev_.shared_load_requests = t.shared_load_requests;
  ev_.shared_conflicts = t.shared_conflicts;
  ev_.replay_shared_conflict = t.shared_conflicts;
  dep_breaks_ = t.dep_breaks;
  mem_chain_breaks_ = t.mem_chain_breaks;
  tick_ = total_ops;
}

PlacementEvents TraceAnalyzer::analyze(const DataPlacement& placement,
                                       const TraceSkeleton* skeleton) {
  GPUHMS_SCOPED_PHASE("trace.analyze_ns");
  reset();
  TraceMaterializer mat(*kernel_, placement, *arch_);
  if (skeleton != nullptr) {
    run_soa(mat, *skeleton);
    GPUHMS_COUNTER_ADD("trace.analyses_soa", 1);
  } else {
    run(mat);
    GPUHMS_COUNTER_ADD("trace.analyses_full", 1);
  }
  ev_.trace_ticks = tick_;
  GPUHMS_COUNTER_ADD("trace.analyses", 1);
  GPUHMS_COUNTER_ADD("trace.insts_lowered", ev_.insts_executed);
  GPUHMS_COUNTER_ADD("trace.mem_insts", ev_.mem_insts);
  // Coalescing profile: warp-level requests vs the cache-line transactions
  // they coalesced into (ratio transactions/requests = divergence factor).
  GPUHMS_COUNTER_ADD("trace.global_requests", ev_.global_requests);
  GPUHMS_COUNTER_ADD("trace.global_transactions", ev_.global_transactions);
  GPUHMS_COUNTER_ADD("trace.dram_requests", ev_.dram_requests);
  ev_.ilp = static_cast<double>(ev_.insts_executed) /
            static_cast<double>(std::max<std::uint64_t>(1, dep_breaks_));
  ev_.mlp = static_cast<double>(std::max<std::uint64_t>(1, ev_.mem_insts)) /
            static_cast<double>(std::max<std::uint64_t>(1, mem_chain_breaks_));
  ev_.mlp = std::clamp(ev_.mlp, 1.0, 8.0);
  ev_.ilp = std::clamp(ev_.ilp, 1.0, 16.0);
  return std::move(ev_);
}

PlacementEvents analyze_trace(const KernelInfo& kernel,
                              const DataPlacement& placement,
                              const GpuArch& arch,
                              const ModelOptions& options,
                              const TraceSkeleton* skeleton) {
  TraceAnalyzer an(kernel, arch, options);
  return an.analyze(placement, skeleton);
}

}  // namespace gpuhms
