#include "trace/soa.hpp"

#include <algorithm>

#include "common/check.hpp"
#include "common/fault_injection.hpp"

namespace gpuhms {

void SoaLowering::bind(const TraceMaterializer& mat,
                       const TraceSkeleton& skeleton, const GpuArch& arch) {
  arrays_ = mat.bind(skeleton);
  mat_ = &mat;
  skeleton_ = &skeleton;
  arch_ = &arch;
  tick_base_ = 0;
  tallies_ = SoaTallies{};
  const KernelInfo& k = mat.kernel();
  const TraceSkeleton::InvariantTallies& inv = skeleton.invariants();
  const std::span<const std::uint64_t> mem_tot = skeleton.mem_ops_per_array();
  for (std::size_t a = 0; a < arrays_.size(); ++a) {
    const PlacedArray& p = arrays_[a];
    if (p.space == MemSpace::Shared) {
      // Shared body ops never reach the scheduled stream: every counter they
      // touch is placement-invariant per array, so the whole space folds to
      // three adds per candidate.
      tallies_.shared_requests += inv.unmasked[a];
      tallies_.shared_load_requests += inv.unmasked_loads[a];
      tallies_.shared_conflicts += p.conflict_sum;
    }
    // Dependency folds mirroring the lowering rules: with addressing inserts
    // (ai > 0) every memory op of the array consumes its address, otherwise
    // it keeps its DSL dependency; a memory op is chain-broken by a
    // dependent successor, which for a successor memory op only happens when
    // that op lowers without inserts.
    tallies_.dep_breaks += p.inserts > 0 ? mem_tot[a] : inv.mem_uses_prev[a];
    if (p.inserts == 0) tallies_.mem_chain_breaks += inv.chain_mem_up[a];
    tallies_.addr_calc_insts += mem_tot[a] * p.inserts;
  }
  tallies_.dep_breaks += inv.dep_compute;
  tallies_.mem_chain_breaks += inv.chain_comp_up;
  tallies_.sync_insts = inv.sync_protos;
  tallies_.mem_insts = inv.mem_protos;
  tallies_.load_insts = inv.load_protos;

  // Staging preamble: every block copies each staged array's whole slice,
  // chunk by chunk, as Global addressing inserts, a load and a store, and
  // each of its warps then waits at one closing Sync. All of it but the
  // loads' lines is the same in every block, so only the loads reach
  // lower_wave; the rest folds here.
  if (mat.staged_arrays().empty()) return;
  const std::uint64_t blocks = static_cast<std::uint64_t>(k.num_blocks);
  for (int array : mat.staged_arrays()) {
    const PlacedArray& p = arrays_[static_cast<std::size_t>(array)];
    // Every copy then starts with an insert, which consumes nothing, so a
    // store never chain-breaks the warp's next copy.
    GPUHMS_CHECK(p.copy_inserts > 0);
    const std::uint64_t copies = blocks * p.copy_chunks;
    tallies_.addr_calc_insts += copies * p.copy_inserts;
    tallies_.mem_insts += 2 * copies;
    tallies_.load_insts += copies;
    // The load consumes its address, the store the loaded value; so the
    // store also chain-breaks its load.
    tallies_.dep_breaks += 2 * copies;
    tallies_.mem_chain_breaks += copies;
    tallies_.shared_requests += copies;
    tallies_.shared_conflicts += blocks * p.copy_conflict_sum;
  }
  tallies_.sync_insts +=
      blocks * static_cast<std::uint64_t>(k.warps_per_block());
}

SoaWave SoaLowering::lower_wave(std::int64_t block_begin,
                                std::int64_t block_end) {
  arena_.reset();
  const KernelInfo& k = mat_->kernel();
  const std::size_t wpb = static_cast<std::size_t>(k.warps_per_block());
  const std::size_t w0 = static_cast<std::size_t>(block_begin) * wpb;
  const std::size_t w1 = static_cast<std::size_t>(block_end) * wpb;
  const std::size_t warp_count = w1 - w0;
  const std::span<const int> staged = mat_->staged_arrays();
  SoaWave wave;
  if (warp_count == 0) return wave;

  // Capacity bound: every skeleton memory record plus every copy-in load.
  std::size_t bound = skeleton_->mem_record_count(w0, w1);
  for (int array : staged)
    bound += static_cast<std::size_t>(block_end - block_begin) *
             arrays_[static_cast<std::size_t>(array)].copy_chunks;

  // Unscheduled (warp-major) record arrays.
  std::uint32_t* pc = arena_.alloc<std::uint32_t>(bound);
  std::uint8_t* spc = arena_.alloc<std::uint8_t>(bound);
  std::uint8_t* str = arena_.alloc<std::uint8_t>(bound);
  std::uint16_t* sms = arena_.alloc<std::uint16_t>(bound);
  const std::uint64_t** lin = arena_.alloc<const std::uint64_t*>(bound);
  std::uint16_t* linn = arena_.alloc<std::uint16_t>(bound);
  std::uint32_t* rec_end = arena_.alloc<std::uint32_t>(warp_count);
  std::uint32_t* ns = arena_.alloc<std::uint32_t>(warp_count);

  std::size_t n = 0;
  std::uint32_t max_ops = 0;
  const std::int64_t num_sms = arch_->num_sms;
  for (std::size_t wi = 0; wi < warp_count; ++wi) {
    if (GPUHMS_FAULT_POINT("trace.lower"))
      throw InjectedFault("trace.lower: injected failure lowering warp trace");
    const std::size_t gw = w0 + wi;
    const WarpCtx& ctx = skeleton_->warp_ctx(gw);
    const std::uint16_t warp_sm =
        static_cast<std::uint16_t>(ctx.block % num_sms);
    std::uint32_t preamble_len = 0;
    if (!staged.empty()) {
      // The warp copies chunks warp_in_block, + wpb, ... of each staged
      // slice, in staging order; each copy is ai inserts, the load at pc
      // preamble_len + ai, and the store. A closing Sync ends the preamble.
      for (int array : staged) {
        const PlacedArray& st = arrays_[static_cast<std::size_t>(array)];
        const std::uint32_t ai = st.copy_inserts;
        const std::uint32_t row = skeleton_->copy_in_entry(array, ctx.block, 0);
        for (std::uint32_t j = static_cast<std::uint32_t>(ctx.warp_in_block);
             j < st.copy_chunks; j += static_cast<std::uint32_t>(wpb)) {
          const std::uint32_t b = st.copy_begin[row + j];
          const std::uint32_t cnt = st.copy_begin[row + j + 1] - b;
          ++tallies_.global_requests;
          tallies_.global_transactions += cnt;
          tallies_.replay_global_divergence += cnt - 1;
          tallies_.offchip_load_transactions += cnt;
          pc[n] = preamble_len + ai;
          spc[n] = static_cast<std::uint8_t>(MemSpace::Global);
          str[n] = 0;
          sms[n] = warp_sm;
          lin[n] = st.copy_lines + b;
          linn[n] = static_cast<std::uint16_t>(cnt);
          ++n;
          preamble_len += ai + 2;
        }
      }
      ++preamble_len;
    }

    const std::uint32_t warp_ops = mat_->warp_ops(*skeleton_, gw);
    ns[wi] = warp_ops;
    max_ops = std::max(max_ops, warp_ops);
    tallies_.insts_executed += warp_ops;

    // Body walk: only off-chip, unmasked records survive into the scheduled
    // stream; everything else already folded. `run` carries the placement-
    // dependent addressing inserts, inclusive of the current op's own.
    std::uint32_t run = 0;
    for (const TraceSkeleton::MemRecord& r : skeleton_->mem_records(gw)) {
      const PlacedArray& p = arrays_[static_cast<std::size_t>(r.array)];
      run += p.inserts;
      const MemSpace s = p.space;
      if (s == MemSpace::Shared) continue;
      if (r.active_mask == 0) continue;
      const std::uint32_t b = p.line_begin[r.ordinal];
      const std::uint32_t cnt = p.line_begin[r.ordinal + 1] - b;
      switch (s) {
        case MemSpace::Global:
          ++tallies_.global_requests;
          tallies_.global_transactions += cnt;
          tallies_.replay_global_divergence += cnt - 1;
          if (!r.is_store) tallies_.offchip_load_transactions += cnt;
          break;
        case MemSpace::Texture1D:
        case MemSpace::Texture2D:
          ++tallies_.tex_requests;
          tallies_.tex_transactions += cnt;
          tallies_.offchip_load_transactions += cnt;
          break;
        case MemSpace::Constant:
          ++tallies_.const_requests;
          tallies_.replay_const_divergence +=
              static_cast<std::uint64_t>(p.words[r.ordinal]) - 1;
          tallies_.offchip_load_transactions += cnt;
          break;
        default:
          break;
      }
      pc[n] = preamble_len + r.inv_prefix + run;
      spc[n] = static_cast<std::uint8_t>(s);
      str[n] = r.is_store;
      sms[n] = warp_sm;
      lin[n] = p.lines + b;
      linn[n] = static_cast<std::uint16_t>(cnt);
      ++n;
    }
    rec_end[wi] = static_cast<std::uint32_t>(n);
  }

  // Closed-form round-robin schedule. Round r issues one op from every warp
  // still alive (ns > r), warps in ascending order, so the tick of op
  // (warp wi, round pc) is
  //   base + sum_{r < pc} alive(r) + |{w' < wi alive at pc}| + 1.
  const std::size_t rounds = max_ops;
  std::uint64_t* cum = arena_.alloc<std::uint64_t>(rounds + 1);
  std::uint32_t* hist = arena_.alloc<std::uint32_t>(rounds + 1);
  std::fill(hist, hist + rounds + 1, 0u);
  for (std::size_t wi = 0; wi < warp_count; ++wi) ++hist[ns[wi]];
  cum[0] = 0;
  std::size_t done = 0;
  for (std::size_t r = 0; r < rounds; ++r) {
    done += hist[r];
    cum[r + 1] = cum[r] + (warp_count - done);
  }

  // Fenwick tree over finish rounds: processing warps in ascending order,
  // prefix(pc + 1) = |{w' < wi : ns[w'] <= pc}| = warps already finished at
  // the record's round, so rank = wi - prefix.
  const std::size_t fen_len = rounds + 2;
  std::uint32_t* fen = arena_.alloc<std::uint32_t>(fen_len);
  std::fill(fen, fen + fen_len, 0u);
  std::uint64_t* tick = arena_.alloc<std::uint64_t>(n);
  std::size_t i = 0;
  for (std::size_t wi = 0; wi < warp_count; ++wi) {
    for (; i < rec_end[wi]; ++i) {
      const std::uint32_t opc = pc[i];
      std::uint32_t finished = 0;
      for (std::uint32_t p = opc + 1; p > 0; p -= p & (~p + 1u))
        finished += fen[p];
      tick[i] = tick_base_ + cum[opc] + (wi - finished) + 1;
    }
    for (std::uint32_t p = ns[wi] + 1; p < fen_len; p += p & (~p + 1u))
      ++fen[p];
  }
  tick_base_ += cum[rounds];

  // Counting sort by pc (stable, warp-major input): emission order becomes
  // ascending (round, warp) — exactly the full walk's interleaving, and
  // strictly increasing in tick.
  std::uint32_t* start = arena_.alloc<std::uint32_t>(rounds + 1);
  std::fill(start, start + rounds + 1, 0u);
  for (std::size_t j = 0; j < n; ++j) ++start[pc[j]];
  std::uint32_t acc = 0;
  for (std::size_t r = 0; r <= rounds; ++r) {
    const std::uint32_t c = start[r];
    start[r] = acc;
    acc += c;
  }
  std::uint8_t* spc2 = arena_.alloc<std::uint8_t>(n);
  std::uint8_t* str2 = arena_.alloc<std::uint8_t>(n);
  std::uint16_t* sms2 = arena_.alloc<std::uint16_t>(n);
  std::uint64_t* tick2 = arena_.alloc<std::uint64_t>(n);
  const std::uint64_t** lin2 = arena_.alloc<const std::uint64_t*>(n);
  std::uint16_t* linn2 = arena_.alloc<std::uint16_t>(n);
  for (std::size_t j = 0; j < n; ++j) {
    const std::uint32_t d = start[pc[j]]++;
    spc2[d] = spc[j];
    str2[d] = str[j];
    sms2[d] = sms[j];
    tick2[d] = tick[j];
    lin2[d] = lin[j];
    linn2[d] = linn[j];
  }

  wave.mem_n = n;
  wave.space = spc2;
  wave.is_store = str2;
  wave.sm = sms2;
  wave.tick = tick2;
  wave.lines = lin2;
  wave.lines_n = linn2;
  wave.ops = cum[rounds];
  return wave;
}

}  // namespace gpuhms
