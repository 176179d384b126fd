#include "trace/soa.hpp"

#include <algorithm>

#include "common/check.hpp"
#include "common/fault_injection.hpp"

namespace gpuhms {

namespace {

// `buf`'s storage, holding at least n elements. A buffer grows only past its
// largest size so far, and drops its old contents before it allocates: every
// caller writes each element before reading it.
template <class T>
T* scratch(std::vector<T>& buf, std::size_t n) {
  if (buf.size() < n) {
    buf = std::vector<T>();
    buf.resize(n);
  }
  return buf.data();
}

}  // namespace

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

// Visits warp `gw`'s surviving records in its issue order — the staging
// preamble's copy-in loads, then the off-chip, unmasked body records —
// as visit(pc, space, is_store, lines, line_count, constant_words), where pc
// is the record's round in the warp's op stream.
template <class Visit>
void SoaLowering::walk_records(std::size_t gw, Visit&& visit) const {
  const WarpCtx& ctx = skeleton_->warp_ctx(gw);
  const std::span<const int> staged = mat_->staged_arrays();
  std::uint32_t preamble_len = 0;
  if (!staged.empty()) {
    // The warp copies chunks warp_in_block, + wpb, ... of each staged
    // slice, in staging order; each copy is ai inserts, the load at pc
    // preamble_len + ai, and the store. A closing Sync ends the preamble.
    const std::uint32_t wpb =
        static_cast<std::uint32_t>(mat_->kernel().warps_per_block());
    for (int array : staged) {
      const PlacedArray& st = arrays_[static_cast<std::size_t>(array)];
      const std::uint32_t ai = st.copy_inserts;
      const std::uint32_t row = skeleton_->copy_in_entry(array, ctx.block, 0);
      for (std::uint32_t j = static_cast<std::uint32_t>(ctx.warp_in_block);
           j < st.copy_chunks; j += wpb) {
        const std::uint32_t b = st.copy_begin[row + j];
        visit(preamble_len + ai, MemSpace::Global, false, st.copy_lines + b,
              st.copy_begin[row + j + 1] - b, std::uint32_t{0});
        preamble_len += ai + 2;
      }
    }
    ++preamble_len;
  }
  // Only off-chip, unmasked body records survive into the scheduled stream;
  // everything else already folded. `run` carries the placement-dependent
  // addressing inserts, inclusive of the current op's own.
  std::uint32_t run = 0;
  for (const TraceSkeleton::MemRecord& r : skeleton_->mem_records(gw)) {
    const PlacedArray& p = arrays_[static_cast<std::size_t>(r.array)];
    run += p.inserts;
    const MemSpace s = p.space;
    if (s == MemSpace::Shared || r.active_mask == 0) continue;
    const std::uint32_t b = p.line_begin[r.ordinal];
    visit(preamble_len + r.inv_prefix + run, s, r.is_store, p.lines + b,
          p.line_begin[r.ordinal + 1] - b,
          s == MemSpace::Constant ? std::uint32_t{p.words[r.ordinal]} : 0u);
  }
}

SoaWave SoaLowering::lower_wave(std::int64_t block_begin,
                                std::int64_t block_end) {
  const KernelInfo& k = mat_->kernel();
  const std::size_t wpb = static_cast<std::size_t>(k.warps_per_block());
  const std::size_t w0 = static_cast<std::size_t>(block_begin) * wpb;
  const std::size_t w1 = static_cast<std::size_t>(block_end) * wpb;
  const std::size_t warp_count = w1 - w0;
  SoaWave wave;
  wave.tick_base = tick_base_;
  if (warp_count == 0) return wave;

  // Closed-form round-robin schedule. Round r issues one op from every warp
  // still alive (ns > r), warps in ascending order, so the tick of op
  // (warp wi, round pc) is
  //   base + sum_{r < pc} alive(r) + |{w' < wi alive at pc}| + 1.
  // `slot` first counts the warps retiring at each round.
  std::uint32_t* ns = scratch(ns_, warp_count);
  std::uint32_t max_ops = 0;
  for (std::size_t wi = 0; wi < warp_count; ++wi) {
    ns[wi] = mat_->warp_ops(*skeleton_, w0 + wi);
    max_ops = std::max(max_ops, ns[wi]);
    tallies_.insts_executed += ns[wi];
  }
  const std::size_t rounds = max_ops;
  std::uint64_t* cum = scratch(cum_, rounds + 1);
  std::uint32_t* slot = scratch(slot_, rounds + 1);
  std::fill(slot, slot + rounds + 1, 0u);
  for (std::size_t wi = 0; wi < warp_count; ++wi) ++slot[ns[wi]];
  cum[0] = 0;
  std::size_t done = 0;
  for (std::size_t r = 0; r < rounds; ++r) {
    done += slot[r];
    cum[r + 1] = cum[r] + (warp_count - done);
  }
  // Every tick of the wave fits the record's offset from the wave's base.
  GPUHMS_CHECK(cum[rounds] <= UINT32_MAX);

  // Pass 1, warp-major: the order-free tallies and the histogram of issue
  // rounds. The tallies are summed in a local copy, which the compiler keeps
  // in registers.
  std::fill(slot, slot + rounds + 1, 0u);
  SoaTallies t = tallies_;
  std::uint32_t n = 0;
  for (std::size_t wi = 0; wi < warp_count; ++wi) {
    if (GPUHMS_FAULT_POINT("trace.lower"))
      throw InjectedFault("trace.lower: injected failure lowering warp trace");
    walk_records(w0 + wi, [&](std::uint32_t pc, MemSpace s, bool is_store,
                              const std::uint64_t*, std::uint32_t cnt,
                              std::uint32_t words) {
      switch (s) {
        case MemSpace::Global:
          ++t.global_requests;
          t.global_transactions += cnt;
          t.replay_global_divergence += cnt - 1;
          if (!is_store) t.offchip_load_transactions += cnt;
          break;
        case MemSpace::Texture1D:
        case MemSpace::Texture2D:
          ++t.tex_requests;
          t.tex_transactions += cnt;
          t.offchip_load_transactions += cnt;
          break;
        case MemSpace::Constant:
          ++t.const_requests;
          t.replay_const_divergence += std::uint64_t{words} - 1;
          t.offchip_load_transactions += cnt;
          break;
        default:
          break;
      }
      ++slot[pc];
      ++n;
    });
  }
  tallies_ = t;

  // Counting sort by pc (stable over the warp-major walk): emission order
  // becomes ascending (round, warp) — exactly the full walk's interleaving,
  // and strictly increasing in tick. slot[pc] is the next free index of
  // round pc's records.
  std::uint32_t acc = 0;
  for (std::size_t r = 0; r <= rounds; ++r) {
    const std::uint32_t c = slot[r];
    slot[r] = acc;
    acc += c;
  }

  // Pass 2 walks the same records in the same order and writes each one
  // once, into its slot. Its rank among the round's issuers is wi minus the
  // earlier warps already finished at its round; a Fenwick tree over finish
  // rounds counts those (prefix(pc + 1) = |{w' < wi : ns[w'] <= pc}|), and is
  // only consulted once pc reaches the smallest op count of an earlier warp
  // — below that, none has finished.
  const std::size_t fen_len = rounds + 2;
  std::uint32_t* fen = scratch(fen_, fen_len);
  std::fill(fen, fen + fen_len, 0u);
  SoaRecord* rec = scratch(rec_, n);
  std::uint32_t min_prev_ops = UINT32_MAX;
  const std::int64_t num_sms = arch_->num_sms;
  for (std::size_t wi = 0; wi < warp_count; ++wi) {
    const std::uint16_t sm = static_cast<std::uint16_t>(
        skeleton_->warp_ctx(w0 + wi).block % num_sms);
    walk_records(w0 + wi, [&](std::uint32_t pc, MemSpace s, bool is_store,
                              const std::uint64_t* lines, std::uint32_t cnt,
                              std::uint32_t) {
      std::uint32_t rank = static_cast<std::uint32_t>(wi);
      if (pc >= min_prev_ops) {
        for (std::uint32_t p = pc + 1; p > 0; p -= p & (~p + 1u))
          rank -= fen[p];
      }
      GPUHMS_CHECK(cnt <= UINT8_MAX);
      rec[slot[pc]++] = SoaRecord{
          lines, static_cast<std::uint32_t>(cum[pc] + rank + 1), sm,
          static_cast<std::uint8_t>(cnt),
          static_cast<std::uint8_t>(static_cast<std::uint8_t>(s) |
                                    (is_store ? SoaRecord::kStoreBit : 0))};
    });
    for (std::uint32_t p = ns[wi] + 1; p < fen_len; p += p & (~p + 1u))
      ++fen[p];
    min_prev_ops = std::min(min_prev_ops, ns[wi]);
  }
  tick_base_ += cum[rounds];

  wave.mem_n = n;
  wave.rec = rec;
  wave.ops = cum[rounds];
  return wave;
}

}  // namespace gpuhms
