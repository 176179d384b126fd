#include "sim/simulator.hpp"

#include <algorithm>
#include <limits>
#include <span>

#include "cache/cache.hpp"
#include "common/check.hpp"
#include "common/fault_injection.hpp"
#include "common/obs.hpp"
#include "sim/coalesce.hpp"

namespace gpuhms {

namespace {

constexpr std::uint64_t kInf = std::numeric_limits<std::uint64_t>::max();

// One resident warp: a cursor lowering its recorded DSL stream op by op,
// plus its scheduling state.
struct Warp {
  LoweringCursor cursor;
  std::uint64_t issue_free = 0;       // issue port availability
  std::uint64_t last_completion = 0;  // completion of the last issued op
  bool last_was_mem = false;
  bool at_sync = false;

  // Earliest cycle the op at the cursor may issue (kInf while parked at a
  // barrier or finished).
  std::uint64_t gate() const {
    if (cursor.done() || at_sync) return kInf;
    return cursor.uses_prev() ? std::max(issue_free, last_completion)
                              : issue_free;
  }
};

struct BlockSlot {
  int warps_done = 0;
  int parked = 0;  // warps finished or waiting at the barrier
  // This block's DSL streams when no skeleton was passed (the cursors point
  // into them while the block runs; their capacity carries over from block
  // to block).
  std::vector<TraceSkeleton::WarpRecord> recorded;
};

// Warps of slot b are warps[b * wpb .. (b + 1) * wpb). gate[i] caches
// warps[i].gate() (kInf for warps whose slot never held a block), so the
// issue scan reads one contiguous array.
struct Sm {
  std::uint64_t time = 0;
  std::vector<Warp> warps;
  std::vector<std::uint64_t> gate;
  std::vector<BlockSlot> slots;
  int active_slots = 0;         // slots holding an unfinished block
  int rr = 0;                   // round-robin scheduling cursor
  std::int64_t next_block = 0;  // next block id in this SM's static stride
  std::unique_ptr<SetAssocCache> const_cache;
  std::unique_ptr<SetAssocCache> tex_cache;
};

class Engine {
 public:
  Engine(const GpuArch& arch, const KernelInfo& kernel,
         const DataPlacement& placement, const TraceSkeleton* skeleton,
         SimOptions opts);

  SimResult run();
  std::vector<std::vector<std::uint64_t>> take_samples() {
    return gddr_.interarrival_samples();
  }

 private:
  bool load_block(Sm& sm, int slot_idx, std::int64_t block_id);
  void refill(Sm& sm, int slot_idx);
  bool try_issue(Sm& sm, std::uint64_t t);
  std::uint64_t issue_mem(Sm& sm, const LoweringCursor& op, std::uint64_t t,
                          std::uint64_t& slots);
  void release_sync_if_ready(Sm& sm, int slot_idx, std::uint64_t t);
  void advance_stalled(Sm& sm);

  const GpuArch& arch_;
  const TraceSkeleton* skeleton_;
  SimOptions opts_;
  TraceMaterializer mat_;  // the placement's lowering rules and layout
  int wpb_;
  std::size_t longest_stream_ = 0;  // DSL ops of the longest warp recorded
  GddrSystem gddr_;
  SetAssocCache l2_;
  std::vector<Sm> sms_;
  ProfileCounters c_;
  std::uint64_t finish_time_ = 0;
};

Engine::Engine(const GpuArch& arch, const KernelInfo& kernel,
               const DataPlacement& placement, const TraceSkeleton* skeleton,
               SimOptions opts)
    : arch_(arch), skeleton_(skeleton), opts_(opts),
      mat_(kernel, placement, arch), wpb_(kernel.warps_per_block()),
      gddr_(arch, arch_mapping(arch), opts.record_interarrivals),
      l2_(l2_config(arch)) {
  GPUHMS_CHECK_MSG(skeleton == nullptr || &skeleton->kernel() == &kernel,
                   "skeleton recorded from a different kernel");
}

// Returns false when every warp of the block has an empty stream: such a
// block is finished as soon as it is loaded.
bool Engine::load_block(Sm& sm, int slot_idx, std::int64_t block_id) {
  BlockSlot& slot = sm.slots[static_cast<std::size_t>(slot_idx)];
  std::span<const TraceSkeleton::WarpRecord> records;
  if (skeleton_ != nullptr) {
    records = skeleton_->warps(block_id, block_id + 1);
  } else {
    for (int w = 0; w < wpb_; ++w) {
      TraceSkeleton::WarpRecord& rec =
          slot.recorded[static_cast<std::size_t>(w)];
      // Warps of one kernel record streams of similar length: sizing a
      // fresh buffer to the longest seen so far skips its regrowth.
      rec.ops.reserve(longest_stream_);
      rec.ctx = record_warp(mat_.kernel(), block_id, w, rec.ops);
      longest_stream_ = std::max(longest_stream_, rec.ops.size());
    }
    records = slot.recorded;
  }
  slot.warps_done = 0;
  for (std::size_t w = 0; w < records.size(); ++w) {
    if (GPUHMS_FAULT_POINT("trace.lower"))
      throw InjectedFault("trace.lower: injected failure lowering warp trace");
    const std::size_t wi = static_cast<std::size_t>(slot_idx * wpb_) + w;
    Warp& ws = sm.warps[wi];
    ws = Warp{};
    ws.cursor = LoweringCursor(mat_, records[w].ctx, records[w].ops);
    ws.issue_free = sm.time;
    if (ws.cursor.done()) ++slot.warps_done;
    sm.gate[wi] = ws.gate();
  }
  slot.parked = slot.warps_done;
  if (slot.warps_done == wpb_) return false;
  ++sm.active_slots;
  return true;
}

// Loads the SM's next block with work into the slot, if any is left.
void Engine::refill(Sm& sm, int slot_idx) {
  while (sm.next_block < mat_.kernel().num_blocks) {
    const std::int64_t b = sm.next_block;
    sm.next_block += arch_.num_sms;
    if (load_block(sm, slot_idx, b)) return;
  }
}

void Engine::release_sync_if_ready(Sm& sm, int slot_idx, std::uint64_t t) {
  BlockSlot& slot = sm.slots[static_cast<std::size_t>(slot_idx)];
  if (slot.parked < wpb_) return;
  const std::size_t first = static_cast<std::size_t>(slot_idx * wpb_);
  for (std::size_t wi = first; wi < first + static_cast<std::size_t>(wpb_);
       ++wi) {
    Warp& ws = sm.warps[wi];
    if (ws.at_sync) {
      ws.at_sync = false;
      ws.issue_free = std::max(ws.issue_free, t + 1);
      sm.gate[wi] = ws.gate();
    }
  }
  slot.parked = slot.warps_done;
}

// Handles the memory op at a warp's cursor, issued at t: computes its lane
// addresses, forms transactions, walks the cache hierarchy, books
// counters/replays, and returns the data-ready time.
std::uint64_t Engine::issue_mem(Sm& sm, const LoweringCursor& op,
                                std::uint64_t t, std::uint64_t& slots) {
  const bool is_store = op.cls() == OpClass::Store;
  const std::uint64_t dram_issue = t + arch_.cache_hit_lat;
  std::uint64_t completion = t + 1;
  ++c_.ldst_executed;

  std::int64_t addr[kWarpSize];
  const std::uint32_t active_mask = op.lane_addresses(addr);
  const MemSpace space = op.space();

  // Fully predicated-off memory instructions still issue but touch nothing.
  if (active_mask == 0) return completion;

  switch (space) {
    case MemSpace::Global: {
      std::uint64_t lines[kWarpSize];
      const int nl =
          coalesce_lines_buf(active_mask, addr, arch_.cache_line, lines);
      const auto n = static_cast<std::uint64_t>(nl);
      ++c_.global_requests;
      c_.global_transactions += n;
      c_.replay_global_divergence += n - 1;
      slots += n - 1;
      for (std::uint64_t line : std::span(lines, static_cast<std::size_t>(nl))) {
        ++c_.l2_transactions;
        if (!l2_.access(line, is_store)) {
          ++c_.l2_misses;
          ++c_.dram_requests;
          const std::uint64_t done = gddr_.access(line, dram_issue, is_store);
          if (!is_store) completion = std::max(completion, done);
        } else if (!is_store) {
          completion = std::max(completion, t + arch_.cache_hit_lat);
        }
      }
      break;
    }
    case MemSpace::Texture1D:
    case MemSpace::Texture2D: {
      std::uint64_t lines[kWarpSize];
      const int nl =
          coalesce_lines_buf(active_mask, addr, arch_.cache_line, lines);
      ++c_.tex_requests;
      c_.tex_transactions += static_cast<std::uint64_t>(nl);
      for (std::uint64_t line : std::span(lines, static_cast<std::size_t>(nl))) {
        if (sm.tex_cache->access(line, false)) {
          completion = std::max(completion, t + arch_.tex_cache_hit_lat);
          continue;
        }
        ++c_.tex_cache_misses;
        ++c_.l2_transactions;
        if (!l2_.access(line, false)) {
          ++c_.l2_misses;
          ++c_.dram_requests;
          completion = std::max(completion, gddr_.access(line, dram_issue, false));
        } else {
          completion = std::max(completion, t + arch_.cache_hit_lat);
        }
      }
      break;
    }
    case MemSpace::Constant: {
      std::uint64_t lines[kWarpSize];
      const int nl =
          coalesce_lines_buf(active_mask, addr, arch_.cache_line, lines);
      const int div = distinct_words(active_mask, addr);
      ++c_.const_requests;
      c_.replay_const_divergence += static_cast<std::uint64_t>(div - 1);
      slots += static_cast<std::uint64_t>(div - 1);
      for (std::uint64_t line : std::span(lines, static_cast<std::size_t>(nl))) {
        if (sm.const_cache->access(line, false)) {
          completion = std::max(completion, t + arch_.const_cache_hit_lat);
          continue;
        }
        ++c_.const_cache_misses;
        ++c_.replay_const_miss;
        ++slots;
        ++c_.l2_transactions;
        if (!l2_.access(line, false)) {
          ++c_.l2_misses;
          ++c_.dram_requests;
          completion = std::max(completion, gddr_.access(line, dram_issue, false));
        } else {
          completion = std::max(completion, t + arch_.cache_hit_lat);
        }
      }
      break;
    }
    case MemSpace::Shared: {
      const int degree =
          shared_conflict_degree(active_mask, addr, arch_.shared_banks);
      ++c_.shared_requests;
      c_.shared_bank_conflicts += static_cast<std::uint64_t>(degree - 1);
      c_.replay_shared_conflict += static_cast<std::uint64_t>(degree - 1);
      slots += static_cast<std::uint64_t>(degree - 1);
      if (!is_store) {
        completion = t + arch_.shared_lat +
                     static_cast<std::uint64_t>(degree - 1) *
                         arch_.shared_conflict_penalty;
      }
      break;
    }
  }
  if (is_store) completion = t + 1;  // stores retire through the write path
  return completion;
}

bool Engine::try_issue(Sm& sm, std::uint64_t t) {
  const int n = static_cast<int>(sm.warps.size());
  const std::uint64_t* gate = sm.gate.data();
  // Round-robin rotates past the last issuer; GTO sticks with the current
  // warp (sm.rr) while it is ready, falling back to the oldest ready warp.
  int wi = -1;
  if (opts_.scheduler == WarpScheduler::Gto) {
    if (gate[sm.rr] <= t) {
      wi = sm.rr;
    } else {
      for (int i = 0; i < n; ++i) {
        if (gate[i] <= t) {
          wi = i;
          break;
        }
      }
    }
    if (wi < 0) return false;
    sm.rr = wi;
  } else {
    for (int k = 0, i = sm.rr; k < n; ++k, i = i + 1 == n ? 0 : i + 1) {
      if (gate[i] <= t) {
        wi = i;
        break;
      }
    }
    if (wi < 0) return false;
    sm.rr = wi + 1 == n ? 0 : wi + 1;
  }

  Warp& ws = sm.warps[static_cast<std::size_t>(wi)];
  const OpClass cls = ws.cursor.cls();
  std::uint64_t slots = 1;
  std::uint64_t completion = t + 1;
  bool was_mem = false;

  switch (cls) {
    case OpClass::IAlu:
      ++c_.inst_integer;
      completion = t + arch_.ialu_lat;
      break;
    case OpClass::FAlu:
      ++c_.inst_fp32;
      completion = t + arch_.falu_lat;
      break;
    case OpClass::DAlu:
      ++c_.inst_fp64;
      ++c_.replay_double_issue;  // issues over 2 cycles (cause 5)
      ++slots;
      completion = t + arch_.dalu_lat;
      break;
    case OpClass::Sfu:
      ++c_.inst_sfu;
      completion = t + arch_.sfu_lat;
      break;
    case OpClass::Sync:
      ws.at_sync = true;
      break;
    case OpClass::Load:
    case OpClass::Store:
      completion = issue_mem(sm, ws.cursor, t, slots);
      was_mem = cls == OpClass::Load;
      c_.ldst_issued += slots;
      break;
  }

  ++c_.inst_executed;
  c_.inst_issued += slots;
  c_.issue_slots += slots;
  c_.busy_issue_cycles += slots;

  ws.cursor.next();
  ws.issue_free = t + slots;
  if (cls != OpClass::Sync) {
    ws.last_completion = completion;
    ws.last_was_mem = was_mem;
    finish_time_ = std::max(finish_time_, completion);
  }
  sm.gate[static_cast<std::size_t>(wi)] = ws.gate();
  const int slot_idx = wi / wpb_;
  BlockSlot& slot = sm.slots[static_cast<std::size_t>(slot_idx)];
  const bool done = ws.cursor.done();
  if (done || ws.at_sync) ++slot.parked;
  if (done) {
    ++slot.warps_done;
    if (slot.warps_done == wpb_) {
      --sm.active_slots;
      sm.time = t + slots;  // refill sees a consistent clock
      refill(sm, slot_idx);
    } else {
      release_sync_if_ready(sm, slot_idx, t);
    }
  } else if (cls == OpClass::Sync) {
    release_sync_if_ready(sm, slot_idx, t);
  }
  sm.time = std::max(sm.time, t + slots);
  return true;
}

// No warp was ready at sm.time: jump to the earliest gate and book the
// stall cycles by cause.
void Engine::advance_stalled(Sm& sm) {
  std::uint64_t best = kInf;
  std::size_t blocker = 0;
  for (std::size_t i = 0; i < sm.gate.size(); ++i) {
    if (sm.gate[i] < best) {
      best = sm.gate[i];
      blocker = i;
    }
  }
  GPUHMS_CHECK_MSG(best != kInf, "scheduler deadlock (barrier not released)");
  GPUHMS_CHECK(best > sm.time);
  const std::uint64_t stall = best - sm.time;
  if (sm.warps[blocker].last_was_mem) {
    c_.mem_stall_cycles += stall;
  } else {
    c_.comp_stall_cycles += stall;
  }
  sm.time = best;
}

SimResult Engine::run() {
  GPUHMS_CHECK(wpb_ >= 1);
  // Occupancy is placement-dependent: staging into shared memory limits the
  // blocks an SM can host.
  const KernelInfo& kernel = mat_.kernel();
  const int blocks_per_sm = mat_.layout().blocks_per_sm(arch_);
  const std::size_t num_sms = static_cast<std::size_t>(arch_.num_sms);

  sms_.clear();
  sms_.resize(num_sms);
  // Clock of every SM that still has a resident block (kInf once drained):
  // the global loop steps the smallest, lowest index first.
  std::vector<std::uint64_t> clock(num_sms, kInf);
  for (std::size_t s = 0; s < num_sms; ++s) {
    Sm& sm = sms_[s];
    sm.const_cache = std::make_unique<SetAssocCache>(const_cache_config(arch_));
    sm.tex_cache = std::make_unique<SetAssocCache>(tex_cache_config(arch_));
    const std::size_t warps = static_cast<std::size_t>(blocks_per_sm * wpb_);
    sm.warps.resize(warps);
    sm.gate.assign(warps, kInf);
    sm.slots.resize(static_cast<std::size_t>(blocks_per_sm));
    if (skeleton_ == nullptr) {
      for (BlockSlot& slot : sm.slots)
        slot.recorded.resize(static_cast<std::size_t>(wpb_));
    }
    sm.next_block = static_cast<std::int64_t>(s);
    for (int b = 0; b < blocks_per_sm; ++b) refill(sm, b);
    // The initial fill leaves empty only trailing slots, and those never
    // get a block (a finished block's slot takes the next one), so the
    // warp scans stop at the filled slots.
    const std::size_t live = static_cast<std::size_t>(sm.active_slots * wpb_);
    sm.warps.resize(live);
    sm.gate.resize(live);
    if (sm.active_slots > 0) clock[s] = sm.time;
  }

  // Global loop: always step the SM with the smallest clock so shared
  // structures (L2, DRAM queues) observe accesses in time order.
  while (true) {
    const auto next = std::min_element(clock.begin(), clock.end());
    if (*next == kInf) break;
    const std::size_t s = static_cast<std::size_t>(next - clock.begin());
    Sm& sm = sms_[s];
    if (!try_issue(sm, sm.time)) advance_stalled(sm);
    clock[s] = sm.active_slots > 0 ? sm.time : kInf;
  }

  SimResult r;
  for (const Sm& sm : sms_) finish_time_ = std::max(finish_time_, sm.time);
  r.cycles = finish_time_;
  c_.total_warps = static_cast<std::uint64_t>(kernel.total_warps());
  c_.active_sms = static_cast<int>(
      std::min<std::int64_t>(arch_.num_sms, kernel.num_blocks));
  c_.warps_per_sm =
      std::min<double>(static_cast<double>(blocks_per_sm * wpb_),
                       static_cast<double>(kernel.num_blocks) * wpb_ /
                           std::max(1, c_.active_sms));
  r.counters = c_;
  r.dram = gddr_.stats();
  return r;
}

}  // namespace

GpuSimulator::GpuSimulator(const GpuArch& arch, SimOptions opts)
    : arch_(&arch), opts_(opts) {}

SimResult GpuSimulator::run(const KernelInfo& kernel,
                            const DataPlacement& placement,
                            const TraceSkeleton* skeleton) {
  GPUHMS_SCOPED_PHASE("sim.run_ns");
  Engine engine(*arch_, kernel, placement, skeleton, opts_);
  SimResult r = engine.run();
  last_samples_ = engine.take_samples();
  GPUHMS_COUNTER_ADD("sim.insts_executed", r.counters.inst_executed);
  return r;
}

const std::vector<std::vector<std::uint64_t>>&
GpuSimulator::interarrival_samples() const {
  return last_samples_;
}

SimResult simulate(const KernelInfo& kernel, const DataPlacement& placement,
                   const GpuArch& arch, const TraceSkeleton* skeleton) {
  GpuSimulator sim(arch);
  return sim.run(kernel, placement, skeleton);
}

}  // namespace gpuhms
