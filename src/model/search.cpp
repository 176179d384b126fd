#include "model/search.hpp"

#include <algorithm>
#include <chrono>
#include <cstring>
#include <limits>
#include <string>

#include "common/check.hpp"
#include "common/obs.hpp"

namespace gpuhms {

namespace {

// Candidates are scored in fixed-size chunks and folded serially in
// enumeration order, so the result does not depend on the thread count or
// scheduling — a requirement for bit-identical serial/parallel results. The
// chunk size is a constant for the same reason. Deadline/cancel checks also
// happen only at chunk boundaries, so an interrupted search's completed
// prefix is bit-identical to the same prefix of an uninterrupted run.
constexpr std::size_t kChunk = 64;

// Chunk-boundary stop test shared by the exhaustive search and the oracle.
// Reads the cancel token first (a cancelled caller should see `cancelled`
// even when the deadline also expired).
struct StopWatch {
  explicit StopWatch(const SearchOptions& options)
      : cancel(options.cancel) {
    if (options.deadline)
      deadline_at = std::chrono::steady_clock::now() + *options.deadline;
  }

  // Sets exactly one of *cancelled / *deadline_hit when stopping.
  bool should_stop(bool* deadline_hit, bool* cancelled) const {
    if (cancel != nullptr && cancel->load(std::memory_order_relaxed)) {
      *cancelled = true;
      return true;
    }
    if (deadline_at &&
        std::chrono::steady_clock::now() >= *deadline_at) {
      *deadline_hit = true;
      return true;
    }
    return false;
  }

  const std::atomic<bool>* cancel = nullptr;
  std::optional<std::chrono::steady_clock::time_point> deadline_at;
};

// Search-outcome metrics shared by every search core: tallies plus the
// deadline slack (wall-clock budget left when the search returned — 0 when
// the deadline was hit, untouched when no deadline was set).
void record_search_metrics(const StopWatch& watch, std::size_t evaluated,
                           std::size_t not_evaluated, bool deadline_hit,
                           bool cancelled) {
  GPUHMS_COUNTER_ADD("search.searches", 1);
  GPUHMS_COUNTER_ADD("search.evaluated", evaluated);
  GPUHMS_COUNTER_ADD("search.not_evaluated", not_evaluated);
  if (deadline_hit) GPUHMS_COUNTER_ADD("search.deadline_hits", 1);
  if (cancelled) GPUHMS_COUNTER_ADD("search.cancellations", 1);
  if (watch.deadline_at) {
    const auto slack = deadline_hit
                           ? std::chrono::steady_clock::duration::zero()
                           : *watch.deadline_at -
                                 std::chrono::steady_clock::now();
    GPUHMS_GAUGE_SET(
        "search.deadline_slack_ms",
        std::chrono::duration_cast<std::chrono::milliseconds>(slack).count());
  }
}

// What every predictor-driven search evaluates candidates with: the pool
// (the caller's, or a local one) and one analyzer scratch per worker; the
// predictor replays its own skeleton.
struct Evaluator {
  Evaluator(const Predictor& p, const SearchOptions& options)
      : predictor(p),
        local_pool(options.pool ? 1 : options.num_threads),
        pool(options.pool ? *options.pool : local_pool) {
    scratch.reserve(static_cast<std::size_t>(pool.size()));
    for (int t = 0; t < pool.size(); ++t)
      scratch.push_back(predictor.make_analyzer());
  }

  // Predicted cycles of `p` on pool worker `worker`'s scratch.
  double cycles(int worker, const DataPlacement& p) {
    return predictor.predict(p, &scratch[static_cast<std::size_t>(worker)])
        .total_cycles;
  }

  const Predictor& predictor;
  ThreadPool local_pool;
  ThreadPool& pool;
  std::vector<TraceAnalyzer> scratch;
};

// Core of the exhaustive search over an already-enumerated, non-empty space.
// Exceptions from workers (captured and rethrown by ThreadPool) propagate to
// the caller; try_search converts them to INTERNAL.
SearchResult exhaustive_over(const Predictor& predictor,
                             const SearchOptions& options,
                             const PlacementSpace& space) {
  GPUHMS_SCOPED_PHASE("search.exhaustive_ns");
  const StopWatch watch(options);
  Evaluator eval(predictor, options);

  SearchResult best;
  best.space_truncated = space.truncated;
  best.space_skipped = space.skipped_combinations;
  const std::size_t n = space.placements.size();
  std::vector<double> cycles(std::min(n, kChunk));

  for (std::size_t c0 = 0; c0 < n; c0 += kChunk) {
    if (watch.should_stop(&best.deadline_hit, &best.cancelled)) {
      if (best.evaluated == 0) {
        // Even an already-expired deadline returns a *scored* placement so
        // the caller can always compare or apply the result.
        best.placement = space.placements[0];
        best.predicted_cycles = eval.cycles(0, space.placements[0]);
        best.evaluated = 1;
      }
      best.not_evaluated = n - best.evaluated;
      break;
    }
    const std::size_t c1 = std::min(n, c0 + kChunk);
    {
      GPUHMS_SCOPED_PHASE("search.chunk_ns");
      eval.pool.parallel_for(c1 - c0, [&](int worker, std::size_t j) {
        cycles[j] = eval.cycles(worker, space.placements[c0 + j]);
      });
    }
    GPUHMS_COUNTER_ADD("search.chunks", 1);
    GPUHMS_HISTOGRAM_RECORD("search.chunk_candidates", c1 - c0);
    for (std::size_t j = 0; j < c1 - c0; ++j) {
      if (best.evaluated++ == 0 || cycles[j] < best.predicted_cycles) {
        best.placement = space.placements[c0 + j];
        best.predicted_cycles = cycles[j];
      }
    }
  }
  record_search_metrics(watch, best.evaluated, best.not_evaluated,
                        best.deadline_hit, best.cancelled);
  return best;
}

// --- Branch-and-bound / beam ------------------------------------------------

// enumerate_placement_space's odometer increments array 0 fastest, so the
// enumeration index of a placement compares like a base-m number whose most
// significant digit is the LAST array (and the digit order within an array
// is the MemSpace enum value = kAllMemSpaces position). Exhaustive search
// breaks score ties by keeping the earliest-enumerated candidate; branch-
// and-bound visits candidates in a different order and must re-derive the
// same winner, so it breaks ties with this predicate explicitly.
bool enum_order_less(const DataPlacement& a, const DataPlacement& b) {
  for (std::size_t i = a.size(); i-- > 0;) {
    const int ai = static_cast<int>(a.of(static_cast<int>(i)));
    const int bi = static_cast<int>(b.of(static_cast<int>(i)));
    if (ai != bi) return ai < bi;
  }
  return false;
}

// The feasible best-so-far of an anytime search. `offer` applies the
// (score, enumeration order) rule that makes branch-and-bound agree with
// search_exhaustive bit-for-bit: lower predicted cycles win, exact score
// ties go to the placement that enumerates first.
struct Incumbent {
  DataPlacement placement;
  double cycles = std::numeric_limits<double>::infinity();
  bool valid = false;
  std::size_t updates = 0;

  bool offer(const DataPlacement& p, double c) {
    if (valid &&
        !(c < cycles || (c == cycles && enum_order_less(p, placement))))
      return false;
    placement = p;
    cycles = c;
    valid = true;
    ++updates;
    return true;
  }
};

// Shared evaluation context of branch-and-bound and beam search.
struct BnbContext {
  const Predictor* predictor = nullptr;
  const GpuArch* arch = nullptr;
  Evaluator* eval = nullptr;
  PlacementBounder bounder;
  // Tree level -> array index: arrays with the widest addressing-cost spread
  // are assigned first so wrong choices raise the bound as early as possible.
  std::vector<int> order;
};

BnbContext make_bnb_context(Evaluator* eval) {
  const Predictor& predictor = eval->predictor;
  BnbContext ctx;
  ctx.predictor = &predictor;
  ctx.arch = &predictor.arch();
  ctx.eval = eval;
  ctx.bounder = predictor.make_bounder();
  GPUHMS_CHECK_MSG(!ctx.bounder.infeasible(),
                   "kernel admits no legal placement");
  const std::size_t n = predictor.kernel().arrays.size();
  ctx.order.resize(n);
  std::vector<double> spread(n, 0.0);
  for (std::size_t a = 0; a < n; ++a) {
    ctx.order[a] = static_cast<int>(a);
    for (MemSpace s : ctx.bounder.relaxed_spaces(a))
      spread[a] = std::max(spread[a], ctx.bounder.addr_insts(a, s) -
                                          ctx.bounder.min_addr_insts(a));
  }
  std::stable_sort(ctx.order.begin(), ctx.order.end(), [&](int x, int y) {
    return spread[static_cast<std::size_t>(x)] >
           spread[static_cast<std::size_t>(y)];
  });
  return ctx;
}

// Seeds the incumbent with one greedy coordinate-descent pass from the
// sample placement — the cheap feasible solution branch-and-bound prunes
// against from the very first node.
void greedy_seed(const BnbContext& ctx, Incumbent* inc,
                 std::size_t* evaluated) {
  const KernelInfo& k = ctx.predictor->kernel();
  DataPlacement cur = ctx.predictor->sample_placement();
  double cur_cycles = ctx.eval->cycles(0, cur);
  ++*evaluated;
  inc->offer(cur, cur_cycles);
  for (int array : ctx.order) {
    const auto a = static_cast<std::size_t>(array);
    for (MemSpace s : ctx.bounder.relaxed_spaces(a)) {
      if (s == cur.of(array)) continue;
      const DataPlacement candidate = cur.with(array, s);
      if (validate_placement(k, candidate, *ctx.arch)) continue;
      const double c = ctx.eval->cycles(0, candidate);
      ++*evaluated;
      if (c < cur_cycles ||
          (c == cur_cycles && enum_order_less(candidate, cur))) {
        cur = candidate;
        cur_cycles = c;
      }
    }
  }
  inc->offer(cur, cur_cycles);
}

// Completes a prefix of assignments (arrays order[0..depth)) with the sample
// placement where the capacity budgets allow it, Global otherwise — the
// deterministic rollout the beam heuristic scores.
DataPlacement complete_with_sample(const BnbContext& ctx,
                                   const DataPlacement& partial,
                                   std::size_t depth, std::size_t const_bytes,
                                   std::size_t shared_bytes) {
  const KernelInfo& k = ctx.predictor->kernel();
  const DataPlacement& sample = ctx.predictor->sample_placement();
  DataPlacement full = partial;
  for (std::size_t d = depth; d < ctx.order.size(); ++d) {
    const int array = ctx.order[d];
    const ArrayDecl& decl = k.arrays[static_cast<std::size_t>(array)];
    MemSpace s = sample.of(array);
    if (s == MemSpace::Constant &&
        const_bytes + decl.bytes() > ctx.arch->constant_capacity)
      s = MemSpace::Global;
    if (s == MemSpace::Shared &&
        shared_bytes + decl.shared_slice_bytes() > ctx.arch->shared_capacity)
      s = MemSpace::Global;
    if (s == MemSpace::Constant) const_bytes += decl.bytes();
    if (s == MemSpace::Shared) shared_bytes += decl.shared_slice_bytes();
    full.set(array, s);
  }
  return full;
}

// One child of a branch-and-bound tree node: array order[depth] pinned to
// `space`, with the node's absolute addressing total, capacity prefix sums
// and admissible bound.
struct BnbChild {
  MemSpace space = MemSpace::Global;
  double bound = 0.0;
  double addr_total = 0.0;
  std::size_t const_bytes = 0;
  std::size_t shared_bytes = 0;
};

struct BnbFrame {
  std::vector<BnbChild> children;
  std::size_t next = 0;
};

// Builds the children of the node (depth, addr_total, capacity sums), best
// bound first (space enum order on ties — any deterministic order works;
// correctness only needs the strict-inequality prune below). Children whose
// capacity prefix cannot be completed are infeasible, not pruned: a prefix
// extends to a legal placement iff its own sums fit, because the all-Global
// completion adds nothing.
void build_children(const BnbContext& ctx, std::size_t depth,
                    double addr_total, std::size_t const_bytes,
                    std::size_t shared_bytes, BnbFrame* frame) {
  const KernelInfo& k = ctx.predictor->kernel();
  const int array = ctx.order[depth];
  const auto a = static_cast<std::size_t>(array);
  const ArrayDecl& decl = k.arrays[a];
  frame->children.clear();
  frame->next = 0;
  for (MemSpace s : ctx.bounder.relaxed_spaces(a)) {
    BnbChild c;
    c.space = s;
    c.const_bytes =
        const_bytes + (s == MemSpace::Constant ? decl.bytes() : 0);
    c.shared_bytes =
        shared_bytes + (s == MemSpace::Shared ? decl.shared_slice_bytes() : 0);
    if (c.const_bytes > ctx.arch->constant_capacity ||
        c.shared_bytes > ctx.arch->shared_capacity)
      continue;
    c.addr_total = addr_total - ctx.bounder.min_addr_insts(a) +
                   ctx.bounder.addr_insts(a, s);
    c.bound = ctx.bounder.bound_cycles(c.addr_total);
    frame->children.push_back(c);
  }
  std::sort(frame->children.begin(), frame->children.end(),
            [](const BnbChild& x, const BnbChild& y) {
              if (x.bound != y.bound) return x.bound < y.bound;
              return static_cast<int>(x.space) < static_cast<int>(y.space);
            });
}

// Captures the live walk state at a visit boundary — everything
// search_branch_and_bound needs to continue from exactly this point.
// Inverse of restore_bnb_state.
BnbCheckpoint snapshot_bnb_state(const Incumbent& inc, const SearchResult& res,
                                 const std::vector<BnbFrame>& stack,
                                 const std::vector<DataPlacement>& pending,
                                 std::size_t visits) {
  BnbCheckpoint cp;
  cp.incumbent_valid = inc.valid;
  if (inc.valid) {
    cp.incumbent.reserve(inc.placement.size());
    for (std::size_t a = 0; a < inc.placement.size(); ++a)
      cp.incumbent.push_back(inc.placement.of(static_cast<int>(a)));
    std::memcpy(&cp.incumbent_cycles_bits, &inc.cycles,
                sizeof cp.incumbent_cycles_bits);
  }
  cp.incumbent_updates = inc.updates;
  cp.evaluated = res.evaluated;
  cp.nodes_expanded = res.nodes_expanded;
  cp.pruned_subtrees = res.pruned_subtrees;
  cp.visits = visits;
  cp.stack_next.reserve(stack.size());
  for (const BnbFrame& f : stack)
    cp.stack_next.push_back(static_cast<std::uint32_t>(f.next));
  cp.pending.reserve(pending.size());
  for (const DataPlacement& p : pending) {
    std::vector<MemSpace> spaces;
    spaces.reserve(p.size());
    for (std::size_t a = 0; a < p.size(); ++a)
      spaces.push_back(p.of(static_cast<int>(a)));
    cp.pending.push_back(std::move(spaces));
  }
  return cp;
}

// Rebuilds the DFS walk from a checkpoint. Child lists replay from
// build_children (deterministic), so only the per-frame consumed-child
// counts are needed: while a frame below depth d exists, stack[d] is not the
// top of the stack and its `next` cannot have advanced since the descent —
// hence children[next - 1] IS the child the walk descended into, giving the
// path placement and the (addr_total, capacity) sums for the next level.
// Throws CheckpointMismatch when the snapshot cannot belong to this search.
void restore_bnb_state(const BnbContext& ctx, const BnbCheckpoint& cp,
                       Incumbent* inc, SearchResult* res,
                       std::vector<BnbFrame>* stack,
                       std::vector<DataPlacement>* pending, DataPlacement* cur,
                       std::size_t* visits) {
  const std::size_t n = ctx.predictor->kernel().arrays.size();
  if (cp.stack_next.empty() || cp.stack_next.size() > n)
    throw CheckpointMismatch("checkpoint stack depth " +
                             std::to_string(cp.stack_next.size()) +
                             " does not fit a " + std::to_string(n) +
                             "-array kernel");
  if (cp.incumbent_valid && cp.incumbent.size() != n)
    throw CheckpointMismatch("checkpoint incumbent has " +
                             std::to_string(cp.incumbent.size()) +
                             " arrays, kernel has " + std::to_string(n));
  for (const auto& p : cp.pending)
    if (p.size() != n)
      throw CheckpointMismatch("checkpoint pending leaf has " +
                               std::to_string(p.size()) +
                               " arrays, kernel has " + std::to_string(n));

  if (cp.incumbent_valid) {
    inc->placement = DataPlacement(cp.incumbent);
    std::memcpy(&inc->cycles, &cp.incumbent_cycles_bits, sizeof inc->cycles);
    inc->valid = true;
  }
  inc->updates = cp.incumbent_updates;
  res->evaluated = cp.evaluated;
  res->nodes_expanded = cp.nodes_expanded;
  res->pruned_subtrees = cp.pruned_subtrees;
  *visits = cp.visits;
  pending->clear();
  pending->reserve(cp.pending.size());
  for (const auto& spaces : cp.pending)
    pending->push_back(DataPlacement(spaces));

  stack->clear();
  stack->resize(cp.stack_next.size());
  double addr = ctx.bounder.root_addr_insts();
  std::size_t const_bytes = 0, shared_bytes = 0;
  for (std::size_t d = 0; d < cp.stack_next.size(); ++d) {
    build_children(ctx, d, addr, const_bytes, shared_bytes, &(*stack)[d]);
    BnbFrame& f = (*stack)[d];
    if (cp.stack_next[d] > f.children.size())
      throw CheckpointMismatch(
          "checkpoint frame " + std::to_string(d) + " consumed " +
          std::to_string(cp.stack_next[d]) + " of " +
          std::to_string(f.children.size()) + " children");
    f.next = cp.stack_next[d];
    if (d + 1 < cp.stack_next.size()) {
      if (f.next == 0)
        throw CheckpointMismatch("checkpoint frame " + std::to_string(d) +
                                 " has a descendant but no consumed child");
      const BnbChild& taken = f.children[f.next - 1];
      cur->set(ctx.order[d], taken.space);
      addr = taken.addr_total;
      const_bytes = taken.const_bytes;
      shared_bytes = taken.shared_bytes;
    }
  }
}

// Evaluates the buffered leaves over the pool and folds them serially in
// DFS order — per-slot writes plus an ordered fold keep the incumbent (and
// hence all later pruning) identical for every thread count.
void flush_leaves(const BnbContext& ctx,
                  std::vector<DataPlacement>* pending_placements,
                  Incumbent* inc, SearchResult* res) {
  if (pending_placements->empty()) return;
  GPUHMS_SCOPED_PHASE("search.chunk_ns");
  std::vector<double> cycles(pending_placements->size());
  ctx.eval->pool.parallel_for(
      pending_placements->size(), [&](int worker, std::size_t j) {
        cycles[j] = ctx.eval->cycles(worker, (*pending_placements)[j]);
      });
  GPUHMS_COUNTER_ADD("search.chunks", 1);
  GPUHMS_HISTOGRAM_RECORD("search.chunk_candidates",
                          pending_placements->size());
  res->evaluated += pending_placements->size();
  for (std::size_t j = 0; j < pending_placements->size(); ++j)
    inc->offer((*pending_placements)[j], cycles[j]);
  pending_placements->clear();
}

// The error contract of try_search, annotated with the algorithm's
// "<verb> placements of kernel '<name>'": a predictor without a profiled
// sample is FAILED_PRECONDITION before any work starts; an error `run`
// returns is passed through; a checkpoint that does not fit the search is
// INVALID_ARGUMENT; any other escaping exception (a worker fault rethrown by
// the pool) is INTERNAL.
template <class Run>
StatusOr<SearchResult> guarded_search(const Predictor& predictor,
                                      std::string_view verb, Run&& run) {
  const std::string ctx = std::string(verb) + " placements of kernel '" +
                          predictor.kernel().name + "'";
  if (!predictor.has_sample())
    return FailedPreconditionError(
               "predictor has no profiled sample; call try_profile_sample or "
               "try_set_sample first")
        .annotate(ctx);
  try {
    StatusOr<SearchResult> result = run();
    if (!result.ok()) return result.status().annotate(ctx);
    return result;
  } catch (const CheckpointMismatch& e) {
    return InvalidArgumentError(e.what()).annotate(ctx);
  } catch (const std::exception& e) {
    return InternalError(e.what()).annotate(ctx);
  }
}

}  // namespace

SearchResult search_exhaustive(const Predictor& predictor,
                               const SearchOptions& options) {
  const KernelInfo& k = predictor.kernel();
  const GpuArch& arch = predictor.arch();
  const PlacementSpace space = enumerate_placement_space(k, arch, options.cap);
  GPUHMS_CHECK(!space.placements.empty());
  return exhaustive_over(predictor, options, space);
}

SearchResult search_greedy(const Predictor& predictor, int max_sweeps) {
  const KernelInfo& k = predictor.kernel();
  const GpuArch& arch = predictor.arch();
  SearchResult r;
  r.placement = predictor.sample_placement();
  r.predicted_cycles = predictor.predict(r.placement).total_cycles;
  ++r.evaluated;
  for (int sweep = 0; sweep < max_sweeps; ++sweep) {
    bool changed = false;
    for (std::size_t a = 0; a < k.arrays.size(); ++a) {
      const int array = static_cast<int>(a);
      for (MemSpace s : kAllMemSpaces) {
        if (s == r.placement.of(array)) continue;
        const DataPlacement candidate = r.placement.with(array, s);
        if (validate_placement(k, candidate, arch)) continue;
        const double cycles = predictor.predict(candidate).total_cycles;
        ++r.evaluated;
        if (cycles < r.predicted_cycles) {
          r.placement = candidate;
          r.predicted_cycles = cycles;
          changed = true;
        }
      }
    }
    if (!changed) break;
  }
  return r;
}

// Depth-first over the assignment tree, best child first, pruning on
// strictly-greater bounds (ties survive so the enumeration-order tie-break
// stays exact), leaves batch-evaluated in kChunk buffers. Anytime: the
// incumbent is feasible from the greedy seed onwards, and on a deadline or
// cancel stop the frontier bounds certify the gap.
SearchResult search_branch_and_bound(const Predictor& predictor,
                                     const SearchOptions& options) {
  GPUHMS_SCOPED_PHASE("search.bnb_ns");
  const KernelInfo& k = predictor.kernel();
  const StopWatch watch(options);
  Evaluator eval(predictor, options);
  const BnbContext ctx = make_bnb_context(&eval);
  const std::size_t n = k.arrays.size();

  SearchResult res;
  Incumbent inc;

  std::vector<BnbFrame> stack;
  std::vector<DataPlacement> pending;  // leaf buffer, flushed per kChunk
  DataPlacement cur(std::vector<MemSpace>(n, MemSpace::Global));
  std::size_t visits = 0;  // stop-watch cadence (every kChunk node visits)
  bool stopped = false;

  // Checkpointing: snapshots are taken between node visits, where the
  // (stack, pending, incumbent, counters) tuple fully determines the rest of
  // the walk — emission reads state but never changes it, so a journaled run
  // is bit-identical to a plain one.
  BnbCheckpointSink* sink = options.checkpoint_sink;
  const std::size_t checkpoint_interval =
      std::max<std::size_t>(1, options.checkpoint_interval);
  std::size_t last_checkpoint = 0;  // visits value of the last emission

  const bool resumed = options.resume_from != nullptr && n > 0;
  if (resumed) {
    // Restore instead of seeding: the snapshot already carries the incumbent
    // the greedy seed (and the walk so far) produced.
    restore_bnb_state(ctx, *options.resume_from, &inc, &res, &stack, &pending,
                      &cur, &visits);
    last_checkpoint = visits;
    GPUHMS_COUNTER_ADD("search.bnb_resumes", 1);
  } else {
    // A feasible incumbent before the first tree node: the sample placement
    // is scored even when the deadline already expired at entry (same
    // contract as exhaustive search's first candidate).
    greedy_seed(ctx, &inc, &res.evaluated);
  }

  // An already-expired deadline / pre-fired cancel token skips the walk
  // entirely but must still read as a stop: the incumbent stands (and, on a
  // resume, so do the restored frontier bounds), but nothing new was proven
  // about the rest of the space.
  if (n > 0 && watch.should_stop(&res.deadline_hit, &res.cancelled)) {
    stopped = true;
  } else if (n > 0) {
    if (!resumed) {
      stack.emplace_back();
      build_children(ctx, 0, ctx.bounder.root_addr_insts(), 0, 0,
                     &stack.back());
    }
    while (!stack.empty()) {
      if (sink != nullptr && visits != last_checkpoint &&
          visits % checkpoint_interval == 0) {
        sink->on_checkpoint(
            snapshot_bnb_state(inc, res, stack, pending, visits));
        last_checkpoint = visits;
      }
      if (++visits % kChunk == 0 &&
          watch.should_stop(&res.deadline_hit, &res.cancelled)) {
        // One final snapshot at the stop point so a resume continues from
        // here rather than replaying since the last periodic checkpoint.
        // (The pending buffer is snapshotted un-flushed: the flush below
        // only improves THIS run's returned incumbent; the resumed run
        // re-evaluates those leaves itself, keeping its counters identical
        // to an uninterrupted run's.)
        if (sink != nullptr)
          sink->on_checkpoint(
              snapshot_bnb_state(inc, res, stack, pending, visits));
        stopped = true;
        break;
      }
      BnbFrame& frame = stack.back();
      if (frame.next >= frame.children.size()) {
        stack.pop_back();
        continue;
      }
      const std::size_t depth = stack.size() - 1;
      const BnbChild child = frame.children[frame.next++];
      if (child.bound > inc.cycles) {
        // Admissible bound: every completion of this subtree predicts
        // >= child.bound > incumbent, so it cannot even tie.
        ++res.pruned_subtrees;
        continue;
      }
      cur.set(ctx.order[depth], child.space);
      if (depth + 1 == n) {
        pending.push_back(cur);
        if (pending.size() >= kChunk) flush_leaves(ctx, &pending, &inc, &res);
        continue;
      }
      ++res.nodes_expanded;
      stack.emplace_back();
      build_children(ctx, depth + 1, child.addr_total, child.const_bytes,
                     child.shared_bytes, &stack[stack.size() - 1]);
    }
  }
  // The final partial chunk (or, on an early stop, the buffered leaves —
  // one chunk of work at most, the same granularity exhaustive search
  // stops at).
  flush_leaves(ctx, &pending, &inc, &res);

  // Certification: everything unexplored lives under a frontier child (or a
  // pruned subtree, whose bound exceeded an incumbent value >= the final
  // one), so min(incumbent, frontier bounds) lower-bounds the optimum over
  // the FULL legal space.
  double lb = inc.cycles;
  if (stopped && stack.empty()) {
    // Stopped before the root was even expanded (pre-expired deadline or
    // pre-fired cancel): the entire space is unexplored and the only honest
    // certificate is the root bound.
    lb = std::min(lb, ctx.bounder.bound_cycles(ctx.bounder.root_addr_insts()));
  }
  for (const BnbFrame& f : stack)
    for (std::size_t j = f.next; j < f.children.size(); ++j)
      lb = std::min(lb, f.children[j].bound);
  res.placement = inc.placement;
  res.predicted_cycles = inc.cycles;
  res.incumbent_updates = inc.updates;
  res.lower_bound = lb;
  res.optimality_gap =
      inc.cycles > 0.0 ? (inc.cycles - lb) / inc.cycles : 0.0;
  res.proven_optimal = !stopped;

  GPUHMS_COUNTER_ADD("search.bnb_searches", 1);
  GPUHMS_COUNTER_ADD("search.bnb_nodes_expanded", res.nodes_expanded);
  GPUHMS_COUNTER_ADD("search.bnb_pruned_subtrees", res.pruned_subtrees);
  GPUHMS_COUNTER_ADD("search.bnb_incumbent_updates", res.incumbent_updates);
  GPUHMS_GAUGE_SET("search.bnb_gap_bp",
                   static_cast<std::int64_t>(res.optimality_gap * 1e4));
  record_search_metrics(watch, res.evaluated, 0, res.deadline_hit,
                        res.cancelled);
  return res;
}

// Assigns arrays level by level, keeping the options.beam_width best partial
// assignments, each scored by a full prediction of its rollout; honors the
// stop watch between levels.
SearchResult search_beam(const Predictor& predictor,
                         const SearchOptions& options) {
  GPUHMS_SCOPED_PHASE("search.beam_ns");
  const StopWatch watch(options);
  Evaluator eval(predictor, options);
  const BnbContext ctx = make_bnb_context(&eval);
  const KernelInfo& k = predictor.kernel();
  const std::size_t n = k.arrays.size();
  const std::size_t width = std::max<std::size_t>(1, options.beam_width);

  SearchResult res;
  Incumbent inc;
  greedy_seed(ctx, &inc, &res.evaluated);

  struct BeamNode {
    DataPlacement partial;       // arrays order[0..depth) pinned
    DataPlacement completion;    // scored rollout of the prefix
    double cycles = 0.0;
    std::size_t const_bytes = 0;
    std::size_t shared_bytes = 0;
  };
  std::vector<BeamNode> beam(1);
  beam[0].partial =
      DataPlacement(std::vector<MemSpace>(n, MemSpace::Global));

  for (std::size_t depth = 0; depth < n; ++depth) {
    if (watch.should_stop(&res.deadline_hit, &res.cancelled)) break;
    const int array = ctx.order[depth];
    const auto a = static_cast<std::size_t>(array);
    const ArrayDecl& decl = k.arrays[a];
    std::vector<BeamNode> candidates;
    for (const BeamNode& node : beam) {
      for (MemSpace s : ctx.bounder.relaxed_spaces(a)) {
        BeamNode c;
        c.const_bytes = node.const_bytes +
                        (s == MemSpace::Constant ? decl.bytes() : 0);
        c.shared_bytes =
            node.shared_bytes +
            (s == MemSpace::Shared ? decl.shared_slice_bytes() : 0);
        if (c.const_bytes > ctx.arch->constant_capacity ||
            c.shared_bytes > ctx.arch->shared_capacity)
          continue;
        c.partial = node.partial.with(array, s);
        c.completion = complete_with_sample(ctx, c.partial, depth + 1,
                                            c.const_bytes, c.shared_bytes);
        candidates.push_back(std::move(c));
      }
    }
    eval.pool.parallel_for(candidates.size(), [&](int worker, std::size_t j) {
      candidates[j].cycles = eval.cycles(worker, candidates[j].completion);
    });
    res.evaluated += candidates.size();
    for (const BeamNode& c : candidates) inc.offer(c.completion, c.cycles);
    std::sort(candidates.begin(), candidates.end(),
              [](const BeamNode& x, const BeamNode& y) {
                if (x.cycles != y.cycles) return x.cycles < y.cycles;
                return enum_order_less(x.completion, y.completion);
              });
    if (candidates.size() > width) candidates.resize(width);
    beam = std::move(candidates);
    if (beam.empty()) break;  // unreachable: all-Global always extends
  }

  res.placement = inc.placement;
  res.predicted_cycles = inc.cycles;
  res.incumbent_updates = inc.updates;
  // The only certificate a heuristic beam can give: the root bound over the
  // whole space. Loose, but >= 0 and sound.
  res.lower_bound =
      ctx.bounder.bound_cycles(ctx.bounder.root_addr_insts());
  res.optimality_gap =
      inc.cycles > 0.0 ? (inc.cycles - res.lower_bound) / inc.cycles : 0.0;
  record_search_metrics(watch, res.evaluated, 0, res.deadline_hit,
                        res.cancelled);
  return res;
}

std::string_view to_string(SearchAlgo algo) {
  switch (algo) {
    case SearchAlgo::kExhaustive: return "exhaustive";
    case SearchAlgo::kBnb: return "bnb";
    case SearchAlgo::kBeam: return "beam";
  }
  return "?";
}

StatusOr<SearchAlgo> parse_search_algo(std::string_view name) {
  if (name == "exhaustive") return SearchAlgo::kExhaustive;
  if (name == "bnb") return SearchAlgo::kBnb;
  if (name == "beam") return SearchAlgo::kBeam;
  return InvalidArgumentError("unknown search algorithm '" +
                              std::string(name) +
                              "': expected bnb, exhaustive, or beam");
}

StatusOr<SearchResult> try_search(const Predictor& predictor, SearchAlgo algo,
                                  const SearchOptions& options) {
  switch (algo) {
    case SearchAlgo::kExhaustive:
      return guarded_search(
          predictor, "searching", [&]() -> StatusOr<SearchResult> {
            const KernelInfo& k = predictor.kernel();
            const PlacementSpace space =
                enumerate_placement_space(k, predictor.arch(), options.cap);
            if (space.placements.empty())
              return InvalidArgumentError(
                  "kernel '" + k.name +
                  "' admits no legal placement under cap " +
                  std::to_string(options.cap));
            return exhaustive_over(predictor, options, space);
          });
    case SearchAlgo::kBnb:
      return guarded_search(predictor, "branch-and-bound searching",
                            [&]() -> StatusOr<SearchResult> {
                              return search_branch_and_bound(predictor,
                                                             options);
                            });
    case SearchAlgo::kBeam:
      return guarded_search(predictor, "beam-searching",
                            [&]() -> StatusOr<SearchResult> {
                              return search_beam(predictor, options);
                            });
  }
  return InvalidArgumentError("unknown SearchAlgo value " +
                              std::to_string(static_cast<int>(algo)));
}

OracleResult search_oracle(const KernelInfo& kernel, const GpuArch& arch,
                           const SearchOptions& options) {
  const PlacementSpace space =
      enumerate_placement_space(kernel, arch, options.cap);
  GPUHMS_CHECK(!space.placements.empty());
  GPUHMS_SCOPED_PHASE("search.oracle_ns");
  const StopWatch watch(options);

  ThreadPool local_pool(options.pool ? 1 : options.num_threads);
  ThreadPool& pool = options.pool ? *options.pool : local_pool;
  // Every candidate is simulated from one recording of the kernel function.
  const TraceSkeleton skeleton(kernel);

  OracleResult r;
  r.space_truncated = space.truncated;
  r.space_skipped = space.skipped_combinations;
  const std::size_t n = space.placements.size();
  std::vector<std::uint64_t> cycles(std::min(n, kChunk));

  for (std::size_t c0 = 0; c0 < n; c0 += kChunk) {
    if (watch.should_stop(&r.deadline_hit, &r.cancelled)) {
      if (r.simulated == 0) {
        const std::uint64_t c =
            simulate(kernel, space.placements[0], arch, &skeleton).cycles;
        r.best = r.worst = space.placements[0];
        r.best_cycles = r.worst_cycles = c;
        r.simulated = 1;
        r.not_simulated = n - 1;
      } else {
        r.not_simulated = n - c0;
      }
      record_search_metrics(watch, r.simulated, r.not_simulated,
                            r.deadline_hit, r.cancelled);
      return r;
    }
    const std::size_t c1 = std::min(n, c0 + kChunk);
    pool.parallel_for(c1 - c0, [&](int, std::size_t j) {
      cycles[j] =
          simulate(kernel, space.placements[c0 + j], arch, &skeleton).cycles;
    });
    for (std::size_t j = 0; j < c1 - c0; ++j) {
      const std::size_t i = c0 + j;
      ++r.simulated;
      if (i == 0 || cycles[j] < r.best_cycles) {
        r.best = space.placements[i];
        r.best_cycles = cycles[j];
      }
      if (i == 0 || cycles[j] > r.worst_cycles) {
        r.worst = space.placements[i];
        r.worst_cycles = cycles[j];
      }
    }
  }
  record_search_metrics(watch, r.simulated, r.not_simulated,
                        r.deadline_hit, r.cancelled);
  return r;
}

}  // namespace gpuhms
