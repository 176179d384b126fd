// Placement search: the optimization layer the paper motivates — the m^n
// placement space is too large to implement-and-measure, so search it with
// the predictor instead. Exhaustive search scores every legal placement;
// branch-and-bound finds the same optimum over the full space by cutting
// subtrees with the admissible PlacementBounder lower bound; greedy
// coordinate descent and beam search are the heuristics. An oracle (simulate
// everything) provides ground truth for evaluating search quality.
//
// The searches fan candidates out over a thread pool and share the kernel's
// placement-independent trace skeleton across all candidates. All of it is
// deterministic: candidates are scored in fixed-size chunks and folded in a
// fixed order with lowest-enumeration-index tie-breaking, so any thread
// count returns bit-identical results.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <optional>
#include <stdexcept>
#include <vector>

#include "common/status.hpp"
#include "common/thread_pool.hpp"
#include "model/predictor.hpp"

namespace gpuhms {

// --- branch-and-bound checkpoint bridge --------------------------------------
// A self-contained snapshot of the branch-and-bound tree walk, captured at a
// node-visit boundary. Deliberately minimal: child lists are NOT stored —
// build_children is deterministic, so the DFS stack reconstructs from the
// per-frame consumed-child counts alone, and the path placement follows from
// each frame's last consumed child. Including the un-flushed leaf buffer
// means snapshots never perturb flush timing: a journaled run, and a run
// resumed from any of its snapshots, both complete to a SearchResult
// bit-identical to an uninterrupted search. Produced/consumed by
// search_branch_and_bound via SearchOptions; serialized by
// model/search_checkpoint.* — callers wanting durability should use
// try_resume_branch_and_bound instead of wiring these directly.
struct BnbCheckpoint {
  // Incumbent (empty placement when !incumbent_valid).
  std::vector<MemSpace> incumbent;
  std::uint64_t incumbent_cycles_bits = 0;  // double bit pattern, bit-exact
  bool incumbent_valid = false;
  std::uint64_t incumbent_updates = 0;
  // Counters (the evaluated-chunk watermark and tree tallies).
  std::uint64_t evaluated = 0;
  std::uint64_t nodes_expanded = 0;
  std::uint64_t pruned_subtrees = 0;
  std::uint64_t visits = 0;  // node-visit count, the checkpoint cadence clock
  // DFS frontier: stack_next[d] = children already consumed at depth d. The
  // frontier bounds (hence the certified lower bound) rebuild from this.
  std::vector<std::uint32_t> stack_next;
  // Leaves buffered but not yet batch-evaluated, in DFS order.
  std::vector<std::vector<MemSpace>> pending;
};

// Receives snapshots during the tree walk (every
// SearchOptions::checkpoint_interval visits and at deadline/cancel stops).
// Called on the search thread; implementations must not re-enter the search.
class BnbCheckpointSink {
 public:
  virtual ~BnbCheckpointSink() = default;
  virtual void on_checkpoint(const BnbCheckpoint& state) = 0;
};

// Thrown by search_branch_and_bound when SearchOptions::resume_from does not
// structurally match the search (different kernel/arch, corrupted snapshot);
// try_search converts it to INVALID_ARGUMENT.
class CheckpointMismatch : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

struct SearchOptions {
  std::size_t cap = 4096;  // bound on the enumerated placement space
  // Worker count for candidate evaluation; 0 picks
  // ThreadPool::default_threads() (the GPUHMS_THREADS env var, else the
  // hardware concurrency). Ignored when `pool` is set.
  int num_threads = 0;
  ThreadPool* pool = nullptr;  // reuse an external pool across searches
  // Wall-clock budget, measured from search entry. When it expires the
  // search stops at the next chunk boundary and returns the best among the
  // candidates already scored, with deadline_hit set. The completed prefix
  // is bit-identical to an uninterrupted run (expiry is only checked at
  // chunk boundaries, never mid-chunk). A zero (already-expired) deadline
  // still scores the first candidate so the result is always a valid,
  // comparable placement.
  std::optional<std::chrono::steady_clock::duration> deadline;
  // Cooperative cancellation: when *cancel reads true the search stops at
  // the next chunk boundary with `cancelled` set, same best-so-far
  // semantics as the deadline. The token outlives the call; the search
  // never writes it.
  const std::atomic<bool>* cancel = nullptr;
  // Beam width for search_beam.
  std::size_t beam_width = 8;
  // --- crash-safe checkpointing (branch-and-bound only) ---------------------
  // When `checkpoint_sink` is set, the tree walk emits a BnbCheckpoint every
  // `checkpoint_interval` node visits (at visit boundaries, so emission never
  // changes what the search computes) and once more when a deadline/cancel
  // stop interrupts the walk. When `resume_from` is set, the walk restores
  // that snapshot instead of starting from the greedy seed, and continues
  // exactly the interrupted computation — same prune decisions, counters,
  // and (on completion) a bit-identical SearchResult. Most callers want
  // try_resume_branch_and_bound (model/search_checkpoint.hpp), which wires
  // both ends to a durable journal.
  BnbCheckpointSink* checkpoint_sink = nullptr;
  std::size_t checkpoint_interval = 1024;
  const BnbCheckpoint* resume_from = nullptr;
};

struct SearchResult {
  DataPlacement placement;
  double predicted_cycles = 0.0;
  std::size_t evaluated = 0;  // placements scored by the full predictor
  // Enumeration cap observability: a capped search is NOT a full search.
  bool space_truncated = false;
  std::uint64_t space_skipped = 0;  // placement combinations never examined
  // Early-stop observability: the search returned best-so-far because the
  // deadline expired / the cancel token fired. `not_evaluated` counts
  // enumerated candidates that were never scored.
  bool deadline_hit = false;
  bool cancelled = false;
  std::size_t not_evaluated = 0;
  // --- Branch-and-bound / beam certification -------------------------------
  // Certified lower bound on the optimum over the FULL legal space (not just
  // the explored part) and the relative optimality gap
  // (predicted_cycles - lower_bound) / predicted_cycles. An exhaustive or
  // capped search leaves these 0; branch-and-bound always sets them (gap 0
  // with proven_optimal when it ran to completion), beam search certifies
  // against the root bound only.
  double lower_bound = 0.0;
  double optimality_gap = 0.0;
  bool proven_optimal = false;
  // Branch-and-bound tree observability.
  std::size_t nodes_expanded = 0;     // interior nodes whose children were built
  std::size_t pruned_subtrees = 0;    // subtrees cut by the admissible bound
  std::size_t incumbent_updates = 0;  // accepted incumbent improvements
};

// The per-algorithm search cores below abort on misuse (a predictor without
// a profiled sample, a kernel with no legal placement); try_search is the one
// Status-returning boundary over them.

// Scores every legal placement (up to options.cap) with the predictor —
// no bound, no pruning: the plain enumerator branch-and-bound is checked
// against.
SearchResult search_exhaustive(const Predictor& predictor,
                               const SearchOptions& options = {});

// Coordinate descent: sweep the arrays repeatedly, moving each to its best
// space with the others fixed, until a full sweep changes nothing (or
// max_sweeps is hit). Evaluates O(n_arrays x n_spaces x sweeps) placements.
SearchResult search_greedy(const Predictor& predictor, int max_sweeps = 4);

// Branch-and-bound over the FULL m^n legal space — `options.cap` is ignored;
// this is the search to reach for when the space outgrows the exhaustive
// enumeration cap. Arrays are assigned one at a time (highest addressing-
// cost spread first) and subtrees are cut with the admissible
// PlacementBounder lower bound, so the returned placement and score are
// bit-identical to search_exhaustive on any space the latter can enumerate
// uncapped — only cheaper. Anytime: a greedy per-array pass seeds a feasible
// incumbent before the tree walk, deadline/cancel stop the walk with
// best-so-far semantics, and the result always carries a certified
// lower_bound / optimality_gap (gap 0 + proven_optimal on completion).
// Deterministic for any num_threads.
SearchResult search_branch_and_bound(const Predictor& predictor,
                                     const SearchOptions& options = {});

// Deterministic beam search: assigns arrays level by level keeping the
// options.beam_width best partial assignments, each scored by a full
// prediction of the prefix completed with the sample placement (clamped to
// capacity). No admissibility requirement on the heuristic — the certificate
// is the (loose) root lower bound. O(n_arrays x beam_width x n_spaces)
// predictions; the heuristic for spaces too large to walk to a proof.
SearchResult search_beam(const Predictor& predictor,
                         const SearchOptions& options = {});

// --- algorithm selection -----------------------------------------------------
// The search engines behind one switch, for surfaces that take the algorithm
// as data (placement_advisor's --search flag, the serve protocol's "algo"
// field). Parsing and dispatch both go through the Status layer so an
// unknown algorithm is a structured INVALID_ARGUMENT, never a silent
// fallback to some default engine.
enum class SearchAlgo { kExhaustive = 0, kBnb, kBeam };

// Stable lower-case names: "exhaustive", "bnb", "beam".
std::string_view to_string(SearchAlgo algo);

// Inverse of to_string; INVALID_ARGUMENT naming the token and listing the
// valid spellings on anything else.
StatusOr<SearchAlgo> parse_search_algo(std::string_view name);

// Runs search_exhaustive / search_branch_and_bound / search_beam without
// aborting; errors are annotated "searching" / "branch-and-bound searching" /
// "beam-searching placements of kernel '<name>'":
//   * FAILED_PRECONDITION when the predictor has no profiled sample,
//   * INVALID_ARGUMENT when the kernel admits no legal placement under the
//     cap (exhaustive; the aborting core GPUHMS_CHECKs this) or a
//     SearchOptions::resume_from checkpoint does not fit the search,
//   * INTERNAL when a worker exception (e.g. an injected trace.lower or
//     pool.task fault) is captured by the thread pool and rethrown — the
//     pool remains usable afterwards.
// Deadline expiry / cancellation are NOT errors: they return OK with
// deadline_hit / cancelled set on the result.
StatusOr<SearchResult> try_search(const Predictor& predictor, SearchAlgo algo,
                                  const SearchOptions& options = {});

struct OracleResult {
  DataPlacement best;
  std::uint64_t best_cycles = 0;
  DataPlacement worst;
  std::uint64_t worst_cycles = 0;
  std::size_t simulated = 0;
  bool space_truncated = false;
  std::uint64_t space_skipped = 0;
  // Early-stop observability (same semantics as SearchResult).
  bool deadline_hit = false;
  bool cancelled = false;
  std::size_t not_simulated = 0;
};

// Ground truth: simulate every legal placement (up to options.cap), spread
// over the thread pool. Expensive — for evaluation harnesses only.
// Honors SearchOptions::deadline / cancel with best-so-far semantics.
OracleResult search_oracle(const KernelInfo& kernel, const GpuArch& arch,
                           const SearchOptions& options = {});

}  // namespace gpuhms
