// Durable checkpoint/resume for branch-and-bound placement search.
//
// Binds the in-memory BnbCheckpoint bridge (model/search.hpp) to the
// crash-consistent record journal (common/journal.hpp): a journaled search
// periodically appends its snapshot — incumbent, frontier consumed-child
// counts (from which the certified bounds rebuild), and the evaluated-chunk
// watermark — and try_resume_branch_and_bound restores the latest one after
// a crash. Guarantees (locked by tests/test_search_resume.cpp and the chaos
// harness):
//
//   * A journaled run returns a SearchResult bit-identical to an
//     un-journaled run (snapshots read state, never change it).
//   * A run killed at ANY byte of the journal (the on-disk state after
//     SIGKILL is always a prefix of the appended bytes — see
//     common/journal.hpp) resumes and completes to a SearchResult
//     bit-identical to an uninterrupted run, at any GPUHMS_THREADS.
//   * The certified lower bound recoverable from successive checkpoints is
//     monotone non-decreasing: lb = min(incumbent, frontier bounds), the
//     frontier minimum only rises as children replace their parents, and the
//     incumbent never drops below the optimum.
//   * A torn or corrupted tail record is detected by its checksum, logged,
//     and truncated away — the search resumes from the previous checkpoint;
//     never UB, never a lost journal.
//   * A journal written by a DIFFERENT search (kernel, any arch field, model
//     options, sample) is refused with FAILED_PRECONDITION via a binding
//     fingerprint in the journal header.
//
// Record grammar (inside common/journal.hpp's checksummed framing):
//   'H' header      — format version, binding fingerprint
//   'C' checkpoint  — serialized BnbCheckpoint (doubles as bit patterns)
//   'F' final       — the complete SearchResult of a finished search; a
//                     journal ending in 'F' short-circuits resume entirely.
#pragma once

#include <cstdint>
#include <string>

#include "model/search.hpp"

namespace gpuhms {

// What the resume found in the journal — observability for CLI surfaces
// (placement_advisor --resume) and the chaos harness.
struct ResumeInfo {
  bool resumed = false;           // a mid-search checkpoint was restored
  bool already_complete = false;  // the journal carried a final result
  bool tail_truncated = false;    // a torn/corrupt tail record was dropped
  // A checkpoint append failed mid-run (e.g. disk full, injected
  // journal.write fault). The search itself completed — checkpoint
  // durability degraded, correctness did not — but callers that asked for a
  // journal should surface this loudly (placement_advisor exits nonzero).
  bool journal_write_failed = false;
  std::string journal_write_error;
  std::uint64_t checkpoints_read = 0;     // valid 'C' records in the journal
  std::uint64_t checkpoints_written = 0;  // 'C' records appended by this run
  std::uint64_t resumed_visits = 0;       // node-visit watermark restored
};

// The 64-bit digest binding a journal to one search: the predictor's kernel,
// arch and model-options fingerprints (model/predictor.hpp) and its sample
// placement. No SearchOptions field changes what a finished walk computes —
// thread count, deadline and checkpoint cadence may differ on resume and the
// result is still bit-identical on completion.
std::uint64_t search_journal_fingerprint(const Predictor& predictor);

// Runs — or resumes — a branch-and-bound search journaled at `journal_path`:
//   * no journal there     -> fresh search, checkpointing into a new journal
//                             (created atomically: tmp write + rename);
//   * mid-search journal   -> the latest valid checkpoint is restored and
//                             the walk continues from it, appending;
//   * completed journal    -> the stored SearchResult is decoded and
//                             returned verbatim, no model work at all.
// A torn/corrupted tail is truncated (one-line stderr log, never an error);
// checkpoint-append failures degrade to an un-journaled search (see
// ResumeInfo::journal_write_failed). Error contract on top of
// try_search(..., SearchAlgo::kBnb, ...):
//   * FAILED_PRECONDITION  — the journal belongs to a different search or
//                            format version;
//   * DATA_LOSS            — the file is not a journal, is unreadable, or
//                            holds an undecodable (checksum-valid) record;
//   * INVALID_ARGUMENT     — a decoded checkpoint does not structurally fit
//                            this kernel (CheckpointMismatch).
// Deadline/cancel stops are OK results (with a stop-point checkpoint
// appended, so the next resume continues exactly there); the final 'F'
// record is only written for runs that finished their walk.
StatusOr<SearchResult> try_resume_branch_and_bound(
    const Predictor& predictor, const SearchOptions& options,
    const std::string& journal_path, ResumeInfo* info = nullptr);

}  // namespace gpuhms
