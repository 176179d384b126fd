// Crash-safe anytime search: try_resume_branch_and_bound must yield the
// SAME certified result as an uninterrupted run — bit-identical placement,
// cycles, counters, and certificate — after a mid-search stop, a torn or
// corrupted journal tail, or a checkpoint-append fault. The crash model is
// byte-prefix truncation (what a SIGKILL between write(2) calls leaves).
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "common/fault_injection.hpp"
#include "common/journal.hpp"
#include "model/search.hpp"
#include "model/search_checkpoint.hpp"
#include "test_util.hpp"
#include "workloads/workloads.hpp"

namespace gpuhms {
namespace {

Predictor profiled_predictor(const KernelInfo& k) {
  Predictor pred(k, kepler_arch());
  pred.profile_sample(DataPlacement::defaults(k));
  return pred;
}

// Every field that encode_result round-trips; a resumed run must agree on
// all of them, not just the argmin.
void expect_same_result(const SearchResult& got, const SearchResult& want) {
  EXPECT_EQ(got.placement, want.placement)
      << "got " << got.placement.to_string() << " want "
      << want.placement.to_string();
  EXPECT_EQ(got.predicted_cycles, want.predicted_cycles);  // bit-for-bit
  EXPECT_EQ(got.evaluated, want.evaluated);
  EXPECT_EQ(got.space_truncated, want.space_truncated);
  EXPECT_EQ(got.space_skipped, want.space_skipped);
  EXPECT_EQ(got.deadline_hit, want.deadline_hit);
  EXPECT_EQ(got.cancelled, want.cancelled);
  EXPECT_EQ(got.not_evaluated, want.not_evaluated);
  EXPECT_EQ(got.lower_bound, want.lower_bound);
  EXPECT_EQ(got.optimality_gap, want.optimality_gap);
  EXPECT_EQ(got.proven_optimal, want.proven_optimal);
  EXPECT_EQ(got.nodes_expanded, want.nodes_expanded);
  EXPECT_EQ(got.pruned_subtrees, want.pruned_subtrees);
  EXPECT_EQ(got.incumbent_updates, want.incumbent_updates);
  EXPECT_EQ(got.beam_fallback, want.beam_fallback);
}

class SearchResume : public ::testing::Test {
 protected:
  void SetUp() override {
    path_ = ::testing::TempDir() + "resume_test_" +
            ::testing::UnitTest::GetInstance()->current_test_info()->name() +
            ".jnl";
    std::remove(path_.c_str());
  }
  void TearDown() override {
    fault::disarm_all();
    std::remove(path_.c_str());
    std::remove((path_ + ".tmp").c_str());
  }

  std::string read_bytes(const std::string& p) const {
    std::ifstream in(p, std::ios::binary);
    return std::string(std::istreambuf_iterator<char>(in), {});
  }
  void write_bytes(const std::string& p, const std::string& bytes) const {
    std::ofstream out(p, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  }

  // Byte offsets at which a record ends (including the post-magic origin);
  // truncating at any of these leaves a clean prefix, truncating a few bytes
  // past one tears the next record.
  static std::vector<std::size_t> record_boundaries(const std::string& bytes) {
    std::vector<std::size_t> ends;
    std::size_t off = journal::kMagic.size();
    ends.push_back(off);
    while (bytes.size() - off >= 12) {
      std::uint32_t len = 0;
      for (int i = 0; i < 4; ++i)
        len |= static_cast<std::uint32_t>(
                   static_cast<unsigned char>(bytes[off + i]))
               << (8 * i);
      if (bytes.size() - off - 12 < len) break;
      off += 12 + len;
      ends.push_back(off);
    }
    return ends;
  }

  std::string path_;
};

SearchOptions small_interval_options() {
  SearchOptions o;
  o.checkpoint_interval = 32;  // force frequent checkpoints on tiny spaces
  return o;
}

// --- journaling is free of observable effect ---------------------------------

TEST_F(SearchResume, JournaledRunMatchesPlainRunOnSeedWorkloads) {
  const std::vector<KernelInfo> kernels = {
      workloads::make_stencil2d(128, 64), workloads::make_vecadd(1 << 12),
      workloads::make_triad(1 << 12), workloads::make_spmv(256, 16),
      workloads::make_bnb_synth(5)};
  for (const KernelInfo& k : kernels) {
    SCOPED_TRACE(k.name);
    std::remove(path_.c_str());
    const Predictor pred = profiled_predictor(k);
    const SearchOptions options = small_interval_options();
    const SearchResult plain = search_branch_and_bound(pred, options);
    ResumeInfo info;
    const auto journaled =
        try_resume_branch_and_bound(pred, options, path_, &info);
    ASSERT_TRUE(journaled.ok()) << journaled.status().to_string();
    expect_same_result(*journaled, plain);
    EXPECT_FALSE(info.resumed);
    EXPECT_FALSE(info.already_complete);
    EXPECT_FALSE(info.journal_write_failed);
    if (k.arrays.size() >= 4) {  // big enough walk to cross the interval
      EXPECT_GT(info.checkpoints_written, 0u);
    }
  }
}

TEST_F(SearchResume, SecondRunOnSealedJournalReturnsResultVerbatim) {
  const KernelInfo kern = workloads::make_bnb_synth(5);
  const Predictor pred = profiled_predictor(kern);
  const SearchOptions options = small_interval_options();
  const auto first = try_resume_branch_and_bound(pred, options, path_);
  ASSERT_TRUE(first.ok());
  ResumeInfo info;
  const auto second = try_resume_branch_and_bound(pred, options, path_, &info);
  ASSERT_TRUE(second.ok()) << second.status().to_string();
  EXPECT_TRUE(info.already_complete);
  EXPECT_FALSE(info.resumed);
  EXPECT_EQ(info.checkpoints_written, 0u);
  expect_same_result(*second, *first);
}

// --- mid-search stop, then resume --------------------------------------------

TEST_F(SearchResume, CancelledRunResumesToTheUninterruptedResult) {
  const KernelInfo kern = workloads::make_bnb_synth(6);
  const Predictor pred = profiled_predictor(kern);
  const SearchOptions options = small_interval_options();
  const SearchResult reference = search_branch_and_bound(pred, options);

  // Leg 1: a watcher thread fires the cancel token as soon as the first
  // periodic checkpoint lands in the journal (appends are fsynced, so the
  // file observably grows), stopping the walk at its next cadence check —
  // a genuine mid-search cancellation with a resumable snapshot on disk.
  std::atomic<bool> stop{false};
  SearchOptions cancelled = options;
  cancelled.cancel = &stop;
  std::thread killer([&] {
    for (;;) {
      if (journal::exists(path_)) {
        const auto rr = journal::read_records(path_);
        if (rr.ok() && rr->records.size() >= 2) break;  // header + one 'C'
      }
      std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
    stop.store(true);
  });
  ResumeInfo info1;
  const auto leg1 =
      try_resume_branch_and_bound(pred, cancelled, path_, &info1);
  killer.join();
  ASSERT_TRUE(leg1.ok()) << leg1.status().to_string();
  ASSERT_TRUE(leg1->cancelled);
  EXPECT_GE(info1.checkpoints_written, 1u);
  EXPECT_LT(leg1->evaluated, reference.evaluated);
  EXPECT_LE(leg1->lower_bound, reference.predicted_cycles);

  // Leg 2: resume without the token and finish.
  ResumeInfo info2;
  const auto leg2 = try_resume_branch_and_bound(pred, options, path_, &info2);
  ASSERT_TRUE(leg2.ok()) << leg2.status().to_string();
  EXPECT_TRUE(info2.resumed);
  EXPECT_FALSE(info2.already_complete);
  EXPECT_GT(info2.resumed_visits, 0u);
  expect_same_result(*leg2, reference);
  // The certificate never regresses across the kill.
  EXPECT_GE(leg2->lower_bound, leg1->lower_bound);
}

// A cancel that fires before the walk's first node leaves nothing resumable
// (only the header is durable) — and that must be safe too: the rerun is a
// fresh, exact run, not an error and not a bogus "already complete".
TEST_F(SearchResume, CancelBeforeFirstCheckpointRerunsFreshAndExact) {
  const KernelInfo kern = workloads::make_bnb_synth(4);
  const Predictor pred = profiled_predictor(kern);
  const SearchOptions options = small_interval_options();
  const SearchResult reference = search_branch_and_bound(pred, options);

  std::atomic<bool> stop{true};  // pre-fired: stops before the root expands
  SearchOptions cancelled = options;
  cancelled.cancel = &stop;
  ResumeInfo info1;
  const auto leg1 =
      try_resume_branch_and_bound(pred, cancelled, path_, &info1);
  ASSERT_TRUE(leg1.ok()) << leg1.status().to_string();
  ASSERT_TRUE(leg1->cancelled);
  EXPECT_EQ(info1.checkpoints_written, 0u);

  ResumeInfo info2;
  const auto leg2 = try_resume_branch_and_bound(pred, options, path_, &info2);
  ASSERT_TRUE(leg2.ok()) << leg2.status().to_string();
  EXPECT_FALSE(info2.resumed);
  EXPECT_FALSE(info2.already_complete);
  expect_same_result(*leg2, reference);
}

// The SIGKILL model: the on-disk journal after a kill is a byte prefix of
// the full journal. Resume from a prefix cut at EVERY record boundary, and
// from torn cuts inside records, must reproduce the reference bit-for-bit.
TEST_F(SearchResume, ResumeFromAnyPrefixReproducesTheResult) {
  const KernelInfo kern = workloads::make_bnb_synth(4);
  const Predictor pred = profiled_predictor(kern);
  const SearchOptions options = small_interval_options();
  const SearchResult reference = search_branch_and_bound(pred, options);
  {
    const auto full = try_resume_branch_and_bound(pred, options, path_);
    ASSERT_TRUE(full.ok());
  }
  const std::string full = read_bytes(path_);
  const std::vector<std::size_t> ends = record_boundaries(full);
  ASSERT_GE(ends.size(), 4u) << "journal too small to exercise resume";

  int resumed_runs = 0;
  for (std::size_t i = 0; i < ends.size(); ++i) {
    for (const std::size_t cut : {ends[i], ends[i] + 5}) {
      if (cut > full.size()) continue;
      SCOPED_TRACE(cut);
      write_bytes(path_, full.substr(0, cut));
      ResumeInfo info;
      const auto r = try_resume_branch_and_bound(pred, options, path_, &info);
      if (!r.ok()) {
        // Only legal below the header record: nothing usable survived, and
        // that is reported, not silently recomputed.
        EXPECT_EQ(r.status().code(), StatusCode::kDataLoss);
        EXPECT_LE(cut, ends[1]);
        continue;
      }
      expect_same_result(*r, reference);
      EXPECT_EQ(info.tail_truncated, cut != ends[i]);
      if (info.resumed) ++resumed_runs;
    }
  }
  EXPECT_GT(resumed_runs, 2);  // the sweep actually exercised warm resumes
}

TEST_F(SearchResume, CorruptedTailIsTruncatedAndResumeStaysExact) {
  const KernelInfo kern = workloads::make_bnb_synth(5);
  const Predictor pred = profiled_predictor(kern);
  const SearchOptions options = small_interval_options();
  const SearchResult reference = search_branch_and_bound(pred, options);
  {
    const auto full = try_resume_branch_and_bound(pred, options, path_);
    ASSERT_TRUE(full.ok());
  }
  std::string bytes = read_bytes(path_);
  bytes.back() ^= 0x40;  // corrupt the sealed final-result record
  write_bytes(path_, bytes);
  ResumeInfo info;
  const auto r = try_resume_branch_and_bound(pred, options, path_, &info);
  ASSERT_TRUE(r.ok()) << r.status().to_string();
  EXPECT_TRUE(info.tail_truncated);
  EXPECT_FALSE(info.already_complete);  // the 'F' record was the casualty
  EXPECT_TRUE(info.resumed);
  expect_same_result(*r, reference);
}

// --- checkpoint-append failure degrades, never corrupts ----------------------

TEST_F(SearchResume, JournalWriteFaultDisablesJournalingButResultIsCorrect) {
  const KernelInfo kern = workloads::make_bnb_synth(5);
  const Predictor pred = profiled_predictor(kern);
  const SearchOptions options = small_interval_options();
  const SearchResult reference = search_branch_and_bound(pred, options);
  fault::arm("journal.write", 2);  // append #1 is the header, #2 a checkpoint
  ResumeInfo info;
  const auto r = try_resume_branch_and_bound(pred, options, path_, &info);
  ASSERT_TRUE(r.ok()) << r.status().to_string();
  expect_same_result(*r, reference);
  EXPECT_TRUE(info.journal_write_failed);
  EXPECT_FALSE(info.journal_write_error.empty());
  EXPECT_EQ(info.checkpoints_written, 0u);
  // The journal was left un-sealed (no 'F' after a failed sink), so a rerun
  // recomputes from scratch instead of trusting a half-written file.
  const auto contents = journal::read_records(path_);
  ASSERT_TRUE(contents.ok());
  for (std::size_t i = 1; i < contents->records.size(); ++i)
    EXPECT_NE(contents->records[i][0], 'F');
}

// --- binding ------------------------------------------------------------------

TEST_F(SearchResume, JournalFromDifferentSearchIsRejected) {
  const KernelInfo vecadd_kern = workloads::make_vecadd(1 << 12);
  const Predictor vecadd = profiled_predictor(vecadd_kern);
  const SearchOptions options = small_interval_options();
  {
    const auto r = try_resume_branch_and_bound(vecadd, options, path_);
    ASSERT_TRUE(r.ok());
  }
  const KernelInfo spmv_kern = workloads::make_spmv(256, 16);
  const Predictor spmv = profiled_predictor(spmv_kern);
  const auto r = try_resume_branch_and_bound(spmv, options, path_);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kFailedPrecondition);
  EXPECT_NE(r.status().message().find("fingerprint"), std::string::npos)
      << r.status().to_string();
}

// A journal of another format version — e.g. one sealed by a build whose
// final-result record had a different layout — is refused up front with a
// message naming both versions, never decoded as if it were current.
TEST_F(SearchResume, JournalWithOtherFormatVersionIsRejected) {
  const KernelInfo k = workloads::make_vecadd(1 << 12);
  const Predictor pred = profiled_predictor(k);
  const SearchOptions options = small_interval_options();
  for (const std::uint32_t version : {1u, 3u}) {
    SCOPED_TRACE(version);
    std::remove(path_.c_str());
    {
      // The header layout every version shares: 'H', u32 version, u64
      // binding fingerprint (little-endian) — here with the right
      // fingerprint, so only the version can be wrong.
      std::string header(1, 'H');
      for (int i = 0; i < 4; ++i)
        header.push_back(static_cast<char>((version >> (8 * i)) & 0xff));
      const std::uint64_t fp = search_journal_fingerprint(pred, options);
      for (int i = 0; i < 8; ++i)
        header.push_back(static_cast<char>((fp >> (8 * i)) & 0xff));
      auto w = journal::Writer::create(path_);
      ASSERT_TRUE(w.ok()) << w.status().to_string();
      ASSERT_TRUE(w->append(header).ok());
    }
    const auto r = try_resume_branch_and_bound(pred, options, path_);
    ASSERT_FALSE(r.ok());
    EXPECT_EQ(r.status().code(), StatusCode::kFailedPrecondition);
    const std::string msg = r.status().message();
    EXPECT_NE(msg.find("format version " + std::to_string(version)),
              std::string::npos)
        << msg;
    EXPECT_NE(msg.find("this build reads 2"), std::string::npos) << msg;
  }
}

TEST_F(SearchResume, UnprofiledPredictorIsRejectedBeforeTouchingTheJournal) {
  const KernelInfo k = workloads::make_vecadd(1 << 12);
  const Predictor pred(k, kepler_arch());  // no profile_sample
  const auto r =
      try_resume_branch_and_bound(pred, small_interval_options(), path_);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kFailedPrecondition);
  EXPECT_FALSE(journal::exists(path_));
}

// --- the anytime certificate across resumes ----------------------------------

// Rebuild prefix journals at every record boundary and ask each one for its
// certified lower bound (resume with a pre-fired cancel = "where was I?").
// The certificate must be monotone non-decreasing in journal progress and
// converge to the sealed result.
TEST_F(SearchResume, CertifiedLowerBoundIsMonotoneAcrossResumePoints) {
  const KernelInfo kern = workloads::make_bnb_synth(5);
  const Predictor pred = profiled_predictor(kern);
  const SearchOptions options = small_interval_options();
  const auto sealed = try_resume_branch_and_bound(pred, options, path_);
  ASSERT_TRUE(sealed.ok());
  const auto contents = journal::read_records(path_);
  ASSERT_TRUE(contents.ok());
  const std::vector<std::string>& records = contents->records;
  ASSERT_GE(records.size(), 4u);

  const std::string prefix_path = path_ + ".prefix";
  double prev_lb = 0.0;
  for (std::size_t count = 1; count <= records.size(); ++count) {
    SCOPED_TRACE(count);
    {
      auto w = journal::Writer::create(prefix_path);
      ASSERT_TRUE(w.ok());
      for (std::size_t i = 0; i < count; ++i)
        ASSERT_TRUE(w->append(records[i]).ok());
    }
    std::atomic<bool> stop{true};
    SearchOptions peek = options;
    peek.cancel = &stop;
    const auto r = try_resume_branch_and_bound(pred, peek, prefix_path);
    ASSERT_TRUE(r.ok()) << r.status().to_string();
    EXPECT_GE(r->lower_bound, prev_lb);
    EXPECT_LE(r->lower_bound, sealed->predicted_cycles);
    prev_lb = r->lower_bound;
  }
  // The last prefix is the whole sealed journal: certificate fully closed.
  EXPECT_EQ(prev_lb, sealed->lower_bound);
  std::remove(prefix_path.c_str());
  std::remove((prefix_path + ".tmp").c_str());
}

// --- thread-count independence -----------------------------------------------

TEST_F(SearchResume, KillAndResumeIsExactAcrossThreadCounts) {
  const KernelInfo k = workloads::make_bnb_synth(6);
  const Predictor pred = profiled_predictor(k);
  const SearchOptions options = small_interval_options();
  const SearchResult reference = [&] {
    testutil::ScopedEnv env("GPUHMS_THREADS", "1");
    return search_branch_and_bound(pred, options);
  }();

  for (const char* threads : {"1", "4", "16"}) {
    SCOPED_TRACE(threads);
    testutil::ScopedEnv env("GPUHMS_THREADS", threads);
    std::remove(path_.c_str());

    // Complete a journaled run under this thread count, then "kill" it by
    // truncating the journal mid-walk — torn 3 bytes into a middle record,
    // so the sealed result is gone and the tail is dirty.
    {
      const auto full = try_resume_branch_and_bound(pred, options, path_);
      ASSERT_TRUE(full.ok()) << full.status().to_string();
    }
    const std::string bytes = read_bytes(path_);
    const std::vector<std::size_t> ends = record_boundaries(bytes);
    ASSERT_GE(ends.size(), 5u) << "journal too small to kill mid-walk";
    write_bytes(path_, bytes.substr(0, ends[ends.size() / 2] + 3));

    ResumeInfo info;
    const auto leg2 = try_resume_branch_and_bound(pred, options, path_, &info);
    ASSERT_TRUE(leg2.ok()) << leg2.status().to_string();
    EXPECT_TRUE(info.tail_truncated);
    EXPECT_TRUE(info.resumed);
    EXPECT_GT(info.resumed_visits, 0u);
    expect_same_result(*leg2, reference);
  }
}

}  // namespace
}  // namespace gpuhms
