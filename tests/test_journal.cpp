// Crash-consistent record journal: round-trip, the prefix-after-crash
// property (every byte truncation of a valid journal reads back as a clean
// prefix, never UB or a propagated error), atomic creation, torn-tail
// repair via open_for_append, and both journal.* fault sites.
#include "common/journal.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include <unistd.h>

#include "common/fault_injection.hpp"

namespace gpuhms {
namespace {

class Journal : public ::testing::Test {
 protected:
  void SetUp() override {
    // Per process: the sanitizer binaries compile this file too, and ctest
    // runs them side by side.
    path_ = ::testing::TempDir() + "journal_test_" +
            std::to_string(::getpid()) + "_" +
            ::testing::UnitTest::GetInstance()->current_test_info()->name() +
            ".jnl";
    std::remove(path_.c_str());
    std::remove((path_ + ".tmp").c_str());
  }
  void TearDown() override {
    fault::disarm_all();
    std::remove(path_.c_str());
    std::remove((path_ + ".tmp").c_str());
  }

  std::string read_bytes() const {
    std::ifstream in(path_, std::ios::binary);
    return std::string(std::istreambuf_iterator<char>(in), {});
  }
  void write_bytes(const std::string& bytes) const {
    std::ofstream out(path_, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  }

  std::string path_;
};

TEST_F(Journal, RoundTripsRecordsInOrder) {
  const std::vector<std::string> payloads = {
      "first", std::string("\x00\x01\xff binary \n", 12), "", "last"};
  {
    auto w = journal::Writer::create(path_);
    ASSERT_TRUE(w.ok()) << w.status().to_string();
    for (const std::string& p : payloads)
      ASSERT_TRUE(w->append(p).ok());
  }
  const auto r = journal::read_records(path_);
  ASSERT_TRUE(r.ok()) << r.status().to_string();
  EXPECT_FALSE(r->tail_truncated);
  EXPECT_EQ(r->records, payloads);
  EXPECT_EQ(r->valid_bytes, read_bytes().size());
}

TEST_F(Journal, CreateIsAtomicNoTmpFileLeftAndExistingFileReplaced) {
  write_bytes("previous contents, not a journal");
  {
    auto w = journal::Writer::create(path_);
    ASSERT_TRUE(w.ok());
    ASSERT_TRUE(w->append("fresh").ok());
  }
  EXPECT_FALSE(journal::exists(path_ + ".tmp"));
  const auto r = journal::read_records(path_);
  ASSERT_TRUE(r.ok());
  ASSERT_EQ(r->records.size(), 1u);
  EXPECT_EQ(r->records[0], "fresh");
}

// The crash model: a SIGKILL mid-append leaves a byte prefix of the file.
// EVERY prefix length must read back as some clean record prefix — shorter
// prefixes lose the tail record (tail_truncated when partially present),
// none are errors, none crash.
TEST_F(Journal, EveryByteTruncationReadsBackAsACleanPrefix) {
  {
    auto w = journal::Writer::create(path_);
    ASSERT_TRUE(w.ok());
    ASSERT_TRUE(w->append("record-one").ok());
    ASSERT_TRUE(w->append("record-two-longer").ok());
    ASSERT_TRUE(w->append("r3").ok());
  }
  const std::string full = read_bytes();
  const std::size_t magic = journal::kMagic.size();
  std::size_t prev_count = 0;
  for (std::size_t cut = magic; cut <= full.size(); ++cut) {
    SCOPED_TRACE(cut);
    write_bytes(full.substr(0, cut));
    const auto r = journal::read_records(path_);
    ASSERT_TRUE(r.ok()) << r.status().to_string();
    EXPECT_LE(r->records.size(), 3u);
    EXPECT_GE(r->records.size(), prev_count);  // monotone in prefix length
    prev_count = r->records.size();
    EXPECT_LE(r->valid_bytes, cut);
    // Extra bytes past the valid prefix <=> a torn tail was reported.
    EXPECT_EQ(r->tail_truncated, r->valid_bytes != cut);
  }
  EXPECT_EQ(prev_count, 3u);  // the untruncated journal reads every record
}

TEST_F(Journal, TruncationBelowMagicIsDataLossNotACrash) {
  {
    auto w = journal::Writer::create(path_);
    ASSERT_TRUE(w.ok());
    ASSERT_TRUE(w->append("x").ok());
  }
  const std::string full = read_bytes();
  for (std::size_t cut = 0; cut < journal::kMagic.size(); ++cut) {
    SCOPED_TRACE(cut);
    write_bytes(full.substr(0, cut));
    const auto r = journal::read_records(path_);
    ASSERT_FALSE(r.ok());
    EXPECT_EQ(r.status().code(), StatusCode::kDataLoss);
  }
}

TEST_F(Journal, CorruptedPayloadByteIsDetectedByChecksum) {
  {
    auto w = journal::Writer::create(path_);
    ASSERT_TRUE(w.ok());
    ASSERT_TRUE(w->append("aaaa").ok());
    ASSERT_TRUE(w->append("bbbb").ok());
  }
  std::string bytes = read_bytes();
  bytes.back() ^= 0x5a;  // flip a bit inside the LAST record's payload
  write_bytes(bytes);
  const auto r = journal::read_records(path_);
  ASSERT_TRUE(r.ok()) << r.status().to_string();
  EXPECT_TRUE(r->tail_truncated);
  ASSERT_EQ(r->records.size(), 1u);
  EXPECT_EQ(r->records[0], "aaaa");
  EXPECT_NE(r->tail_error.find("checksum"), std::string::npos)
      << r->tail_error;
}

TEST_F(Journal, OpenForAppendRepairsTornTailAndContinues) {
  {
    auto w = journal::Writer::create(path_);
    ASSERT_TRUE(w.ok());
    ASSERT_TRUE(w->append("keep").ok());
    ASSERT_TRUE(w->append("torn").ok());
  }
  std::string bytes = read_bytes();
  write_bytes(bytes.substr(0, bytes.size() - 2));  // tear the last record
  const auto torn = journal::read_records(path_);
  ASSERT_TRUE(torn.ok());
  ASSERT_TRUE(torn->tail_truncated);
  {
    auto w = journal::Writer::open_for_append(path_, torn->valid_bytes);
    ASSERT_TRUE(w.ok()) << w.status().to_string();
    ASSERT_TRUE(w->append("appended-after-repair").ok());
  }
  const auto r = journal::read_records(path_);
  ASSERT_TRUE(r.ok());
  EXPECT_FALSE(r->tail_truncated);
  EXPECT_EQ(r->records,
            (std::vector<std::string>{"keep", "appended-after-repair"}));
}

TEST_F(Journal, NotAJournalIsDataLoss) {
  write_bytes("definitely not the journal magic bytes");
  const auto r = journal::read_records(path_);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kDataLoss);
}

TEST_F(Journal, AppendAfterCloseIsFailedPrecondition) {
  auto w = journal::Writer::create(path_);
  ASSERT_TRUE(w.ok());
  w->close();
  const Status st = w->append("late");
  ASSERT_FALSE(st.ok());
  EXPECT_EQ(st.code(), StatusCode::kFailedPrecondition);
}

TEST_F(Journal, OversizeRecordRefusedWithoutTouchingTheFile) {
  auto w = journal::Writer::create(path_);
  ASSERT_TRUE(w.ok());
  ASSERT_TRUE(w->append("small").ok());
  const std::string huge(journal::kMaxRecordBytes + 1ull, 'x');
  const Status st = w->append(huge);
  ASSERT_FALSE(st.ok());
  EXPECT_EQ(st.code(), StatusCode::kInvalidArgument);
  w->close();
  const auto r = journal::read_records(path_);
  ASSERT_TRUE(r.ok());
  EXPECT_FALSE(r->tail_truncated);  // the refused append wrote nothing
  EXPECT_EQ(r->records, std::vector<std::string>{"small"});
}

// --- fault sites -------------------------------------------------------------

TEST_F(Journal, WriteFaultFailsTheAppendWithDataLossAndKeepsThePrefix) {
  auto w = journal::Writer::create(path_);
  ASSERT_TRUE(w.ok());
  ASSERT_TRUE(w->append("before").ok());
  fault::arm("journal.write", 1);
  const Status st = w->append("lost");
  ASSERT_FALSE(st.ok());
  EXPECT_EQ(st.code(), StatusCode::kDataLoss);
  EXPECT_NE(st.message().find("journal.write"), std::string::npos);
  // One-shot: the next append lands, and the lost record is simply absent.
  ASSERT_TRUE(w->append("after").ok());
  w->close();
  const auto r = journal::read_records(path_);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->records, (std::vector<std::string>{"before", "after"}));
}

TEST_F(Journal, ReadFaultDrivesTheTornTailPathOnAValidJournal) {
  {
    auto w = journal::Writer::create(path_);
    ASSERT_TRUE(w.ok());
    ASSERT_TRUE(w->append("one").ok());
    ASSERT_TRUE(w->append("two").ok());
  }
  fault::arm("journal.read", 2);  // miscompare the SECOND record's checksum
  const auto faulted = journal::read_records(path_);
  ASSERT_TRUE(faulted.ok()) << faulted.status().to_string();
  EXPECT_TRUE(faulted->tail_truncated);
  EXPECT_EQ(faulted->records, std::vector<std::string>{"one"});
  // One-shot: a clean re-read sees everything.
  const auto clean = journal::read_records(path_);
  ASSERT_TRUE(clean.ok());
  EXPECT_FALSE(clean->tail_truncated);
  EXPECT_EQ(clean->records, (std::vector<std::string>{"one", "two"}));
}

}  // namespace
}  // namespace gpuhms
