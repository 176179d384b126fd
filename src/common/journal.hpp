// Crash-consistent append-only record journal.
//
// The durability substrate of the search checkpoint layer (model/
// search_checkpoint.*): an opaque byte file holding a sequence of
// length-prefixed, FNV-1a-checksummed records. The format and the write
// discipline are chosen so that the on-disk state after a crash (SIGKILL,
// power loss after fsync, torn final write) is ALWAYS either
//
//   * no file at all (creation is tmp-write + atomic rename: the journal
//     becomes visible only with its header already durable), or
//   * a byte prefix of the records appended so far, possibly ending in a
//     torn/corrupted partial record.
//
// read_records() validates every record against its checksum and length,
// returns the valid prefix, and reports — never propagates — a torn tail:
// the caller truncates to `valid_bytes` (a single atomic ftruncate) and
// resumes appending. Corruption is detected and logged, never UB.
//
// Layout:
//   [8-byte magic "GHMSJNL1"]
//   repeated records: [u32 LE payload length][u64 LE FNV-1a(payload)][payload]
//
// Every append is written with one write(2) call and fsync'd before
// returning, so a record either fully precedes a crash or reads as a torn
// tail — there is no state in between that read_records would accept.
//
// Fault sites (common/fault_injection.hpp): "journal.write" fails an append
// with DATA_LOSS before touching the file; "journal.read" corrupts the
// checksum check of one record during read_records, exercising the torn-tail
// path on demand.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.hpp"

namespace gpuhms::journal {

inline constexpr std::string_view kMagic = "GHMSJNL1";
// Sanity bound on a single record; a length prefix above this is corruption,
// not a record we haven't finished reading.
inline constexpr std::uint32_t kMaxRecordBytes = 1u << 28;

// Append handle over one journal file. Move-only; the destructor closes.
class Writer {
 public:
  Writer() = default;
  Writer(Writer&& other) noexcept;
  Writer& operator=(Writer&& other) noexcept;
  Writer(const Writer&) = delete;
  Writer& operator=(const Writer&) = delete;
  ~Writer();

  // Creates a NEW journal at `path` (replacing any existing file) via
  // tmp-write + rename: the magic header is written and fsync'd to
  // `path + ".tmp"`, which is then atomically renamed into place — a crash
  // during creation never leaves a headerless journal visible at `path`.
  static StatusOr<Writer> create(const std::string& path);

  // Opens an existing journal for appending after its valid prefix
  // (read_records().valid_bytes). The file is first truncated to
  // `valid_bytes` — one atomic ftruncate — which repairs a torn tail.
  static StatusOr<Writer> open_for_append(const std::string& path,
                                          std::uint64_t valid_bytes);

  // Appends one checksummed record and fsyncs. DATA_LOSS on I/O failure (or
  // an armed "journal.write" fault); the journal's valid prefix is unchanged
  // on failure as far as read_records is concerned.
  Status append(std::string_view payload);

  const std::string& path() const { return path_; }
  void close();

 private:
  int fd_ = -1;
  std::string path_;
};

struct ReadResult {
  std::vector<std::string> records;  // payloads of every valid record
  // Byte offset just past the last valid record — the append point.
  std::uint64_t valid_bytes = 0;
  // A torn or corrupted tail record was detected and dropped; `tail_error`
  // says what was wrong (for logging).
  bool tail_truncated = false;
  std::string tail_error;
};

// Reads and validates every record of the journal at `path`.
//   * DATA_LOSS when the file cannot be read or does not start with the
//     journal magic (it is not a journal; nothing can be salvaged);
//   * OK with tail_truncated set when the final record is torn or fails its
//     checksum — everything before it is returned and remains usable.
StatusOr<ReadResult> read_records(const std::string& path);

bool exists(const std::string& path);

}  // namespace gpuhms::journal
