#include "model/search_checkpoint.hpp"

#include <cstdio>
#include <cstring>
#include <optional>
#include <utility>
#include <vector>

#include "common/hashing.hpp"
#include "common/journal.hpp"
#include "common/obs.hpp"

namespace gpuhms {

namespace {

constexpr std::uint32_t kJournalVersion = 3;
constexpr char kRecHeader = 'H';
constexpr char kRecCheckpoint = 'C';
constexpr char kRecFinal = 'F';

// --- little-endian payload encoding ------------------------------------------
// The journal layer frames and checksums; this layer only lays out fields in
// a fixed order. Doubles travel as bit patterns so a resumed run compares
// bit-identical to an uninterrupted one.

struct Enc {
  std::string buf;

  void u8(std::uint8_t v) { buf.push_back(static_cast<char>(v)); }
  void u32(std::uint32_t v) {
    for (int i = 0; i < 4; ++i)
      buf.push_back(static_cast<char>((v >> (8 * i)) & 0xff));
  }
  void u64(std::uint64_t v) {
    for (int i = 0; i < 8; ++i)
      buf.push_back(static_cast<char>((v >> (8 * i)) & 0xff));
  }
  void f64(double v) {
    std::uint64_t bits;
    std::memcpy(&bits, &v, sizeof bits);
    u64(bits);
  }
  void spaces(const std::vector<MemSpace>& v) {
    u32(static_cast<std::uint32_t>(v.size()));
    for (MemSpace s : v) u8(static_cast<std::uint8_t>(s));
  }
};

// Bounds-checked reader; every getter reports failure instead of reading
// past the payload, so a checksum-valid but logically corrupt record decodes
// to an error, never UB.
struct Dec {
  std::string_view buf;
  std::size_t off = 0;
  bool failed = false;

  bool need(std::size_t n) {
    if (buf.size() - off < n) {
      failed = true;
      return false;
    }
    return true;
  }
  std::uint8_t u8() {
    if (!need(1)) return 0;
    return static_cast<std::uint8_t>(buf[off++]);
  }
  std::uint32_t u32() {
    if (!need(4)) return 0;
    std::uint32_t v = 0;
    for (int i = 0; i < 4; ++i)
      v |= static_cast<std::uint32_t>(static_cast<unsigned char>(buf[off + i]))
           << (8 * i);
    off += 4;
    return v;
  }
  std::uint64_t u64() {
    if (!need(8)) return 0;
    std::uint64_t v = 0;
    for (int i = 0; i < 8; ++i)
      v |= static_cast<std::uint64_t>(static_cast<unsigned char>(buf[off + i]))
           << (8 * i);
    off += 8;
    return v;
  }
  double f64() {
    const std::uint64_t bits = u64();
    double v;
    std::memcpy(&v, &bits, sizeof v);
    return v;
  }
  std::vector<MemSpace> spaces() {
    const std::uint32_t n = u32();
    std::vector<MemSpace> v;
    if (!need(n)) return v;
    v.reserve(n);
    for (std::uint32_t i = 0; i < n; ++i) {
      const std::uint8_t b = u8();
      if (b >= kAllMemSpaces.size()) {
        failed = true;
        return v;
      }
      v.push_back(static_cast<MemSpace>(b));
    }
    return v;
  }
  bool done() const { return !failed && off == buf.size(); }
};

std::string encode_checkpoint(const BnbCheckpoint& cp) {
  Enc e;
  e.u8(static_cast<std::uint8_t>(kRecCheckpoint));
  e.u8(cp.incumbent_valid ? 1 : 0);
  e.spaces(cp.incumbent);
  e.u64(cp.incumbent_cycles_bits);
  e.u64(cp.incumbent_updates);
  e.u64(cp.evaluated);
  e.u64(cp.nodes_expanded);
  e.u64(cp.pruned_subtrees);
  e.u64(cp.visits);
  e.u32(static_cast<std::uint32_t>(cp.stack_next.size()));
  for (std::uint32_t v : cp.stack_next) e.u32(v);
  e.u32(static_cast<std::uint32_t>(cp.pending.size()));
  for (const auto& p : cp.pending) e.spaces(p);
  return std::move(e.buf);
}

std::optional<BnbCheckpoint> decode_checkpoint(std::string_view payload) {
  Dec d{payload};
  d.u8();  // record type, already dispatched on
  BnbCheckpoint cp;
  cp.incumbent_valid = d.u8() != 0;
  cp.incumbent = d.spaces();
  cp.incumbent_cycles_bits = d.u64();
  cp.incumbent_updates = d.u64();
  cp.evaluated = d.u64();
  cp.nodes_expanded = d.u64();
  cp.pruned_subtrees = d.u64();
  cp.visits = d.u64();
  const std::uint32_t depth = d.u32();
  if (!d.need(static_cast<std::size_t>(depth) * 4)) return std::nullopt;
  cp.stack_next.reserve(depth);
  for (std::uint32_t i = 0; i < depth; ++i) cp.stack_next.push_back(d.u32());
  const std::uint32_t pending = d.u32();
  cp.pending.reserve(std::min<std::uint32_t>(pending, 4096));
  for (std::uint32_t i = 0; i < pending && !d.failed; ++i)
    cp.pending.push_back(d.spaces());
  if (!d.done()) return std::nullopt;
  return cp;
}

std::string encode_result(const SearchResult& r) {
  Enc e;
  e.u8(static_cast<std::uint8_t>(kRecFinal));
  std::vector<MemSpace> placement;
  placement.reserve(r.placement.size());
  for (std::size_t a = 0; a < r.placement.size(); ++a)
    placement.push_back(r.placement.of(static_cast<int>(a)));
  e.spaces(placement);
  e.f64(r.predicted_cycles);
  e.u64(r.evaluated);
  e.u8(r.space_truncated ? 1 : 0);
  e.u64(r.space_skipped);
  e.u8(r.deadline_hit ? 1 : 0);
  e.u8(r.cancelled ? 1 : 0);
  e.u64(r.not_evaluated);
  e.f64(r.lower_bound);
  e.f64(r.optimality_gap);
  e.u8(r.proven_optimal ? 1 : 0);
  e.u64(r.nodes_expanded);
  e.u64(r.pruned_subtrees);
  e.u64(r.incumbent_updates);
  return std::move(e.buf);
}

std::optional<SearchResult> decode_result(std::string_view payload,
                                          std::size_t num_arrays) {
  Dec d{payload};
  d.u8();  // record type
  SearchResult r;
  const std::vector<MemSpace> placement = d.spaces();
  if (d.failed || placement.size() != num_arrays) return std::nullopt;
  r.placement = DataPlacement(placement);
  r.predicted_cycles = d.f64();
  r.evaluated = static_cast<std::size_t>(d.u64());
  r.space_truncated = d.u8() != 0;
  r.space_skipped = d.u64();
  r.deadline_hit = d.u8() != 0;
  r.cancelled = d.u8() != 0;
  r.not_evaluated = static_cast<std::size_t>(d.u64());
  r.lower_bound = d.f64();
  r.optimality_gap = d.f64();
  r.proven_optimal = d.u8() != 0;
  r.nodes_expanded = static_cast<std::size_t>(d.u64());
  r.pruned_subtrees = static_cast<std::size_t>(d.u64());
  r.incumbent_updates = static_cast<std::size_t>(d.u64());
  if (!d.done()) return std::nullopt;
  return r;
}

std::string encode_header(std::uint64_t fingerprint) {
  Enc e;
  e.u8(static_cast<std::uint8_t>(kRecHeader));
  e.u32(kJournalVersion);
  e.u64(fingerprint);
  return std::move(e.buf);
}

// Appends 'C' records; append failures degrade to an un-journaled run (one
// stderr line, then silence) instead of poisoning the search itself —
// checkpoint durability is best-effort, result correctness is not.
class JournalSink : public BnbCheckpointSink {
 public:
  explicit JournalSink(journal::Writer* writer) : writer_(writer) {}

  void on_checkpoint(const BnbCheckpoint& state) override {
    if (failed_) return;
    const Status st = writer_->append(encode_checkpoint(state));
    if (!st.ok()) {
      failed_ = true;
      error_ = st.to_string();
      std::fprintf(stderr,
                   "gpuhms: checkpoint append to '%s' failed, journaling "
                   "disabled for this run: %s\n",
                   writer_->path().c_str(), error_.c_str());
      return;
    }
    ++written_;
  }

  bool failed() const { return failed_; }
  const std::string& error() const { return error_; }
  std::uint64_t written() const { return written_; }

 private:
  journal::Writer* writer_;
  bool failed_ = false;
  std::string error_;
  std::uint64_t written_ = 0;
};

}  // namespace

std::uint64_t search_journal_fingerprint(const Predictor& predictor) {
  Fnv1a h;
  h.mix(fingerprint(predictor.kernel()));
  h.mix(fingerprint(predictor.arch()));
  h.mix(fingerprint(predictor.options()));
  if (predictor.has_sample())
    h.mix(std::string_view(predictor.sample_placement().to_string()));
  return h.digest();
}

StatusOr<SearchResult> try_resume_branch_and_bound(
    const Predictor& predictor, const SearchOptions& options,
    const std::string& journal_path, ResumeInfo* info) {
  ResumeInfo local_info;
  if (info == nullptr) info = &local_info;
  *info = ResumeInfo{};

  const std::string ctx = "resuming branch-and-bound search of kernel '" +
                          predictor.kernel().name + "' from journal '" +
                          journal_path + "'";
  if (!predictor.has_sample())
    return FailedPreconditionError(
               "predictor has no profiled sample; call try_profile_sample or "
               "try_set_sample first")
        .annotate(ctx);

  const std::uint64_t fp = search_journal_fingerprint(predictor);
  const std::size_t num_arrays = predictor.kernel().arrays.size();

  journal::Writer writer;
  std::optional<BnbCheckpoint> resume_state;
  if (journal::exists(journal_path)) {
    GPUHMS_ASSIGN_OR_RETURN(journal::ReadResult contents,
                            [&]() -> StatusOr<journal::ReadResult> {
                              auto r = journal::read_records(journal_path);
                              if (!r.ok()) return r.status().annotate(ctx);
                              return r;
                            }());
    if (contents.tail_truncated) {
      // Detected, logged, truncated — the recovery contract for a torn or
      // corrupted tail. Everything before it stays usable.
      std::fprintf(stderr,
                   "gpuhms: journal '%s': %s; truncating to %llu valid "
                   "bytes\n",
                   journal_path.c_str(), contents.tail_error.c_str(),
                   static_cast<unsigned long long>(contents.valid_bytes));
      info->tail_truncated = true;
    }
    if (contents.records.empty())
      return DataLossError("journal '" + journal_path +
                           "' holds no complete record (missing header)")
          .annotate(ctx);
    {
      Dec d{contents.records.front()};
      if (d.u8() != static_cast<std::uint8_t>(kRecHeader))
        return DataLossError("journal '" + journal_path +
                             "' does not start with a header record")
            .annotate(ctx);
      const std::uint32_t version = d.u32();
      if (version != kJournalVersion)
        return FailedPreconditionError(
                   "journal '" + journal_path + "' has format version " +
                   std::to_string(version) + ", this build reads " +
                   std::to_string(kJournalVersion))
            .annotate(ctx);
      const std::uint64_t bound_fp = d.u64();
      if (!d.done() || bound_fp != fp)
        return FailedPreconditionError(
                   "journal '" + journal_path +
                   "' belongs to a different search (binding fingerprint "
                   "mismatch: kernel, arch, model options or sample "
                   "placement differ)")
            .annotate(ctx);
    }
    for (std::size_t i = 1; i < contents.records.size(); ++i) {
      const std::string& rec = contents.records[i];
      if (rec.empty())
        return DataLossError("journal '" + journal_path +
                             "' holds an empty record")
            .annotate(ctx);
      if (rec[0] == kRecFinal) {
        std::optional<SearchResult> final = decode_result(rec, num_arrays);
        if (!final)
          return DataLossError("journal '" + journal_path +
                               "' holds an undecodable final-result record")
              .annotate(ctx);
        info->already_complete = true;
        info->checkpoints_read = contents.records.size() - 2;
        return *final;
      }
      if (rec[0] == kRecCheckpoint) {
        std::optional<BnbCheckpoint> cp = decode_checkpoint(rec);
        if (!cp)
          return DataLossError("journal '" + journal_path +
                               "' holds an undecodable checkpoint record " +
                               std::to_string(i))
              .annotate(ctx);
        resume_state = std::move(*cp);  // last one wins
        ++info->checkpoints_read;
        continue;
      }
      return DataLossError("journal '" + journal_path +
                           "' holds a record of unknown type " +
                           std::to_string(static_cast<int>(rec[0])))
          .annotate(ctx);
    }
    GPUHMS_ASSIGN_OR_RETURN(
        writer, [&]() -> StatusOr<journal::Writer> {
          auto w = journal::Writer::open_for_append(journal_path,
                                                    contents.valid_bytes);
          if (!w.ok()) return w.status().annotate(ctx);
          return w;
        }());
  } else {
    GPUHMS_ASSIGN_OR_RETURN(writer, [&]() -> StatusOr<journal::Writer> {
      auto w = journal::Writer::create(journal_path);
      if (!w.ok()) return w.status().annotate(ctx);
      return w;
    }());
    GPUHMS_RETURN_IF_ERROR(writer.append(encode_header(fp)).annotate(ctx));
  }

  JournalSink sink(&writer);
  SearchOptions run = options;
  run.checkpoint_sink = &sink;
  run.resume_from = resume_state ? &*resume_state : nullptr;
  if (resume_state) {
    info->resumed = true;
    info->resumed_visits = resume_state->visits;
  }

  GPUHMS_ASSIGN_OR_RETURN(SearchResult result,
                          try_search(predictor, SearchAlgo::kBnb, run));

  // A finished walk is terminal: seal the journal with the full result so
  // the next resume returns it verbatim. Deadline/cancel stops stay open —
  // their stop-point checkpoint is the resume point.
  if (!result.deadline_hit && !result.cancelled && !sink.failed()) {
    const Status st = writer.append(encode_result(result));
    if (!st.ok()) {
      info->journal_write_failed = true;
      info->journal_write_error = st.to_string();
      std::fprintf(stderr,
                   "gpuhms: sealing journal '%s' failed: %s\n",
                   journal_path.c_str(), st.to_string().c_str());
    }
  }
  if (sink.failed()) {
    info->journal_write_failed = true;
    info->journal_write_error = sink.error();
  }
  info->checkpoints_written = sink.written();
  GPUHMS_COUNTER_ADD("search.journal_checkpoints", sink.written());
  return result;
}

}  // namespace gpuhms
