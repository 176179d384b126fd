// Structured error propagation for the public API surface.
//
// Policy (see README "Error handling & robustness"): entry points that
// consume *caller-supplied* data — kernels, placements, arch configs, trace
// files, measurements — return Status/StatusOr instead of aborting, with the
// offending entity named in the message and call-site context attached via
// annotate(). GPUHMS_CHECK remains for *internal* invariants only: a failed
// check means the library itself is broken, not the input.
#pragma once

#include <string>
#include <string_view>
#include <utility>
#include <variant>

#include "common/check.hpp"

namespace gpuhms {

enum class StatusCode {
  kOk = 0,
  kInvalidArgument,     // malformed caller input (bad placement, bad config)
  kFailedPrecondition,  // call sequencing (predict before set_sample)
  kResourceExhausted,   // a capacity/cap was exceeded
  kDeadlineExceeded,    // SearchOptions::deadline expired
  kCancelled,           // caller's cancellation token fired
  kInternal,            // invariant violation surfaced non-fatally (e.g. a
                        // worker exception captured by the thread pool)
  kDataLoss,            // I/O truncation or corruption (trace serialization)
  kUnavailable,         // the service is transiently unable to take the
                        // request (draining for shutdown); retrying against
                        // another instance — or later — is expected to work
};

// Stable upper-case names ("INVALID_ARGUMENT") used in messages and logs.
std::string_view to_string(StatusCode code);

class [[nodiscard]] Status {
 public:
  Status() = default;  // OK
  Status(StatusCode code, std::string message)
      : code_(code), message_(std::move(message)) {}

  bool ok() const { return code_ == StatusCode::kOk; }
  StatusCode code() const { return code_; }
  // The root-cause message, without the annotation chain.
  const std::string& message() const { return message_; }
  // Innermost-first context chain, formatted " (while ...; while ...)".
  const std::string& context() const { return context_; }

  // Attaches call-site context, innermost first:
  //   st.annotate("lowering kernel 'matrixmul'").annotate("searching ...")
  // renders as "...: msg (while lowering kernel 'matrixmul'; while
  // searching ...)". No-op on OK.
  Status& annotate(std::string_view what) {
    if (ok() || what.empty()) return *this;
    if (context_.empty())
      context_ = std::string(what);
    else
      context_ += "; while " + std::string(what);
    return *this;
  }

  // "INVALID_ARGUMENT: <message> (while <context chain>)".
  std::string to_string() const;

  bool operator==(const Status& other) const {
    return code_ == other.code_ && message_ == other.message_ &&
           context_ == other.context_;
  }

 private:
  StatusCode code_ = StatusCode::kOk;
  std::string message_;
  std::string context_;
};

inline Status OkStatus() { return Status(); }
Status InvalidArgumentError(std::string message);
Status FailedPreconditionError(std::string message);
Status ResourceExhaustedError(std::string message);
Status DeadlineExceededError(std::string message);
Status CancelledError(std::string message);
Status InternalError(std::string message);
Status DataLossError(std::string message);
Status UnavailableError(std::string message);

// Value-or-error result for the non-aborting API variants. Accessing value()
// on an error is an *internal* invariant violation (the caller must test
// ok() first) and aborts with the carried status message.
template <typename T>
class [[nodiscard]] StatusOr {
 public:
  StatusOr(Status status) : rep_(std::move(status)) {
    GPUHMS_CHECK_MSG(!std::get<Status>(rep_).ok(),
                     "StatusOr constructed from an OK status without a value");
  }
  StatusOr(T value) : rep_(std::move(value)) {}

  bool ok() const { return std::holds_alternative<T>(rep_); }

  // OK when a value is held.
  Status status() const {
    return ok() ? Status() : std::get<Status>(rep_);
  }

  const T& value() const& {
    check_has_value();
    return std::get<T>(rep_);
  }
  T& value() & {
    check_has_value();
    return std::get<T>(rep_);
  }
  T&& value() && {
    check_has_value();
    return std::get<T>(std::move(rep_));
  }

  const T& operator*() const& { return value(); }
  T& operator*() & { return value(); }
  const T* operator->() const { return &value(); }
  T* operator->() { return &value(); }

  template <typename U>
  T value_or(U&& fallback) const& {
    return ok() ? std::get<T>(rep_) : static_cast<T>(std::forward<U>(fallback));
  }

 private:
  void check_has_value() const {
    if (!ok())
      check_failed("StatusOr::value()", __FILE__, __LINE__,
                   std::get<Status>(rep_).to_string().c_str());
  }

  std::variant<Status, T> rep_;
};

}  // namespace gpuhms

// Early-return plumbing for Status-returning functions.
#define GPUHMS_RETURN_IF_ERROR(expr)                  \
  do {                                                \
    ::gpuhms::Status gpuhms_status_ = (expr);         \
    if (!gpuhms_status_.ok()) return gpuhms_status_;  \
  } while (0)

// GPUHMS_ASSIGN_OR_RETURN(auto x, TrySomething()) — moves the value out on
// success, returns the error status otherwise.
#define GPUHMS_ASSIGN_OR_RETURN(lhs, expr)             \
  GPUHMS_ASSIGN_OR_RETURN_IMPL_(                       \
      GPUHMS_STATUS_CONCAT_(gpuhms_statusor_, __LINE__), lhs, expr)
#define GPUHMS_STATUS_CONCAT_INNER_(a, b) a##b
#define GPUHMS_STATUS_CONCAT_(a, b) GPUHMS_STATUS_CONCAT_INNER_(a, b)
#define GPUHMS_ASSIGN_OR_RETURN_IMPL_(tmp, lhs, expr) \
  auto tmp = (expr);                                  \
  if (!tmp.ok()) return tmp.status();                 \
  lhs = std::move(tmp).value()
