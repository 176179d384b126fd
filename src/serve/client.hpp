// A retrying client for the gpuhms_serve protocol.
//
// The service's drain/shed semantics (serve/service.hpp) make rejections
// RETRYABLE: an UNAVAILABLE (draining instance, injected serve.accept shed)
// or RESOURCE_EXHAUSTED (over max_inflight / max_batch) response means "try
// again", and the idempotency fingerprint the client stamps on every request
// makes retries safe — a request that already executed replays its original
// response bytes instead of running twice. This header packages that retry
// loop once; its callers are the protocol tests (test_serve) and the chaos
// harness (test_chaos).
//
// The transport is a plain callable (one request line in, one response line
// out) so the client works over any byte stream — an in-process
// PredictionService, a socket, or a fault-injecting test shim. Backoff
// sleeping is injectable for deterministic tests.
#pragma once

#include <cstdint>
#include <functional>
#include <string>

#include "common/status.hpp"
#include "serve/json.hpp"

namespace gpuhms::serve {

struct ClientOptions {
  // Total tries (first attempt + retries). 1 disables retrying.
  int max_attempts = 4;
  // Exponential backoff between attempts: initial * multiplier^k, capped.
  std::uint64_t backoff_initial_ms = 5;
  double backoff_multiplier = 2.0;
  std::uint64_t backoff_cap_ms = 250;
  // Stamp requests lacking an "idem" field with a fingerprint of their
  // content, so a retry of an executed request replays instead of re-running.
  bool add_idempotency_key = true;
  // Backoff sleeper; tests inject a recorder to assert the schedule without
  // wall-clock waits. Defaults to std::this_thread::sleep_for.
  std::function<void(std::uint64_t /*ms*/)> sleeper;
};

class Client {
 public:
  // One request line -> one response line (no trailing newlines). A non-OK
  // Status models a transport failure (connection refused/reset), which is
  // always retryable: the idempotency key guarantees at-most-once execution
  // even when the failure hit after the server did the work.
  using Transport = std::function<StatusOr<std::string>(const std::string&)>;

  explicit Client(Transport transport, ClientOptions options = {});

  // Sends `request` (adding an idempotency key per options), retrying on
  // transport errors and on UNAVAILABLE / RESOURCE_EXHAUSTED responses with
  // exponential backoff. Returns the final response line on success; after
  // max_attempts exhausted, the last transport error or an UnavailableError
  // describing the last rejection.
  StatusOr<std::string> call(const Json& request);

  // Convenience: parse-validating wrapper; DATA_LOSS if the response line is
  // not a JSON object.
  StatusOr<Json> call_json(const Json& request);

  // The deterministic idempotency fingerprint `call` stamps: hex FNV-1a of
  // the request's serialized bytes (excluding any existing idem field).
  static std::string idempotency_key(const Json& request);

  // Observability for tests/bench.
  std::uint64_t attempts() const { return attempts_; }
  std::uint64_t retries() const { return retries_; }

 private:
  Transport transport_;
  ClientOptions options_;
  std::uint64_t attempts_ = 0;
  std::uint64_t retries_ = 0;
};

}  // namespace gpuhms::serve
