// Deterministic fault injection for robustness testing.
//
// A *site* is a named point in library code (GPUHMS_FAULT_POINT("pool.task"))
// that normally evaluates to false at ~zero cost. Arming a site makes its
// Nth execution return true exactly once, letting tests drive rare failure
// paths (worker exceptions, serve errors, queuing saturation)
// deterministically — the same arm always fires at the same hit regardless
// of thread count, because hits are counted under a lock in program order of
// the site's executions.
//
// Two ways to arm:
//   * programmatic: fault::arm("pool.task", 2); ... fault::disarm_all();
//   * environment:  GPUHMS_FAULT=pool.task:2 (comma-separated list;
//     parsed once on first use — intended for driving examples/benches).
//
// Registered sites:
//   trace.lower      — throws InjectedFault while lowering a warp trace
//   queuing.nan      — poisons one bank's inter-arrival stddev with NaN
//   queuing.saturate — poisons one bank to rho >= 1 (zero inter-arrival)
//   pool.task        — throws InjectedFault inside a ThreadPool task body
//   serve.parse      — PredictionService returns an INTERNAL error response
//                      instead of parsing the request line
//   serve.accept     — PredictionService sheds one request at admission with
//                      an UNAVAILABLE error response (a dropped accept)
//
// Every site name MUST also appear in fault::known_sites() below — the chaos
// harness (tests/test_chaos.cpp) enumerates that registry and fails if a
// site has no arming test covering both its fire and no-fire paths.
#pragma once

#include <cstdint>
#include <span>
#include <stdexcept>
#include <string>
#include <string_view>

namespace gpuhms {

// Thrown by throwing sites; derives from std::runtime_error so the generic
// exception capture paths (ThreadPool, try_* APIs) exercise exactly the code
// a real defect would.
class InjectedFault : public std::runtime_error {
 public:
  explicit InjectedFault(const std::string& site)
      : std::runtime_error("injected fault at site '" + site + "'") {}
};

namespace fault {

// Arm `site` to fire on its nth execution from now (1-based; nth == 1 fires
// on the next hit). Re-arming resets the hit counter. Fires exactly once.
void arm(std::string_view site, std::uint64_t nth = 1);
void disarm(std::string_view site);
void disarm_all();  // also clears hit counters

// Executions of `site` observed since it was armed (0 for unarmed sites).
std::uint64_t hits(std::string_view site);

// True iff any site is armed (cheap: one relaxed atomic load). The first
// call parses GPUHMS_FAULT from the environment.
bool enabled();

// Counts a hit of `site` and returns true exactly when the armed Nth hit is
// reached. Call through GPUHMS_FAULT_POINT so disabled builds skip the lock.
bool should_fire(std::string_view site);

// Test hook: parse a GPUHMS_FAULT-style spec ("site:nth,site2:nth2") and arm
// the listed sites. Returns false (arming nothing) on malformed specs, with
// a one-line stderr warning.
bool arm_from_spec(std::string_view spec);

// The central registry of every fault site in the library. Adding a
// GPUHMS_FAULT_POINT without listing it here fails the fault-site
// completeness test in tests/test_chaos.cpp — which is the point: every
// injectable failure must have a test driving both of its paths.
std::span<const std::string_view> known_sites();

}  // namespace fault
}  // namespace gpuhms

// if (GPUHMS_FAULT_POINT("trace.lower")) throw InjectedFault("trace.lower");
#define GPUHMS_FAULT_POINT(site) \
  (::gpuhms::fault::enabled() && ::gpuhms::fault::should_fire(site))
