// The one conversion from a millisecond knob to a steady_clock duration.
// A plain std::chrono conversion overflows int64 nanoseconds past ~9.2e12
// ms and wraps a far-future deadline into an already-expired one.
#pragma once

#include <chrono>
#include <cstdint>
#include <optional>

namespace gpuhms {

// `ms` as a steady_clock duration, or nullopt — no deadline — when it lies
// beyond half the clock's range (about 146 years). The margin keeps
// steady_clock::now() + the result from overflowing too. Every millisecond
// deadline the program reads (a serve search's "deadline_ms", --watchdog-ms,
// --drain-timeout-ms, placement_advisor's --deadline-ms) goes through here.
inline std::optional<std::chrono::steady_clock::duration> deadline_from_ms(
    std::uint64_t ms) {
  using Duration = std::chrono::steady_clock::duration;
  constexpr auto kMaxMs =
      std::chrono::duration_cast<std::chrono::milliseconds>(Duration::max() / 2)
          .count();
  if (ms > static_cast<std::uint64_t>(kMaxMs)) return std::nullopt;
  return std::chrono::duration_cast<Duration>(
      std::chrono::milliseconds(static_cast<std::int64_t>(ms)));
}

}  // namespace gpuhms
