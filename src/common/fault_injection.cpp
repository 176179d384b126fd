#include "common/fault_injection.hpp"

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <mutex>
#include <vector>

namespace gpuhms::fault {

namespace {

struct Site {
  std::uint64_t nth = 0;   // fire when hits reaches this (0 = disarmed)
  std::uint64_t hits = 0;
  bool fired = false;
};

struct Registry {
  std::mutex mu;
  std::map<std::string, Site, std::less<>> sites;
  // Number of armed-and-not-yet-fired sites; mirrored into `any_armed` so
  // GPUHMS_FAULT_POINT is one relaxed load when nothing is armed.
  int armed_count = 0;
  std::atomic<bool> any_armed{false};

  void recount_locked() {
    armed_count = 0;
    for (const auto& [name, s] : sites)
      if (s.nth != 0 && !s.fired) ++armed_count;
    any_armed.store(armed_count > 0, std::memory_order_relaxed);
  }
};

Registry& registry() {
  static Registry* r = new Registry;  // leaked: sites may fire during exit
  return *r;
}

std::once_flag env_once;

void parse_env() {
  if (const char* env = std::getenv("GPUHMS_FAULT")) {
    if (!arm_from_spec(env))
      std::fprintf(stderr,
                   "gpuhms: ignoring malformed GPUHMS_FAULT='%s' "
                   "(expected <site>:<nth>[,<site>:<nth>...])\n",
                   env);
  }
}

}  // namespace

void arm(std::string_view site, std::uint64_t nth) {
  Registry& r = registry();
  std::lock_guard<std::mutex> lk(r.mu);
  Site& s = r.sites[std::string(site)];
  s.nth = nth == 0 ? 1 : nth;
  s.hits = 0;
  s.fired = false;
  r.recount_locked();
}

void disarm(std::string_view site) {
  Registry& r = registry();
  std::lock_guard<std::mutex> lk(r.mu);
  if (auto it = r.sites.find(site); it != r.sites.end()) {
    r.sites.erase(it);
    r.recount_locked();
  }
}

void disarm_all() {
  Registry& r = registry();
  std::lock_guard<std::mutex> lk(r.mu);
  r.sites.clear();
  r.recount_locked();
}

std::uint64_t hits(std::string_view site) {
  Registry& r = registry();
  std::lock_guard<std::mutex> lk(r.mu);
  const auto it = r.sites.find(site);
  return it == r.sites.end() ? 0 : it->second.hits;
}

bool enabled() {
  std::call_once(env_once, parse_env);
  return registry().any_armed.load(std::memory_order_relaxed);
}

bool should_fire(std::string_view site) {
  Registry& r = registry();
  std::lock_guard<std::mutex> lk(r.mu);
  const auto it = r.sites.find(site);
  if (it == r.sites.end()) return false;
  Site& s = it->second;
  if (s.nth == 0 || s.fired) return false;
  ++s.hits;
  if (s.hits != s.nth) return false;
  s.fired = true;
  r.recount_locked();
  return true;
}

std::span<const std::string_view> known_sites() {
  // tests/check_docs.py holds the header comment's and README's site lists
  // to this array; the chaos harness cross-checks it against its per-site
  // scenario table.
  static constexpr std::string_view kSites[] = {
      "trace.lower", "queuing.nan",  "queuing.saturate", "pool.task",
      "serve.parse", "serve.accept",
  };
  return kSites;
}

bool arm_from_spec(std::string_view spec) {
  // Validate the whole spec before arming anything: a half-armed malformed
  // spec would fire an unpredictable subset.
  struct Parsed {
    std::string site;
    std::uint64_t nth;
  };
  std::vector<Parsed> parsed;
  std::size_t pos = 0;
  while (pos <= spec.size()) {
    const std::size_t comma = spec.find(',', pos);
    const std::string_view entry = spec.substr(
        pos, comma == std::string_view::npos ? spec.size() - pos : comma - pos);
    const std::size_t colon = entry.rfind(':');
    if (colon == std::string_view::npos || colon == 0 ||
        colon + 1 == entry.size())
      return false;
    const std::string_view site = entry.substr(0, colon);
    const std::string_view num = entry.substr(colon + 1);
    std::uint64_t nth = 0;
    for (char c : num) {
      if (c < '0' || c > '9') return false;
      nth = nth * 10 + static_cast<std::uint64_t>(c - '0');
    }
    if (nth == 0) return false;
    parsed.push_back({std::string(site), nth});
    if (comma == std::string_view::npos) break;
    pos = comma + 1;
  }
  if (parsed.empty()) return false;
  for (const Parsed& p : parsed) arm(p.site, p.nth);
  return true;
}

}  // namespace gpuhms::fault
