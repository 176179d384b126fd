// The provenance stamp every BENCH_*.json writer puts at the top of its
// record: the commit, compiler, build type and host the numbers came from,
// so a reader can tell a regression from a different machine or build. The
// fields are hmsbench's stamp fields (commit, compiler, build, nproc), with
// the 1-minute load average as a number (hmsbench keeps the whole
// /proc/loadavg line).
#pragma once

#include <cstdio>
#include <cstdlib>
#include <string>

#include <unistd.h>

#include "serve/json.hpp"

#ifndef GPUHMS_BENCH_BUILD
#define GPUHMS_BENCH_BUILD "unknown"
#endif

namespace gpuhms::bench {

// `git rev-parse HEAD` in the working directory, or "unknown" when that
// fails (no git, not a checkout).
inline std::string git_commit() {
  std::FILE* p = ::popen("git rev-parse HEAD 2>/dev/null", "r");
  if (p == nullptr) return "unknown";
  char buf[64] = {};
  const bool read = std::fgets(buf, sizeof buf, p) != nullptr;
  const int status = ::pclose(p);
  std::string sha = read ? buf : "";
  while (!sha.empty() && (sha.back() == '\n' || sha.back() == '\r'))
    sha.pop_back();
  return status == 0 && !sha.empty() ? sha : "unknown";
}

// Writes `  "stamp": {...},\n`: a member line for a record whose opening
// brace is already written.
inline void write_stamp(std::FILE* json) {
  double load = -1;  // -1: the load average could not be read
  ::getloadavg(&load, 1);
  std::fprintf(json,
               "  \"stamp\": {\"commit\": %s, \"compiler\": %s, "
               "\"build\": %s, \"nproc\": %ld, \"loadavg_1m\": %.2f},\n",
               serve::json_quote(git_commit()).c_str(),
               serve::json_quote(__VERSION__).c_str(),
               serve::json_quote(GPUHMS_BENCH_BUILD).c_str(),
               ::sysconf(_SC_NPROCESSORS_ONLN), load);
}

}  // namespace gpuhms::bench
