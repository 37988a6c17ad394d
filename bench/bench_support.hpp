// Shared plumbing for the figure-reproduction benches: environment-variable
// knobs so CI can shrink runs, and the standard six-protocol sweep setup.
//
// Knobs (all optional):
//   CHARISMA_BENCH_MEASURE   seconds of measured simulation per run (def 12)
//   CHARISMA_BENCH_WARMUP    warmup seconds per run (default 4)
//   CHARISMA_BENCH_REPS      replications per point (default per bench)
//   CHARISMA_BENCH_THREADS   worker threads (default: hardware concurrency)
#pragma once

#include <sys/resource.h>

#include <cstdio>
#include <cstdlib>
#include <ctime>
#include <fstream>
#include <iostream>
#include <limits>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "charisma.hpp"

namespace charisma::bench {

/// Integer knob through KeyValueConfig::parse_count, so population knobs
/// accept magnitude suffixes (CHARISMA_BENCH_WORLD_USERS=250k / 1M) and
/// anything else after the number throws naming the knob.
inline long long env_count(const char* name, long long fallback) {
  const char* v = std::getenv(name);
  return v != nullptr ? common::KeyValueConfig::parse_count(name, v)
                      : fallback;
}

/// env_count narrowed to int (CELLS=1k works; CELLS=3x throws).
inline int env_count_int(const char* name, int fallback) {
  const char* v = std::getenv(name);
  if (v == nullptr) return fallback;
  const long long n = common::KeyValueConfig::parse_count(name, v);
  if (n < std::numeric_limits<int>::min() ||
      n > std::numeric_limits<int>::max()) {
    throw std::invalid_argument(std::string(name) +
                                ": count does not fit in int: " + v);
  }
  return static_cast<int>(n);
}

/// Real-valued knob (durations, activities, radii): a plain decimal
/// ("0.3") passes through unchanged; anything with a trailing suffix goes
/// through parse_count, which accepts k/M magnitudes and rejects anything
/// else naming the knob (so MEASURE=10x or ACTIVITY=O.4 fails loudly).
inline double env_real(const char* name, double fallback) {
  const char* v = std::getenv(name);
  if (v == nullptr) return fallback;
  char* end = nullptr;
  const double d = std::strtod(v, &end);
  if (end != v && *end == '\0') return d;
  return static_cast<double>(common::KeyValueConfig::parse_count(name, v));
}

/// Comma-list knob split into its non-empty entries (trailing and
/// duplicate commas are tolerated); `fallback` when the variable is unset.
inline std::vector<std::string> env_tokens(const char* name,
                                           const std::string& fallback) {
  const char* v = std::getenv(name);
  std::stringstream stream(v != nullptr ? std::string(v) : fallback);
  std::vector<std::string> tokens;
  std::string token;
  while (std::getline(stream, token, ',')) {
    if (!token.empty()) tokens.push_back(token);
  }
  return tokens;
}

/// Comma list of counts: each entry goes through parse_count (k/M
/// suffixes; anything malformed throws naming the knob), so a typo'd list
/// (CELLS=7x) aborts instead of silently running a different sweep.
inline std::vector<unsigned> env_list(const char* name,
                                      const std::string& fallback) {
  std::vector<unsigned> values;
  for (const auto& token : env_tokens(name, fallback)) {
    const long long n = common::KeyValueConfig::parse_count(name, token);
    if (n < 0 || n > std::numeric_limits<unsigned>::max()) {
      throw std::invalid_argument(std::string(name) +
                                  ": list entry out of range: " + token);
    }
    values.push_back(static_cast<unsigned>(n));
  }
  return values;
}

/// One "key=value" entry of a knob list (experiment::parse_knobs), the
/// value printed so that it parses back to the same double.
inline std::string knob(const std::string& key, double value) {
  std::ostringstream out;
  out.precision(std::numeric_limits<double>::max_digits10);
  out << key << '=' << value;
  return out.str();
}

/// Peak resident set of this process so far, in bytes (Linux reports
/// ru_maxrss in kilobytes). Monotone — use current_rss_bytes for deltas.
inline long long peak_rss_bytes() {
  struct rusage usage{};
  if (getrusage(RUSAGE_SELF, &usage) != 0) return 0;
  return static_cast<long long>(usage.ru_maxrss) * 1024;
}

/// Current resident set in bytes via /proc/self/status (0 where absent).
/// Unlike the peak this can fall after frees, so before/after deltas
/// around a world's construction give its footprint.
inline long long current_rss_bytes() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmRSS:", 0) == 0) {
      std::istringstream fields(line.substr(6));
      long long kb = 0;
      fields >> kb;
      return kb * 1024;
    }
  }
  return 0;
}

/// Every bench's main: runs `body` and turns an exception escaping it —
/// a malformed knob (CHARISMA_BENCH_REUSE_CELLS=7x), an unwritable file —
/// into `error: <what>` on stderr and exit status 1, instead of the
/// std::terminate abort an uncaught exception ends in.
template <typename Body>
int guarded_main(Body&& body) {
  try {
    return body();
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << '\n';
    return 1;
  }
}

inline experiment::RunSpec standard_spec(int default_reps = 2) {
  experiment::RunSpec spec;
  spec.warmup_s = env_real("CHARISMA_BENCH_WARMUP", 4.0);
  spec.measure_s = env_real("CHARISMA_BENCH_MEASURE", 12.0);
  spec.replications = env_count_int("CHARISMA_BENCH_REPS", default_reps);
  return spec;
}

inline experiment::ParallelRunner standard_runner() {
  return experiment::ParallelRunner(
      static_cast<unsigned>(env_count_int("CHARISMA_BENCH_THREADS", 0)));
}

inline void print_banner(const std::string& what, const std::string& paper) {
  std::cout << "================================================================\n"
            << what << "\n"
            << "Paper reference: " << paper << "\n"
            << "================================================================\n";
}

/// Appends one measurement to `<dir>/<stem>.json` (dir from
/// CHARISMA_BENCH_JSON_DIR, else the working directory). The file is a
/// schema_version-2 *trajectory*: `{"benchmark": ..., "schema_version": 2,
/// "trajectory": [ <point>, ... ]}` — each bench run appends a point
/// (stamped with UTC time and the short git revision) instead of
/// overwriting, so the committed file records how the numbers moved across
/// revisions. `fields` is the caller's preformatted `"key": value` list,
/// comma-joined, without braces (multi-line entries should indent
/// continuation lines by six spaces to match the point layout). A missing
/// file or an old schema-1 single-object file starts a fresh trajectory.
inline void append_trajectory_point(const std::string& benchmark,
                                    const std::string& stem,
                                    const std::string& fields) {
  const char* dir = std::getenv("CHARISMA_BENCH_JSON_DIR");
  const std::string path =
      (dir != nullptr ? std::string(dir) + "/" : std::string()) + stem +
      ".json";

  char timestamp[32] = "unknown";
  {
    const std::time_t now = std::time(nullptr);
    std::tm tm_utc{};
    if (gmtime_r(&now, &tm_utc) != nullptr) {
      std::strftime(timestamp, sizeof timestamp, "%Y-%m-%dT%H:%M:%SZ",
                    &tm_utc);
    }
  }

  std::string git_rev = "unknown";
  if (std::FILE* pipe = popen("git rev-parse --short HEAD 2>/dev/null", "r")) {
    char buf[64];
    if (std::fgets(buf, sizeof buf, pipe) != nullptr) {
      git_rev.assign(buf);
      while (!git_rev.empty() &&
             (git_rev.back() == '\n' || git_rev.back() == '\r')) {
        git_rev.pop_back();
      }
      if (git_rev.empty()) git_rev = "unknown";
    }
    pclose(pipe);
  }

  const std::string point = "    {\n      \"timestamp\": \"" +
                            std::string(timestamp) +
                            "\",\n      \"git_rev\": \"" + git_rev +
                            "\",\n      " + fields + "\n    }";

  std::string existing;
  {
    std::ifstream in(path);
    if (in) {
      std::ostringstream ss;
      ss << in.rdbuf();
      existing = ss.str();
    }
  }

  std::ofstream out(path, std::ios::trunc);
  if (!out) {
    std::cerr << "could not write " << path << '\n';
    return;
  }
  const auto tail = existing.rfind("\n  ]");
  if (existing.find("\"schema_version\": 2") != std::string::npos &&
      tail != std::string::npos) {
    out << existing.substr(0, tail) << ",\n"
        << point << existing.substr(tail);
  } else {
    out << "{\n  \"benchmark\": \"" << benchmark << "\",\n"
        << "  \"schema_version\": 2,\n  \"trajectory\": [\n"
        << point << "\n  ]\n}\n";
  }
  std::cout << "(appended trajectory point to " << path << ")\n";
}

/// When CHARISMA_BENCH_CSV_DIR is set, also writes the table as
/// `<dir>/<stem>.csv` (for downstream plotting).
inline void maybe_write_csv(const common::TextTable& table,
                            const std::string& stem) {
  const char* dir = std::getenv("CHARISMA_BENCH_CSV_DIR");
  if (dir == nullptr) return;
  const std::string path = std::string(dir) + "/" + stem + ".csv";
  if (table.write_csv(path)) {
    std::cout << "(wrote " << path << ")\n";
  } else {
    std::cerr << "could not write " << path << '\n';
  }
}

}  // namespace charisma::bench
