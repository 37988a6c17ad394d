// The benchmark's three reference workloads, driven through the
// simulator's public entry points only:
//
//   paper_grid        the paper's Fig. 11d panel: six protocols x eight
//                     voice populations, 2 replications, through
//                     experiment::run_sweep / ParallelRunner::run
//   metro_world       a sparse 37-cell hex world in the default modes
//                     (eager channel, mt traffic RNG, band 1200 m)
//   lazy_dense_world  a dense 19-cell hex world in the non-default modes
//                     (lazy channel, compact traffic RNG, band 0)
//
// Each is closed and batch: a fixed simulated horizon (scaled by the
// --seconds budget, never by the host's speed) run to completion. An
// untraced run yields the end-to-end metrics; a traced run adds spans and
// counters around the public calls and yields the per-layer metrics.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "support.hpp"

namespace perfbench {

struct RunOptions {
  std::uint64_t seed = 1;
  int seconds = 10;      ///< budget; fixes the simulated horizon
  bool trace = false;    ///< per-layer (traced) run instead of end-to-end
  unsigned threads = 4;  ///< load-generating threads, min(4, nproc)
};

/// One named output check.
struct Check {
  std::string name;
  bool ok = false;
  std::string detail;
};

struct WorkloadResult {
  std::int64_t attempted = 0;  ///< operations: grid jobs or world epochs
  std::vector<Check> checks;
  JsonObject metrics;  ///< end-to-end (untraced) or per-layer (traced)
  JsonObject model;    ///< simulated statistics, outside the regression set
  JsonObject record;   ///< horizon, sample counts, equivalent command line
  SpanLog spans;

  bool correct() const {
    for (const auto& c : checks) {
      if (!c.ok) return false;
    }
    return !checks.empty();
  }
};

const std::vector<std::string>& workload_names();

/// Runs `workload` (one of workload_names()); throws std::invalid_argument
/// on an unknown name.
WorkloadResult run_workload(const std::string& workload,
                            const RunOptions& options);

/// Known-defect canary: a 7-cell world with channel=lazy and a partial
/// pilot band (band=700), stepped epoch by epoch for up to 1 s. Reports
/// whether the run still fails, at which epoch and with which message.
JsonObject probe_lazy_partial_band(std::uint64_t seed);

}  // namespace perfbench
