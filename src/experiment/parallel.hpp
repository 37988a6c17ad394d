// Runs embarrassingly parallel simulation jobs (independent replications /
// sweep points) on a WorkerPool spawned for the call. Each job owns its
// entire world (engine, RNG streams), so jobs share nothing and need no
// synchronization beyond the pool's work index.
#pragma once

#include <functional>
#include <vector>

namespace charisma::experiment {

class ParallelRunner {
 public:
  /// threads == 0 picks std::thread::hardware_concurrency() (min 1).
  explicit ParallelRunner(unsigned threads = 0);

  unsigned thread_count() const { return threads_; }

  /// Executes the jobs; blocks until the workers drain. The first exception
  /// thrown by any job is rethrown here, and once a job has failed the
  /// workers stop claiming new jobs (jobs already in flight finish), so a
  /// broken sweep fails fast instead of burning the rest of the grid.
  void run(const std::vector<std::function<void()>>& jobs) const;

 private:
  unsigned threads_;
};

}  // namespace charisma::experiment
