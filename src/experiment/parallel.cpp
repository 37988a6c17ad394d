#include "experiment/parallel.hpp"

#include <algorithm>
#include <thread>

#include "experiment/worker_pool.hpp"

namespace charisma::experiment {

ParallelRunner::ParallelRunner(unsigned threads) : threads_(threads) {
  if (threads_ == 0) {
    threads_ = std::max(1u, std::thread::hardware_concurrency());
  }
}

void ParallelRunner::run(const std::vector<std::function<void()>>& jobs) const {
  if (jobs.empty()) return;
  // One pool per call, never wider than the job list; the pool's
  // claim/fail-fast/rethrow contract is exactly this method's.
  WorkerPool pool(
      std::min<unsigned>(threads_, static_cast<unsigned>(jobs.size())));
  pool.for_each(jobs.size(), [&jobs](std::size_t i) { jobs[i](); });
}

}  // namespace charisma::experiment
