#include "experiment/sweep.hpp"

#include <algorithm>
#include <numeric>
#include <stdexcept>

namespace charisma::experiment {

std::vector<SweepCell> run_sweep(const SweepConfig& config,
                                 const ParallelRunner& runner) {
  if (config.x_values.empty() || config.protocols_to_run.empty()) {
    throw std::invalid_argument("run_sweep: empty grid");
  }
  std::vector<SweepCell> cells(config.x_values.size() *
                               config.protocols_to_run.size());
  std::vector<std::function<void()>> jobs;
  jobs.reserve(cells.size());

  // Jobs are claimed in submission order, so the heaviest points (largest
  // x: the most users) go first and the light tail fills the idle threads
  // at the end. Cells keep their (x, protocol) order, and each job's seeds
  // depend only on its x index, so no result moves.
  std::vector<std::size_t> x_order(config.x_values.size());
  std::iota(x_order.begin(), x_order.end(), std::size_t{0});
  std::stable_sort(x_order.begin(), x_order.end(),
                   [&config](std::size_t a, std::size_t b) {
                     return config.x_values[a] > config.x_values[b];
                   });
  const std::size_t num_protocols = config.protocols_to_run.size();
  for (const std::size_t xi : x_order) {
    for (std::size_t pi = 0; pi < num_protocols; ++pi) {
      const int x = config.x_values[xi];
      const auto protocol = config.protocols_to_run[pi];
      SweepCell& cell = cells[xi * num_protocols + pi];
      cell.x = x;
      cell.protocol = protocol;
      jobs.push_back([&cell, &config, x, protocol, xi] {
        RunSpec spec = config.spec;
        if (config.axis == SweepAxis::kVoiceUsers) {
          spec.params.num_voice_users = x;
        } else {
          spec.params.num_data_users = x;
        }
        // The point key depends only on the x index, so all protocols at a
        // point share seeds (common random numbers).
        cell.result = run_replications(protocol, spec,
                                       static_cast<std::uint64_t>(xi));
      });
    }
  }
  runner.run(jobs);
  return cells;
}

}  // namespace charisma::experiment
