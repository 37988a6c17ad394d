#include "experiment/sweep.hpp"

#include <gtest/gtest.h>

#include "../support/scenarios.hpp"

namespace charisma::experiment {
namespace {

SweepConfig small_sweep() {
  SweepConfig config;
  config.spec.params = ::charisma::testing::small_mixed(0, 0);
  config.spec.warmup_s = 0.5;
  config.spec.measure_s = 2.0;
  config.spec.replications = 1;
  config.axis = SweepAxis::kVoiceUsers;
  config.x_values = {5, 10};
  config.protocols_to_run = {protocols::ProtocolId::kCharisma,
                             protocols::ProtocolId::kDtdmaFr};
  return config;
}

TEST(Sweep, ProducesFullGrid) {
  ParallelRunner runner(2);
  const auto cells = run_sweep(small_sweep(), runner);
  EXPECT_EQ(cells.size(), 4u);
  for (const auto& cell : cells) {
    EXPECT_EQ(cell.result.num_voice_users, cell.x);
    EXPECT_EQ(cell.result.replications, 1);
  }
}

TEST(Sweep, AxisSelectsUserClass) {
  auto config = small_sweep();
  config.axis = SweepAxis::kDataUsers;
  config.x_values = {3};
  ParallelRunner runner(1);
  const auto cells = run_sweep(config, runner);
  for (const auto& cell : cells) {
    EXPECT_EQ(cell.result.num_data_users, 3);
    EXPECT_EQ(cell.result.num_voice_users, 0);
  }
}

TEST(Sweep, EmptyGridRejected) {
  ParallelRunner runner(1);
  auto config = small_sweep();
  config.x_values.clear();
  EXPECT_THROW(run_sweep(config, runner), std::invalid_argument);
  config = small_sweep();
  config.protocols_to_run.clear();
  EXPECT_THROW(run_sweep(config, runner), std::invalid_argument);
}

TEST(Sweep, SeriesExtraction) {
  ParallelRunner runner(2);
  const auto cells = run_sweep(small_sweep(), runner);
  const auto series =
      series_of(cells, protocols::ProtocolId::kCharisma,
                [](const ReplicatedResult& r) { return r.voice_loss.mean(); });
  ASSERT_EQ(series.size(), 2u);
  EXPECT_EQ(series[0].first, 5);
  EXPECT_EQ(series[1].first, 10);
}

TEST(Sweep, CellsKeepGridOrderAndSeedsWhateverTheJobOrder) {
  // Jobs start from the largest x, but the cells come back in (x,
  // protocol) order and each one is exactly the serial run of its point:
  // the seed key is the x index, not the submission position. Unsorted x
  // values make the two orders differ in both directions.
  auto config = small_sweep();
  config.x_values = {6, 12, 3};
  ParallelRunner runner(2);
  const auto cells = run_sweep(config, runner);
  ASSERT_EQ(cells.size(), 6u);
  for (std::size_t xi = 0; xi < config.x_values.size(); ++xi) {
    for (std::size_t pi = 0; pi < config.protocols_to_run.size(); ++pi) {
      const auto& cell = cells[xi * config.protocols_to_run.size() + pi];
      EXPECT_EQ(cell.x, config.x_values[xi]);
      EXPECT_EQ(cell.protocol, config.protocols_to_run[pi]);
      RunSpec spec = config.spec;
      spec.params.num_voice_users = config.x_values[xi];
      const auto serial = run_replications(config.protocols_to_run[pi], spec,
                                           static_cast<std::uint64_t>(xi));
      EXPECT_EQ(cell.result.voice_loss.mean(), serial.voice_loss.mean());
      EXPECT_EQ(cell.result.data_throughput.mean(),
                serial.data_throughput.mean());
    }
  }
}

TEST(Sweep, DeterministicAcrossRuns) {
  ParallelRunner runner(2);
  const auto a = run_sweep(small_sweep(), runner);
  const auto b = run_sweep(small_sweep(), runner);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_DOUBLE_EQ(a[i].result.voice_loss.mean(),
                     b[i].result.voice_loss.mean());
  }
}

}  // namespace
}  // namespace charisma::experiment
