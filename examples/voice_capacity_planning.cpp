// Capacity planning: how many voice users can a cell admit at a target
// packet-loss QoS? Sweeps the voice population for a chosen protocol and
// reports the capacity at the threshold — the operational question behind
// the paper's Fig. 11 read-offs.
//
//   ./voice_capacity_planning [protocol=charisma] [threshold=0.01]
//                             [data_users=0] [queue=1] [warmup=4]
//                             [measure=10] [replications=2]
#include <iostream>
#include <stdexcept>
#include <string>
#include <vector>

#include "bench_support.hpp"
#include "charisma.hpp"

namespace {

int run(int argc, char** argv) {
  using namespace charisma;
  auto config = common::KeyValueConfig::from_args(
      std::vector<std::string>(argv + 1, argv + argc));
  config.reject_unknown({"protocol", "threshold", "data_users", "queue",
                         "warmup", "measure", "replications"});
  // This example's defaults, where they differ from the simulator's.
  if (!config.contains("measure")) config.set("measure", "10");
  if (!config.contains("replications")) config.set("replications", "2");
  const auto knobs = experiment::parse_knobs(config, {"threshold"});
  if (knobs.protocols.size() != 1) {
    throw std::invalid_argument("protocol= must name one protocol");
  }
  const protocols::ProtocolId protocol = knobs.protocols.front();
  const double threshold = config.get_double_or("threshold", 0.01);
  if (!(threshold > 0.0 && threshold < 1.0)) {
    throw std::invalid_argument("threshold= must be in (0, 1)");
  }

  experiment::SweepConfig sweep;
  sweep.spec = knobs.run;
  sweep.axis = experiment::SweepAxis::kVoiceUsers;
  sweep.x_values = {20, 50, 80, 100, 120, 140, 160, 180};
  sweep.protocols_to_run = {protocol};

  std::cout << "Sweeping voice load for " << protocols::protocol_name(protocol)
            << " (loss threshold " << threshold << ")...\n\n";

  experiment::ParallelRunner runner;
  const auto cells = experiment::run_sweep(sweep, runner);

  const auto metric = [](const experiment::ReplicatedResult& r) {
    return r.voice_loss.mean();
  };
  common::TextTable table("Voice loss versus population");
  table.set_header({"N_v", "loss", "drop", "error", "95% ci"});
  for (const auto& cell : cells) {
    table.add_row({std::to_string(cell.x),
                   common::TextTable::sci(cell.result.voice_loss.mean(), 2),
                   common::TextTable::sci(cell.result.voice_drop.mean(), 2),
                   common::TextTable::sci(cell.result.voice_error.mean(), 2),
                   common::TextTable::sci(
                       common::proportion_half_width(
                           cell.result.voice_loss_pooled),
                       1)});
  }
  table.print(std::cout);

  const auto capacity = experiment::capacity_at_threshold(
      experiment::series_of(cells, protocol, metric), threshold);
  std::cout << "\nCapacity at " << threshold * 100 << "% loss: ";
  if (capacity) {
    std::cout << static_cast<int>(*capacity) << " voice users\n";
  } else {
    std::cout << "below the smallest swept population\n";
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  // A bad value is refused naming its knob: error: ..., exit status 1.
  return charisma::bench::guarded_main([&] { return run(argc, argv); });
}
