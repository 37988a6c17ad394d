// Integrated voice + data services — the paper's motivating scenario
// (Sec. 1): a cell carrying phone calls while nomadic users move files.
// Shows how each service class fares under CHARISMA as the file-transfer
// load grows, and what the channel-capacity-fair extension (Sec. 6 / [22])
// changes for cell-edge users.
//
//   ./integrated_services [voice_users=90] [queue=1] [fairness=0] [seed=1]
//                         [warmup=4] [measure=10]
#include <algorithm>
#include <iostream>
#include <string>
#include <vector>

#include "bench_support.hpp"
#include "charisma.hpp"

namespace {

int run(int argc, char** argv) {
  using namespace charisma;
  auto config = common::KeyValueConfig::from_args(
      std::vector<std::string>(argv + 1, argv + argc));
  config.reject_unknown({"voice_users", "queue", "fairness", "seed", "warmup",
                         "measure"});
  // This example's defaults, where they differ from the simulator's.
  if (!config.contains("voice_users")) config.set("voice_users", "90");
  if (!config.contains("measure")) config.set("measure", "10");
  const auto knobs = experiment::parse_knobs(config);

  const int voice_users = knobs.run.params.num_voice_users;
  const bool queue = knobs.run.params.request_queue;
  const bool fairness =
      knobs.run.charisma.fairness != core::FairnessMode::kNone;

  std::cout << "CHARISMA cell: " << voice_users
            << " voice users, growing file-transfer load, request queue "
            << (queue ? "on" : "off") << ", capacity-fair scheduling "
            << (fairness ? "on" : "off") << "\n\n";

  common::TextTable table("Service quality as data load grows");
  table.set_header({"data users", "voice loss", "data tput/frame",
                    "data delay (s)", "slot util", "csi polls/frame"});
  for (int data_users : {0, 10, 20, 40, 60}) {
    mac::ScenarioParams params = knobs.run.params;
    params.num_data_users = data_users;
    core::CharismaProtocol proto(params, knobs.run.charisma);
    const auto& m = proto.run(knobs.run.warmup_s, knobs.run.measure_s);
    table.add_row({std::to_string(data_users),
                   common::TextTable::sci(m.voice_loss_rate(), 2),
                   common::TextTable::num(m.data_throughput_per_frame(), 2),
                   common::TextTable::num(m.mean_data_delay_s(), 3),
                   common::TextTable::num(m.slot_utilization(), 3),
                   common::TextTable::num(
                       static_cast<double>(m.csi_polls) /
                           static_cast<double>(std::max<std::int64_t>(
                               1, m.frames)),
                       2)});
  }
  table.print(std::cout);

  std::cout << "\nNote how voice QoS is insulated from the data load (the\n"
               "priority offset V plus deadline urgency), while data rides\n"
               "the leftover capacity at CSI-selected high modes.\n";
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  // A bad value is refused naming its knob: error: ..., exit status 1.
  return charisma::bench::guarded_main([&] { return run(argc, argv); });
}
