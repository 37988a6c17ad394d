// charisma_sim — command-line front-end to the simulation platform.
//
// Run one protocol (or all six) on a fully parameterized scenario, or
// sweep a load axis, and emit a table or CSV. Examples:
//
//   charisma_sim protocol=charisma voice_users=100 data_users=10
//   charisma_sim protocol=all voice_users=80 queue=0 measure=20
//   charisma_sim sweep=voice x=40,80,120,160 protocol=all csv=out.csv
//   charisma_sim protocol=charisma fairness=1 csi_refresh=0 doppler_hz=160
//   charisma_sim protocol=all cells=3 kmh=90 handoff_hysteresis_db=4
//
// Every scenario knob is a key=value argument parsed by
// experiment::parse_knobs; this front end adds only help=, csv=, verify=,
// sweep= and x=. Run with `help=1` for the full list. `cells=2` (or more)
// switches to the mobility-driven multi-cell world: users move, path loss
// tracks their position, and the strongest-pilot-with-hysteresis policy
// hands them off between per-cell protocol engines.
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "charisma.hpp"

namespace {

using namespace charisma;

void print_help() {
  std::cout <<
      R"(charisma_sim key=value ...

Core:
  protocol=charisma|dtdma_vr|dtdma_fr|drma|rama|rmav|prma|all
  voice_users=N data_users=N queue=0|1 seed=N
                       population counts accept magnitude suffixes:
                       voice_users=250k, data_users=1M (k = 1e3, M = 1e6)
  warmup=SECONDS measure=SECONDS replications=N

Sweeps (optional):
  sweep=voice|data     x=10,20,40,...   (runs the grid instead of one cell)

Radio / PHY:
  mean_snr_db=F shadow_sigma_db=F doppler_hz=F kmh=F diversity=N
  fixed_ref_db=F target_ber=F csi_noise_db=F csi_validity_frames=N
  ack_loss=F tx_power_w=F
  channel=eager|lazy   channel materialization schedule: eager advances
                       every user every frame (default; legacy results are
                       bit-identical); lazy moves a frame clock in O(1) and
                       materializes only touched/read users via the
                       closed-form jump (statistically exact, different
                       realization). The "chan stride" column reports the
                       mean user-frames folded into one jump.
  traffic_rng=mt|compact  generator behind the per-user traffic/MAC
                       streams: mt (default) is the historical mt19937_64
                       (legacy results bit-identical); compact swaps in
                       ~24-byte splitmix64 counter streams — statistically
                       equivalent, a different realization, and the
                       per-attached-user memory floor of very large
                       sparse worlds collapses by ~two orders of
                       magnitude. Channel/base-station streams keep mt.

Mobility / multi-cell (cells >= 2 enables the CellularWorld scenario):
  cells=N              base stations, one protocol engine each (default 1)
  threads=N            worker threads stepping cells in parallel; 0 =
                       hardware concurrency (default 1 = serial; results
                       are bit-identical at any setting)
  shards=N             coordinator shards: the world plane (mobility, band
                       rosters, pilot filtering, attachment rule) is
                       computed over N contiguous user-id ranges in
                       parallel, proposals merged in user order; 0 =
                       match the thread count (default 0; results are
                       bit-identical at any setting)
  kmh=F                user speed; also sets the Doppler spread (default 50)
  handoff_hysteresis_db=F  strongest-pilot margin before handoff (default 4)
  mobility=waypoint|vector random-waypoint or constant-velocity (default
                       waypoint)
  cell_radius_m=F      half the site spacing; field scales with cells
                       (default 500)
  layout=line|hex      site geometry: sites on the field midline, or
                       hexagonal rings (full rings at 1/7/19/... cells;
                       the field is sized to the grid) (default line)
  reuse=N              frequency-reuse factor — only co-channel cells
                       interfere (hex needs 1, 3, 4, 7, 9, 12, ...;
                       default 1 = every cell on the same channel)
  wrap=0|1             wrap distances around a full-ring hex cluster
                       (removes layout-edge effects; default 0)
  band=F               pilot-band radius in metres: a user holds channel
                       and protocol state only in cells within this
                       distance (sparse presence, memory O(band) per
                       user). 0 = every cell, the historical dense world,
                       bit for bit (default 0). A finite radius should
                       cover the attachment geometry (>= site spacing).
  interference=F       per-attached-user activity factor of the uplink
                       co-channel interference (SINR) plane; 0 disables
                       (default 0.4 for layout=hex, 0 for line)
  verify=0|1           re-run each point with threads=1 and require
                       bit-identical metrics + a non-empty window (the
                       interference_world_smoke ctest; default 0)
  In this mode the table gains handoff and mean-SINR-penalty columns;
  mean_snr_db is the link budget at the path-loss reference distance.

Geometry:
  request_slots=N info_slots=N pilot_slots=N

Traffic:
  talkspurt_s=F silence_s=F burst_packets=F interarrival_s=F pv=F pd=F
  overload=F           multiplies both populations (flash-crowd style
                       offered load: overload=5 is 5x nominal; default 1)
  mmpp_ratio=F mmpp_sojourn_s=F
                       Markov-modulated data arrivals: the burst process
                       alternates between a nominal and a ratio-times-
                       hotter state with exponential sojourns (ratio >= 1;
                       sojourn 0 disables; defaults 1 / 0)

Overload survival (robustness scenarios):
  barring=0|1          closed-loop access-class barring in every engine:
                       a per-cell load estimator tightens/relaxes the
                       contention admission probability (default 0; the
                       legacy results are bit-identical with barring=0)
  outage=C:S:E[,...]   cell C is dark (no pilot, users evicted) from S to
                       E seconds, repeatable; needs cells >= 2
  flash=X:Y:R:M:S:E    flash crowd: users within R metres of (X, Y) offer
                       M-times traffic during [S, E); needs cells >= 2
  diurnal=A:P[:W]      sinusoidal load tide: amplitude A, period P
                       seconds, spatial wavelength W metres (default
                       2000); needs cells >= 2

CHARISMA options:
  fairness=0|1 csi_refresh=0|1 poll_budget=N
  alpha_voice=F alpha_data=F gamma_voice=F gamma_data=F voice_offset=F

Output:
  csv=FILE (also prints the table)  help=1
)";
}

// Splits "a,b,c" into ints; throws naming the knob on malformed input.
std::vector<int> parse_int_list(const std::string& key,
                                const std::string& value) {
  std::vector<int> values;
  std::stringstream stream(value);
  std::string token;
  while (std::getline(stream, token, ',')) {
    try {
      std::size_t pos = 0;
      values.push_back(std::stoi(token, &pos));
      if (pos != token.size()) throw std::invalid_argument("trailing");
    } catch (const std::exception&) {
      throw std::invalid_argument(key + "=: bad value '" + token + "' in '" +
                                  value + "'");
    }
  }
  return values;
}

void run_cellular(const experiment::Knobs& knobs, bool verify,
                  common::TextTable& table) {
  const auto& spec = knobs.run;
  for (auto id : knobs.protocols) {
    common::Accumulator loss, err, handoff_drop, tput, delay, handoff_hz,
        interference, stride;
    for (int rep = 0; rep < spec.replications; ++rep) {
      auto cfg = knobs.world;
      cfg.params.seed =
          experiment::replication_seed(spec.params.seed, /*point=*/0, rep);
      const auto factory = [&](const mac::ScenarioParams& p) {
        return protocols::make_protocol(id, p, spec.charisma);
      };
      mac::CellularWorld world(cfg, factory);
      world.run(spec.warmup_s, spec.measure_s);
      const auto m = world.aggregate_metrics();
      if (verify && rep == 0) {
        // The smoke-test teeth: a non-empty window, and the same
        // bit-identical-to-serial guarantee the determinism test pins.
        if (m.voice_generated <= 0 && m.data_generated <= 0) {
          throw std::runtime_error("verify=1: empty measurement window");
        }
        auto serial_cfg = cfg;
        serial_cfg.num_threads = 1;
        serial_cfg.num_shards = 1;
        mac::CellularWorld serial(serial_cfg, factory);
        serial.run(spec.warmup_s, spec.measure_s);
        if (!(serial.aggregate_metrics() == m) ||
            serial.handoffs() != world.handoffs()) {
          throw std::runtime_error(
              "verify=1: parallel world metrics diverged from the serial "
              "run (" + std::string(protocols::protocol_name(id)) + ")");
        }
      }
      loss.add(m.voice_loss_rate());
      err.add(m.voice_error_rate());
      handoff_drop.add(m.voice_handoff_drop_rate());
      tput.add(m.data_throughput_per_frame());
      delay.add(m.mean_data_delay_s());
      handoff_hz.add(m.handoff_rate_hz());
      interference.add(m.mean_interference_db());
      stride.add(m.mean_materialization_stride());
    }
    table.add_row({protocols::protocol_name(id),
                   common::TextTable::sci(loss.mean(), 3),
                   common::TextTable::sci(err.mean(), 3),
                   common::TextTable::sci(handoff_drop.mean(), 3),
                   common::TextTable::num(handoff_hz.mean(), 2),
                   common::TextTable::num(tput.mean(), 2),
                   common::TextTable::num(delay.mean(), 3),
                   common::TextTable::num(interference.mean(), 2),
                   common::TextTable::num(stride.mean(), 2)});
  }
}

const std::vector<std::string> kSingleCellHeader = {
    "x", "protocol", "voice loss", "voice err", "data tput/frame",
    "data delay (s)", "slot util", "chan stride"};

void add_result_row(common::TextTable& table, const std::string& label,
                    const experiment::ReplicatedResult& result) {
  table.add_row({label, result.protocol,
                 common::TextTable::sci(result.voice_loss.mean(), 3),
                 common::TextTable::sci(result.voice_error.mean(), 3),
                 common::TextTable::num(result.data_throughput.mean(), 2),
                 common::TextTable::num(result.data_delay_s.mean(), 3),
                 common::TextTable::num(result.slot_utilization.mean(), 3),
                 common::TextTable::num(result.materialization_stride.mean(),
                                        2)});
}

}  // namespace

int main(int argc, char** argv) {
  common::KeyValueConfig config;
  try {
    config = common::KeyValueConfig::from_args(
        std::vector<std::string>(argv + 1, argv + argc));
  } catch (const std::exception& e) {
    std::cerr << e.what() << "\nRun with help=1 for usage.\n";
    return 1;
  }
  if (config.get_bool_or("help", false)) {
    print_help();
    return 0;
  }

  try {
    const auto knobs = experiment::parse_knobs(
        config, {"help", "csv", "verify", "sweep", "x"});
    const bool world = knobs.world.num_cells >= 2;
    if (world && config.contains("sweep")) {
      throw std::invalid_argument(
          "sweep= is not supported with cells >= 2 yet; run one operating "
          "point per invocation");
    }
    common::TextTable table(world ? "charisma_sim multi-cell mobility results"
                                  : "charisma_sim results");
    if (world) {
      table.set_header({"protocol", "voice loss", "voice err",
                        "handoff drop", "handoffs/s", "data tput/frame",
                        "data delay (s)", "interf (dB)", "chan stride"});
      run_cellular(knobs, config.get_bool_or("verify", false), table);
    } else if (config.contains("sweep")) {
      table.set_header(kSingleCellHeader);
      experiment::SweepConfig sweep;
      sweep.spec = knobs.run;
      const std::string axis = config.get_string_or("sweep", "voice");
      if (axis != "voice" && axis != "data") {
        throw std::invalid_argument("sweep= must be voice or data");
      }
      sweep.axis = axis == "data" ? experiment::SweepAxis::kDataUsers
                                  : experiment::SweepAxis::kVoiceUsers;
      sweep.x_values =
          parse_int_list("x", config.get_string_or("x", "20,60,100,140"));
      sweep.protocols_to_run = knobs.protocols;
      experiment::ParallelRunner runner;
      for (const auto& cell : experiment::run_sweep(sweep, runner)) {
        add_result_row(table, std::to_string(cell.x), cell.result);
      }
    } else {
      table.set_header(kSingleCellHeader);
      for (auto id : knobs.protocols) {
        add_result_row(table, "-", experiment::run_replications(id, knobs.run));
      }
    }

    table.print(std::cout);
    if (config.contains("csv")) {
      const std::string path = config.get_string_or("csv", "out.csv");
      if (table.write_csv(path)) {
        std::cout << "\nwrote " << path << '\n';
      } else {
        std::cerr << "could not write " << path << '\n';
        return 1;
      }
    }
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << '\n';
    return 1;
  }
  return 0;
}
