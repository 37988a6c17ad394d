#include "experiment/knobs.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <sstream>
#include <stdexcept>

#include "common/units.hpp"
#include "mac/site_layout.hpp"
#include "traffic/modulation.hpp"

namespace charisma::experiment {

namespace {

// Throws "<knob>= must be <rule>" unless `ok`. Conditions are written so
// that a NaN value fails them.
void require(bool ok, const char* knob, const char* rule) {
  if (!ok) {
    throw std::invalid_argument(std::string(knob) + "= must be " + rule);
  }
}

// Splits "a:b:c" into doubles; throws naming the knob on malformed input.
std::vector<double> parse_colon_list(const std::string& key,
                                     const std::string& value) {
  std::vector<double> fields;
  std::stringstream stream(value);
  std::string token;
  while (std::getline(stream, token, ':')) {
    try {
      std::size_t pos = 0;
      fields.push_back(std::stod(token, &pos));
      if (pos != token.size()) throw std::invalid_argument("trailing");
    } catch (const std::exception&) {
      throw std::invalid_argument(key + "=: bad field '" + token + "' in '" +
                                  value + "'");
    }
  }
  return fields;
}

// Doppler spread of a user moving at `kmh` on the 2 GHz carrier, floored
// at 1 Hz: a parked population still fades a little.
double doppler_for_kmh(double kmh) {
  return std::max(1.0, channel::ChannelConfig::doppler_for_speed(
                           common::km_per_hour(kmh), 2.0e9));
}

mac::ScenarioParams scenario_from(const common::KeyValueConfig& config) {
  mac::ScenarioParams params;
  const auto count_knob = [&config](const char* key, long long fallback) {
    const long long n = config.get_count_or(key, fallback);
    if (n < 0 || n > std::numeric_limits<int>::max()) {
      throw std::invalid_argument(std::string(key) + "= is out of range");
    }
    return static_cast<int>(n);
  };
  params.num_voice_users = count_knob("voice_users", 80);
  params.num_data_users = count_knob("data_users", 0);
  params.request_queue = config.get_bool_or("queue", true);
  params.seed = static_cast<std::uint64_t>(config.get_int_or("seed", 1));

  auto& channel = params.channel;
  channel.mean_snr_db =
      config.get_double_or("mean_snr_db", channel.mean_snr_db);
  channel.shadow_sigma_db =
      config.get_double_or("shadow_sigma_db", channel.shadow_sigma_db);
  require(channel.shadow_sigma_db >= 0.0, "shadow_sigma_db", ">= 0");
  if (config.contains("kmh")) {
    const double kmh = config.get_double_or("kmh", 50.0);
    require(kmh >= 0.0, "kmh", ">= 0");
    channel.doppler_hz = doppler_for_kmh(kmh);
  }
  channel.doppler_hz = config.get_double_or("doppler_hz", channel.doppler_hz);
  require(channel.doppler_hz > 0.0, "doppler_hz", "> 0");
  channel.diversity_branches =
      config.get_int_or("diversity", channel.diversity_branches);
  require(channel.diversity_branches >= 1, "diversity", ">= 1");

  params.fixed_phy_reference_db =
      config.get_double_or("fixed_ref_db", params.fixed_phy_reference_db);
  params.phy.target_ber =
      config.get_double_or("target_ber", params.phy.target_ber);
  require(params.phy.target_ber > 0.0 && params.phy.target_ber < 0.5,
          "target_ber", "in (0, 0.5)");
  params.csi_error_sigma_db =
      config.get_double_or("csi_noise_db", params.csi_error_sigma_db);
  require(params.csi_error_sigma_db >= 0.0, "csi_noise_db", ">= 0");
  params.csi_validity_frames =
      config.get_int_or("csi_validity_frames", params.csi_validity_frames);
  require(params.csi_validity_frames >= 1, "csi_validity_frames", ">= 1");
  params.ack_loss_prob = config.get_double_or("ack_loss", 0.0);
  require(params.ack_loss_prob >= 0.0 && params.ack_loss_prob < 1.0,
          "ack_loss", "in [0, 1)");
  params.energy.tx_power_w =
      config.get_double_or("tx_power_w", params.energy.tx_power_w);
  require(params.energy.tx_power_w >= 0.0, "tx_power_w", ">= 0");

  auto& geometry = params.geometry;
  geometry.num_request_slots =
      config.get_int_or("request_slots", geometry.num_request_slots);
  geometry.num_info_slots =
      config.get_int_or("info_slots", geometry.num_info_slots);
  geometry.num_pilot_slots =
      config.get_int_or("pilot_slots", geometry.num_pilot_slots);
  require(geometry.num_request_slots >= 1, "request_slots", ">= 1");
  require(geometry.num_info_slots >= 1, "info_slots", ">= 1");
  require(geometry.num_pilot_slots >= 0, "pilot_slots", ">= 0");

  params.mean_talkspurt_s =
      config.get_double_or("talkspurt_s", params.mean_talkspurt_s);
  require(params.mean_talkspurt_s > 0.0, "talkspurt_s", "> 0");
  params.mean_silence_s =
      config.get_double_or("silence_s", params.mean_silence_s);
  require(params.mean_silence_s > 0.0, "silence_s", "> 0");
  params.mean_burst_packets =
      config.get_double_or("burst_packets", params.mean_burst_packets);
  require(params.mean_burst_packets >= 1.0, "burst_packets", ">= 1");
  params.mean_data_interarrival_s =
      config.get_double_or("interarrival_s", params.mean_data_interarrival_s);
  require(params.mean_data_interarrival_s > 0.0, "interarrival_s", "> 0");
  params.voice_permission_prob =
      config.get_double_or("pv", params.voice_permission_prob);
  params.data_permission_prob =
      config.get_double_or("pd", params.data_permission_prob);
  require(params.voice_permission_prob > 0.0 &&
              params.voice_permission_prob <= 1.0,
          "pv", "in (0, 1]");
  require(params.data_permission_prob > 0.0 &&
              params.data_permission_prob <= 1.0,
          "pd", "in (0, 1]");

  const double overload = config.get_double_or("overload", 1.0);
  require(overload > 0.0, "overload", "> 0");
  const long voice = std::lround(params.num_voice_users * overload);
  const long data = std::lround(params.num_data_users * overload);
  require(std::max(voice, data) <= std::numeric_limits<int>::max(),
          "overload", "small enough that the populations fit an int");
  params.num_voice_users = static_cast<int>(voice);
  params.num_data_users = static_cast<int>(data);

  params.data_mmpp_rate_ratio =
      config.get_double_or("mmpp_ratio", params.data_mmpp_rate_ratio);
  require(params.data_mmpp_rate_ratio >= 1.0, "mmpp_ratio", ">= 1");
  params.data_mmpp_mean_sojourn_s =
      config.get_double_or("mmpp_sojourn_s", params.data_mmpp_mean_sojourn_s);
  require(params.data_mmpp_mean_sojourn_s >= 0.0, "mmpp_sojourn_s",
          ">= 0 (0 = no modulation)");
  params.barring.enabled = config.get_bool_or("barring", false);

  const std::string chan = config.get_string_or("channel", "eager");
  require(chan == "eager" || chan == "lazy", "channel", "eager or lazy");
  params.lazy_channel = chan == "lazy";

  const std::string rng = config.get_string_or("traffic_rng", "mt");
  require(rng == "mt" || rng == "compact", "traffic_rng", "mt or compact");
  params.traffic_rng =
      rng == "compact" ? common::RngKind::kCompact : common::RngKind::kMt;
  return params;
}

core::CharismaOptions charisma_options_from(
    const common::KeyValueConfig& config) {
  core::CharismaOptions options;
  options.fairness = config.get_bool_or("fairness", false)
                         ? core::FairnessMode::kCapacityNormalized
                         : core::FairnessMode::kNone;
  options.enable_csi_refresh = config.get_bool_or("csi_refresh", true);
  options.csi_poll_budget = config.get_int_or("poll_budget", -1);
  require(options.csi_poll_budget >= -1, "poll_budget",
          ">= 0 (-1 = use the geometry)");
  auto& priority = options.priority;
  priority.alpha_voice =
      config.get_double_or("alpha_voice", priority.alpha_voice);
  priority.alpha_data = config.get_double_or("alpha_data", priority.alpha_data);
  priority.gamma_voice =
      config.get_double_or("gamma_voice", priority.gamma_voice);
  priority.gamma_data = config.get_double_or("gamma_data", priority.gamma_data);
  priority.voice_offset =
      config.get_double_or("voice_offset", priority.voice_offset);
  return options;
}

std::vector<protocols::ProtocolId> protocols_from(
    const common::KeyValueConfig& config) {
  const std::string name = config.get_string_or("protocol", "charisma");
  if (name == "all") return protocols::all_protocols();
  return {protocols::parse_protocol(name)};
}

mac::CellularConfig world_from(const common::KeyValueConfig& config,
                               const mac::ScenarioParams& params) {
  mac::CellularConfig world;
  world.num_cells = config.get_int_or("cells", 1);
  require(world.num_cells >= 1, "cells", ">= 1");
  if (world.num_cells < 2) {
    for (const char* knob : {"outage", "flash", "diurnal"}) {
      if (config.contains(knob)) {
        throw std::invalid_argument(
            std::string(knob) +
            "= is a world-level scenario and needs cells >= 2");
      }
    }
  }
  const int threads = config.get_int_or("threads", 1);
  require(threads >= 0, "threads", ">= 0 (0 = hardware)");
  world.num_threads = static_cast<unsigned>(threads);
  const int shards = config.get_int_or("shards", 0);
  require(shards >= 0, "shards", ">= 0 (0 = match threads)");
  world.num_shards = static_cast<unsigned>(shards);
  world.params = params;
  if (!config.contains("mean_snr_db")) {
    // The single-cell default (16 dB) is the SNR of the *whole* cell; in
    // the path-loss world it is the budget at the 200 m reference, which
    // would starve every cell-edge user. 26 dB at the reference puts a
    // mid-cell user (~400 m) at the familiar 16 dB operating point.
    world.params.channel.mean_snr_db = 26.0;
  }
  world.handoff_hysteresis_db = config.get_double_or(
      "handoff_hysteresis_db", world.handoff_hysteresis_db);
  require(world.handoff_hysteresis_db >= 0.0, "handoff_hysteresis_db", ">= 0");
  const double kmh = config.get_double_or("kmh", 50.0);
  world.mobility.speed_mps = common::km_per_hour(kmh);
  if (!config.contains("doppler_hz")) {
    // The users move at kmh (default 50) whether or not the knob is given,
    // so their channels fade at the matching Doppler.
    world.params.channel.doppler_hz = doppler_for_kmh(kmh);
  }
  const std::string mobility = config.get_string_or("mobility", "waypoint");
  require(mobility == "waypoint" || mobility == "vector", "mobility",
          "waypoint or vector");
  world.mobility.model = mobility == "vector"
                             ? mac::MobilityConfig::Model::kConstantVelocity
                             : mac::MobilityConfig::Model::kRandomWaypoint;

  const std::string layout = config.get_string_or("layout", "line");
  require(layout == "line" || layout == "hex", "layout", "line or hex");
  const bool hex = layout == "hex";
  world.layout.kind = hex ? mac::SiteLayoutConfig::Kind::kHex
                          : mac::SiteLayoutConfig::Kind::kLine;
  world.layout.reuse_factor = config.get_int_or("reuse", 1);
  require(world.layout.reuse_factor >= 1, "reuse", ">= 1");
  require(!hex || mac::SiteLayout::is_rhombic_number(world.layout.reuse_factor),
          "reuse", "a rhombic number (1, 3, 4, 7, 9, 12, ...) with layout=hex");
  world.layout.wrap_around = config.get_bool_or("wrap", false);
  require(!world.layout.wrap_around || hex, "wrap",
          "0 with layout=line (wrap-around needs layout=hex)");
  require(!world.layout.wrap_around ||
              mac::SiteLayout::is_full_ring_count(world.num_cells),
          "wrap", "0 unless cells= is a full hex ring (1, 7, 19, 37, ...)");
  world.pilot_band_radius_m = config.get_double_or("band", 0.0);
  require(world.pilot_band_radius_m >= 0.0, "band", ">= 0 (0 = every cell)");
  // Hex cells carry co-channel interference by default; the line world
  // keeps its historical interference-free behaviour unless asked.
  world.interference_activity =
      config.get_double_or("interference", hex ? 0.4 : 0.0);
  require(world.interference_activity >= 0.0 &&
              world.interference_activity <= 1.0,
          "interference", "in [0, 1]");

  if (auto spec = config.get_string("outage")) {
    std::stringstream stream(*spec);
    std::string window;
    while (std::getline(stream, window, ',')) {
      const auto f = parse_colon_list("outage", window);
      if (f.size() != 3) {
        throw std::invalid_argument(
            "outage= expects cell:start:end windows, got '" + window + "'");
      }
      mac::CellOutageWindow w;
      w.cell = static_cast<int>(f[0]);
      w.start = f[1];
      w.end = f[2];
      if (!w.valid(world.num_cells)) {
        throw std::invalid_argument("outage= window '" + window +
                                    "' is invalid for cells=" +
                                    std::to_string(world.num_cells));
      }
      world.outages.push_back(w);
    }
  }
  if (config.contains("flash") && config.contains("diurnal")) {
    throw std::invalid_argument("flash= and diurnal= are mutually exclusive");
  }
  auto& modulation = world.modulation;
  if (auto spec = config.get_string("flash")) {
    const auto f = parse_colon_list("flash", *spec);
    if (f.size() != 6) {
      throw std::invalid_argument(
          "flash= expects x:y:radius:multiplier:start:end");
    }
    modulation.kind = traffic::TrafficModulationConfig::Kind::kFlashCrowd;
    modulation.epicenter_x_m = f[0];
    modulation.epicenter_y_m = f[1];
    modulation.radius_m = f[2];
    modulation.rate_multiplier = f[3];
    modulation.start = f[4];
    modulation.end = f[5];
  }
  if (auto spec = config.get_string("diurnal")) {
    const auto f = parse_colon_list("diurnal", *spec);
    if (f.size() != 2 && f.size() != 3) {
      throw std::invalid_argument(
          "diurnal= expects amplitude:period_s[:wavelength_m]");
    }
    modulation.kind = traffic::TrafficModulationConfig::Kind::kDiurnal;
    modulation.amplitude = f[0];
    modulation.period_s = f[1];
    if (f.size() == 3) modulation.wavelength_m = f[2];
  }
  // Per-field rejection naming the knob: "diurnal=: amplitude must be in
  // [0, 1) ..." instead of a generic out-of-range message.
  traffic::validate_or_throw(modulation,
                             config.contains("flash") ? "flash" : "diurnal");

  const double radius = config.get_double_or("cell_radius_m", 500.0);
  require(radius > 0.0, "cell_radius_m", "> 0");
  if (hex) {
    world.layout.site_spacing_m = 2.0 * radius;
    const auto [width, height] = mac::SiteLayout::hex_field_extent(
        world.num_cells, world.layout.site_spacing_m);
    world.mobility.field_width_m = width;
    world.mobility.field_height_m = height;
  } else {
    world.mobility.field_width_m =
        2.0 * radius * static_cast<double>(world.num_cells);
    world.mobility.field_height_m = 2.0 * radius;
  }
  if (world.layout.wrap_around) {
    // The last layout rule needs the reuse colouring itself: the cluster
    // translation must map co-channel cells onto co-channel images.
    try {
      mac::SiteLayout(world.layout, world.num_cells,
                      world.mobility.field_width_m,
                      world.mobility.field_height_m);
    } catch (const std::invalid_argument&) {
      throw std::invalid_argument(
          "wrap=1 with reuse=" + std::to_string(world.layout.reuse_factor) +
          " at cells=" + std::to_string(world.num_cells) +
          " would fold co-channel cells onto non-co-channel distances; use "
          "reuse=1, a reuse that gives every cell its own channel, or wrap=0");
    }
  }
  if (!world.valid()) {
    throw std::invalid_argument("knobs: invalid world configuration");
  }
  return world;
}

}  // namespace

const std::vector<std::string>& knob_names() {
  static const std::vector<std::string> names = {
      "protocol", "voice_users", "data_users", "queue", "seed", "warmup",
      "measure", "replications", "mean_snr_db", "shadow_sigma_db",
      "doppler_hz", "kmh", "diversity", "fixed_ref_db", "target_ber",
      "csi_noise_db", "csi_validity_frames", "ack_loss", "tx_power_w",
      "channel", "traffic_rng", "cells", "threads", "shards",
      "handoff_hysteresis_db", "mobility", "cell_radius_m", "layout", "reuse",
      "wrap", "band", "interference", "request_slots", "info_slots",
      "pilot_slots", "talkspurt_s", "silence_s", "burst_packets",
      "interarrival_s", "pv", "pd", "overload", "mmpp_ratio",
      "mmpp_sojourn_s", "barring", "outage", "flash", "diurnal", "fairness",
      "csi_refresh", "poll_budget", "alpha_voice", "alpha_data",
      "gamma_voice", "gamma_data", "voice_offset"};
  return names;
}

Knobs parse_knobs(const common::KeyValueConfig& config,
                  const std::vector<std::string>& caller_keys) {
  std::vector<std::string> known = knob_names();
  known.insert(known.end(), caller_keys.begin(), caller_keys.end());
  config.reject_unknown(known);

  Knobs knobs;
  auto& run = knobs.run;
  run.params = scenario_from(config);
  run.warmup_s = config.get_double_or("warmup", 4.0);
  run.measure_s = config.get_double_or("measure", 12.0);
  require(run.warmup_s >= 0.0, "warmup", ">= 0");
  require(run.measure_s > 0.0, "measure", "> 0");
  run.replications = config.get_int_or("replications", 1);
  require(run.replications >= 1, "replications", ">= 1");
  run.charisma = charisma_options_from(config);
  knobs.protocols = protocols_from(config);
  knobs.world = world_from(config, run.params);
  return knobs;
}

Knobs parse_knobs(const std::vector<std::string>& args) {
  return parse_knobs(common::KeyValueConfig::from_args(args));
}

}  // namespace charisma::experiment
