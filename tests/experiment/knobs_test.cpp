#include "experiment/knobs.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <set>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/units.hpp"
#include "mac/site_layout.hpp"

namespace charisma::experiment {
namespace {

double doppler_at(double kmh) {
  return channel::ChannelConfig::doppler_for_speed(common::km_per_hour(kmh),
                                                   2.0e9);
}

TEST(Knobs, WorldLinkBudgetIs26DbUnlessGiven) {
  const auto defaults = parse_knobs({"cells=3"});
  EXPECT_EQ(defaults.world.params.channel.mean_snr_db, 26.0);
  // The single-cell scenario keeps the whole-cell default.
  EXPECT_EQ(defaults.run.params.channel.mean_snr_db,
            channel::ChannelConfig{}.mean_snr_db);
  const auto given = parse_knobs({"cells=3", "mean_snr_db=20"});
  EXPECT_EQ(given.world.params.channel.mean_snr_db, 20.0);
  EXPECT_EQ(given.run.params.channel.mean_snr_db, 20.0);
}

TEST(Knobs, DopplerFollowsKmhWithOneHertzFloor) {
  const auto moving = parse_knobs({"kmh=90"});
  EXPECT_EQ(moving.run.params.channel.doppler_hz, doppler_at(90.0));
  EXPECT_EQ(moving.world.params.channel.doppler_hz, doppler_at(90.0));
  EXPECT_EQ(moving.world.mobility.speed_mps, common::km_per_hour(90.0));

  const auto parked = parse_knobs({"kmh=0"});
  EXPECT_EQ(parked.run.params.channel.doppler_hz, 1.0);
  EXPECT_EQ(parked.world.params.channel.doppler_hz, 1.0);
  EXPECT_EQ(parked.world.mobility.speed_mps, 0.0);

  // Without kmh= the world still moves at 50 km/h and fades to match; the
  // single-cell scenario keeps the channel's default Doppler.
  const auto defaults = parse_knobs(std::vector<std::string>{});
  EXPECT_EQ(defaults.world.params.channel.doppler_hz, doppler_at(50.0));
  EXPECT_EQ(defaults.run.params.channel.doppler_hz,
            channel::ChannelConfig{}.doppler_hz);

  // doppler_hz= overrides the derived value but not the speed.
  const auto both = parse_knobs({"kmh=90", "doppler_hz=30"});
  EXPECT_EQ(both.run.params.channel.doppler_hz, 30.0);
  EXPECT_EQ(both.world.params.channel.doppler_hz, 30.0);
  EXPECT_EQ(both.world.mobility.speed_mps, common::km_per_hour(90.0));
}

TEST(Knobs, HexFieldIsTheGridExtent) {
  const auto knobs =
      parse_knobs({"layout=hex", "cells=19", "cell_radius_m=300"});
  const auto [width, height] = mac::SiteLayout::hex_field_extent(19, 600.0);
  EXPECT_EQ(knobs.world.layout.kind, mac::SiteLayoutConfig::Kind::kHex);
  EXPECT_EQ(knobs.world.layout.site_spacing_m, 600.0);
  EXPECT_EQ(knobs.world.mobility.field_width_m, width);
  EXPECT_EQ(knobs.world.mobility.field_height_m, height);
}

TEST(Knobs, LineFieldIsTwoRadiiPerCell) {
  const auto knobs = parse_knobs({"cells=3", "cell_radius_m=300"});
  EXPECT_EQ(knobs.world.layout.kind, mac::SiteLayoutConfig::Kind::kLine);
  EXPECT_EQ(knobs.world.layout.site_spacing_m, 0.0);
  EXPECT_EQ(knobs.world.mobility.field_width_m, 1800.0);
  EXPECT_EQ(knobs.world.mobility.field_height_m, 600.0);
}

TEST(Knobs, InterferenceDefaultsByLayout) {
  EXPECT_EQ(parse_knobs({"layout=hex"}).world.interference_activity, 0.4);
  EXPECT_EQ(parse_knobs({"layout=line"}).world.interference_activity, 0.0);
  EXPECT_EQ(parse_knobs({"layout=hex", "interference=0.2"})
                .world.interference_activity,
            0.2);
}

TEST(Knobs, OverloadRoundsPopulationsHalfAway) {
  // lround: 4.5 -> 5 and 7.5 -> 8 (truncation would give 4 and 7).
  const auto knobs =
      parse_knobs({"voice_users=3", "data_users=5", "overload=1.5"});
  EXPECT_EQ(knobs.run.params.num_voice_users, 5);
  EXPECT_EQ(knobs.run.params.num_data_users, 8);
  EXPECT_EQ(knobs.world.params.num_voice_users, 5);
}

TEST(Knobs, SeedIsRawAndRunDefaultsAreTheCli) {
  const auto knobs = parse_knobs({"seed=2024"});
  EXPECT_EQ(knobs.run.params.seed, 2024u);
  EXPECT_EQ(knobs.world.params.seed, 2024u);
  EXPECT_EQ(knobs.run.warmup_s, 4.0);
  EXPECT_EQ(knobs.run.measure_s, 12.0);
  EXPECT_EQ(knobs.run.replications, 1);
  EXPECT_EQ(knobs.world.num_cells, 1);
  EXPECT_EQ(knobs.protocols,
            std::vector<protocols::ProtocolId>{
                protocols::ProtocolId::kCharisma});
  EXPECT_EQ(parse_knobs({"protocol=all"}).protocols,
            protocols::all_protocols());
}

TEST(Knobs, AcceptedKeysAreTheCliKeysWithoutItsOwn) {
  // charisma_sim's accepted keys before the parser moved into the library.
  const std::set<std::string> cli_keys = {
      "help", "protocol", "voice_users", "data_users", "queue", "seed",
      "warmup", "measure", "replications", "sweep", "x", "mean_snr_db",
      "shadow_sigma_db", "doppler_hz", "kmh", "diversity", "fixed_ref_db",
      "target_ber", "csi_noise_db", "csi_validity_frames", "ack_loss",
      "tx_power_w", "channel", "traffic_rng", "cells", "threads", "shards",
      "handoff_hysteresis_db", "mobility", "cell_radius_m", "layout", "reuse",
      "wrap", "band", "interference", "verify", "request_slots",
      "info_slots", "pilot_slots", "talkspurt_s", "silence_s",
      "burst_packets", "interarrival_s", "pv", "pd", "overload",
      "mmpp_ratio", "mmpp_sojourn_s", "barring", "outage", "flash",
      "diurnal", "fairness", "csi_refresh", "poll_budget", "alpha_voice",
      "alpha_data", "gamma_voice", "gamma_data", "voice_offset", "csv"};
  std::set<std::string> expected = cli_keys;
  for (const char* own : {"help", "csv", "verify", "sweep", "x"}) {
    expected.erase(own);
  }
  const std::set<std::string> names(knob_names().begin(), knob_names().end());
  EXPECT_EQ(names.size(), knob_names().size()) << "duplicate knob name";
  EXPECT_EQ(names, expected);
}

TEST(Knobs, UnknownKeysAreRejectedUnlessTheCallerOwnsThem) {
  EXPECT_THROW(parse_knobs({"voice_user=80"}), std::invalid_argument);
  EXPECT_THROW(parse_knobs({"verify=1"}), std::invalid_argument);
  common::KeyValueConfig config;
  config.set("verify", "1");
  EXPECT_NO_THROW(parse_knobs(config, {"verify"}));
}

// The message of the std::invalid_argument parse_knobs throws ("" when it
// accepts the list).
std::string rejection(const std::vector<std::string>& args) {
  try {
    parse_knobs(args);
  } catch (const std::invalid_argument& e) {
    return e.what();
  }
  return "";
}

TEST(Knobs, BadValuesAreRefusedByNameAtAnyCellCount) {
  const std::vector<std::pair<std::string, std::string>> cases = {
      {"talkspurt_s", "talkspurt_s=0"},
      {"silence_s", "silence_s=-1"},
      {"interarrival_s", "interarrival_s=0"},
      {"burst_packets", "burst_packets=0.5"},
      {"mmpp_ratio", "mmpp_ratio=0.5"},
      {"mmpp_sojourn_s", "mmpp_sojourn_s=-1"},
      {"ack_loss", "ack_loss=1"},
      {"tx_power_w", "tx_power_w=-1"},
      {"csi_validity_frames", "csi_validity_frames=0"},
      {"csi_noise_db", "csi_noise_db=-1"},
      {"target_ber", "target_ber=0.6"},
      {"cell_radius_m", "cell_radius_m=0"},
      {"reuse", "reuse=0"},
      {"shadow_sigma_db", "shadow_sigma_db=nan"},
      {"interference", "interference=2"},
      {"band", "band=-5"},
      {"threads", "threads=-3"},
  };
  for (const auto& [knob, arg] : cases) {
    for (const char* cells : {"cells=1", "cells=3"}) {
      SCOPED_TRACE(arg + " " + cells);
      EXPECT_EQ(rejection({cells, arg}).rfind(knob + "=", 0), 0u)
          << rejection({cells, arg});
    }
  }
}

TEST(Knobs, LayoutCombinationsAreRefusedNamingBothKnobs) {
  const std::vector<std::pair<std::vector<std::string>,
                              std::vector<std::string>>>
      cases = {
          {{"wrap=1", "layout=line"}, {"wrap=", "layout="}},
          {{"cells=3", "layout=hex", "wrap=1"}, {"wrap=", "cells="}},
          {{"layout=hex", "reuse=2"}, {"reuse=", "layout="}},
          {{"cells=7", "layout=hex", "reuse=3", "wrap=1"},
           {"wrap=", "reuse="}},
      };
  for (const auto& [args, knobs] : cases) {
    const std::string message = rejection(args);
    SCOPED_TRACE(message);
    EXPECT_EQ(message.rfind(knobs[0], 0), 0u);
    EXPECT_NE(message.find(knobs[1]), std::string::npos);
  }
  // Wrap-consistent combinations still parse.
  EXPECT_EQ(rejection({"cells=7", "layout=hex", "reuse=7", "wrap=1"}), "");
  EXPECT_EQ(rejection({"cells=19", "layout=hex", "wrap=1"}), "");
}

TEST(Knobs, WorldScenariosNeedCellsAndExcludeEachOther) {
  for (const char* knob :
       {"outage=0:1:2", "flash=0:0:100:2:0:1", "diurnal=0.5:10"}) {
    SCOPED_TRACE(knob);
    EXPECT_NE(rejection({"cells=1", knob}).find("needs cells >= 2"),
              std::string::npos);
    EXPECT_EQ(rejection({"cells=2", knob}), "");
  }
  EXPECT_EQ(rejection({"cells=2", "flash=0:0:100:2:0:1", "diurnal=0.5:10"}),
            "flash= and diurnal= are mutually exclusive");
}

// bench_world's former hand-built horizon world (metro_world's shape),
// scaled down to 7 cells, against its knob list.
mac::CellularConfig horizon_by_hand() {
  constexpr int kCells = 7;
  mac::CellularConfig cfg;
  cfg.num_cells = kCells;
  cfg.num_threads = 2;
  cfg.params.num_voice_users = 8 * kCells;
  cfg.params.num_data_users = 1 * kCells;
  cfg.params.seed = 2024;
  cfg.params.request_queue = true;
  cfg.params.traffic_rng = common::RngKind::kMt;
  cfg.params.channel.mean_snr_db = 26.0;
  cfg.mobility.model = mac::MobilityConfig::Model::kRandomWaypoint;
  cfg.mobility.speed_mps = common::km_per_hour(50.0);
  cfg.params.channel.doppler_hz =
      std::max(1.0, channel::ChannelConfig::doppler_for_speed(
                        cfg.mobility.speed_mps, 2.0e9));
  cfg.layout.kind = mac::SiteLayoutConfig::Kind::kHex;
  cfg.layout.reuse_factor = 3;
  cfg.layout.site_spacing_m = 1000.0;
  const auto [width, height] =
      mac::SiteLayout::hex_field_extent(kCells, cfg.layout.site_spacing_m);
  cfg.mobility.field_width_m = width;
  cfg.mobility.field_height_m = height;
  cfg.pilot_band_radius_m = 1200.0;
  cfg.interference_activity = 0.4;
  return cfg;
}

TEST(Knobs, HorizonKnobListRebuildsTheHandBuiltWorld) {
  const auto knobs = parse_knobs(
      {"protocol=charisma", "layout=hex", "cells=7", "reuse=3", "band=1200",
       "voice_users=56", "data_users=7", "threads=2", "seed=2024"});
  const auto factory = [](const mac::ScenarioParams& p) {
    return protocols::make_protocol(protocols::ProtocolId::kCharisma, p);
  };
  mac::CellularWorld by_hand(horizon_by_hand(), factory);
  mac::CellularWorld from_knobs(knobs.world, factory);
  by_hand.run(0.2, 0.6);
  from_knobs.run(0.2, 0.6);
  for (int c = 0; c < by_hand.num_cells(); ++c) {
    EXPECT_TRUE(by_hand.cell_metrics(c) == from_knobs.cell_metrics(c))
        << "cell " << c;
  }
  EXPECT_EQ(by_hand.handoffs(), from_knobs.handoffs());
  EXPECT_GT(by_hand.aggregate_metrics().voice_generated, 0);
}

}  // namespace
}  // namespace charisma::experiment
