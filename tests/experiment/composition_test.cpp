// The combination table: every row is a knob list parsed by
// experiment::parse_knobs, run at its own threads/shards and again at
// threads=1 shards=1, with the world's invariants checked after every
// epoch of both runs. The first seven rows are the knob lists of the
// single-combination CLI smokes this table replaced (less the CLI's own
// verify=1, which this test does); the rest fill in
// channel={eager,lazy} x band={0,700} x traffic_rng={mt,compact} x
// kmh={0,50} and put each protocol and each mode in at least two rows
// (CompositionTable.CoversEveryCombination counts them), and the last one
// loads its cells until access barring closes the gate.
#include <gtest/gtest.h>

#include <cmath>
#include <ostream>
#include <map>
#include <set>
#include <string>
#include <tuple>
#include <vector>

#include "experiment/knobs.hpp"
#include "experiment/runner.hpp"
#include "mac/cellular_world.hpp"
#include "protocols/factory.hpp"

namespace charisma::experiment {
namespace {

struct Row {
  const char* name;
  std::vector<std::string> knobs;
  /// The load is high enough that closed-loop barring must close the
  /// contention gate at least once.
  bool barring_closes = false;
};

void PrintTo(const Row& row, std::ostream* os) { *os << row.name; }

const std::vector<Row>& rows() {
  static const std::vector<Row> table = {
      // The single-combination smokes' knob lists, verbatim.
      {"sparse_world",
       {"protocol=charisma", "layout=hex", "cells=7", "reuse=3", "band=700",
        "threads=2", "voice_users=12", "data_users=3", "warmup=0.2",
        "measure=0.8"}},
      {"lazy_world",
       {"protocol=charisma", "cells=3", "threads=2", "channel=lazy",
        "voice_users=10", "data_users=2", "warmup=0.2", "measure=0.6"}},
      {"lazy_band_world",
       {"protocol=charisma", "layout=hex", "cells=7", "reuse=3", "band=700",
        "channel=lazy", "threads=2", "voice_users=20", "data_users=4",
        "warmup=0.2", "measure=0.6"}},
      {"compact_rng_world",
       {"protocol=charisma", "cells=3", "threads=2", "traffic_rng=compact",
        "voice_users=10", "data_users=2", "warmup=0.2", "measure=0.6"}},
      {"outage_world",
       {"protocol=charisma", "cells=3", "threads=3", "outage=1:0.5:1.0",
        "flash=750:150:400:4:0.4:1.2", "barring=1", "voice_users=12",
        "data_users=4", "warmup=0.2", "measure=1.2"}},
      {"tsan_world",
       {"protocol=dtdma_fr", "cells=3", "threads=3", "voice_users=12",
        "data_users=4", "warmup=0.2", "measure=0.8"}},
      {"asan_world",
       {"protocol=dtdma_fr", "cells=3", "threads=3", "outage=0:0.4:0.9",
        "voice_users=12", "data_users=4", "warmup=0.2", "measure=1.0"}},
      // The rest of the 16 channel x band x traffic_rng x kmh combinations.
      {"eager_dense_mt_static",
       {"protocol=dtdma_vr", "cells=4", "threads=2", "shards=2", "kmh=0",
        "interference=0.3", "diurnal=0.5:1", "voice_users=12",
        "data_users=3", "warmup=0.2", "measure=0.5"}},
      {"eager_dense_compact_static",
       {"protocol=drma", "cells=3", "threads=3", "shards=1", "kmh=0",
        "traffic_rng=compact", "barring=1", "mmpp_ratio=4",
        "mmpp_sojourn_s=0.3", "voice_users=12", "data_users=4",
        "warmup=0.2", "measure=0.5"}},
      {"eager_band_mt_static",
       {"protocol=rama", "layout=hex", "cells=7", "reuse=3", "band=700",
        "threads=2", "kmh=0", "flash=1900:1900:800:3:0.1:0.6",
        "voice_users=14", "data_users=3", "warmup=0.2", "measure=0.5"}},
      {"eager_band_compact_moving",
       {"protocol=rmav", "layout=hex", "cells=7", "reuse=3", "band=700",
        "threads=4", "shards=3", "traffic_rng=compact", "outage=2:0.3:0.6",
        "voice_users=14", "data_users=3", "warmup=0.2", "measure=0.5"}},
      {"eager_band_compact_static",
       {"protocol=dtdma_vr", "layout=hex", "cells=7", "band=700",
        "threads=2", "kmh=0", "traffic_rng=compact", "mmpp_ratio=3",
        "mmpp_sojourn_s=0.2", "voice_users=14", "data_users=4",
        "warmup=0.2", "measure=0.5"}},
      {"lazy_dense_mt_static",
       {"protocol=drma", "cells=3", "threads=2", "channel=lazy", "kmh=0",
        "interference=0.4", "diurnal=0.4:0.8:1500", "voice_users=12",
        "data_users=3", "warmup=0.2", "measure=0.5"}},
      {"lazy_dense_compact_moving",
       {"protocol=rama", "cells=4", "threads=3", "shards=2", "channel=lazy",
        "traffic_rng=compact", "barring=1", "flash=2000:500:600:3:0.1:0.6",
        "voice_users=12", "data_users=3", "warmup=0.2", "measure=0.5"}},
      {"lazy_dense_compact_static",
       {"protocol=rmav", "cells=3", "threads=2", "channel=lazy", "kmh=0",
        "traffic_rng=compact", "mobility=vector", "voice_users=12",
        "data_users=3", "warmup=0.2", "measure=0.5"}},
      {"lazy_band_mt_static",
       {"protocol=prma", "layout=hex", "cells=7", "reuse=3", "band=700",
        "channel=lazy", "threads=2", "kmh=0", "voice_users=14",
        "data_users=3", "warmup=0.2", "measure=0.5"}},
      {"lazy_band_compact_moving",
       {"protocol=charisma", "layout=hex", "cells=7", "reuse=7", "wrap=1",
        "band=700", "channel=lazy", "traffic_rng=compact", "threads=3",
        "shards=3", "overload=2", "voice_users=7", "data_users=2",
        "warmup=0.2", "measure=0.5"}},
      {"lazy_band_compact_static",
       {"protocol=dtdma_fr", "layout=hex", "cells=7", "reuse=3", "band=700",
        "channel=lazy", "traffic_rng=compact", "kmh=0", "threads=2",
        "barring=1", "voice_users=14", "data_users=3", "warmup=0.2",
        "measure=0.5"}},
      // The MIMD barring loop acting, not only enabled: 300 PRMA voice
      // users per cell.
      {"prma_overload",
       {"protocol=prma", "cells=2", "threads=2", "barring=1", "overload=5",
        "voice_users=120", "data_users=20", "warmup=0.5", "measure=1"},
       true},
  };
  return table;
}

// After every epoch: each cell's engine band matches its bank's active
// rows, every user is attached somewhere, and each arrival is a hand-off
// or an outage eviction from another cell.
void expect_epoch_invariants(mac::CellularWorld& world) {
  int attached = 0;
  for (int c = 0; c < world.num_cells(); ++c) {
    auto& cell = world.cell(c);
    EXPECT_EQ(cell.band_size(), cell.channel_bank().active_count())
        << "cell " << c;
    attached += world.attached_count(c);
  }
  EXPECT_EQ(attached, world.cell(0).params().total_users());
  const auto m = world.aggregate_metrics();
  EXPECT_EQ(m.handoffs_in, m.handoffs_out + m.outage_evictions);
}

struct RowRun {
  std::vector<mac::ProtocolMetrics> cells;
  std::int64_t handoffs = 0;
};

// Runs the row's world the way charisma_sim does (replication 0's seed),
// one epoch at a time through warmup and measurement; stops at the first
// epoch that breaks an invariant.
RowRun run_row(const Knobs& knobs, protocols::ProtocolId id,
               unsigned threads, unsigned shards) {
  auto cfg = knobs.world;
  cfg.params.seed = replication_seed(knobs.run.params.seed, 0, 0);
  cfg.num_threads = threads;
  cfg.num_shards = shards;
  mac::CellularWorld world(cfg, [&](const mac::ScenarioParams& p) {
    return protocols::make_protocol(id, p, knobs.run.charisma);
  });
  const double epoch = cfg.decision_interval;
  const long warmup = std::lround(knobs.run.warmup_s / epoch);
  const long measure = std::lround(knobs.run.measure_s / epoch);
  for (long e = 0; e < warmup + measure && !::testing::Test::HasFailure();
       ++e) {
    if (e == warmup) {
      world.run(0.0, epoch);  // resets the metrics: the window opens
    } else {
      world.advance(epoch);
    }
    expect_epoch_invariants(world);
  }
  RowRun run;
  for (int c = 0; c < world.num_cells(); ++c) {
    run.cells.push_back(world.cell_metrics(c));
  }
  run.handoffs = world.handoffs();
  return run;
}

class Composition : public ::testing::TestWithParam<Row> {};

TEST_P(Composition, Row) {
  const auto knobs = parse_knobs(GetParam().knobs);
  for (const auto id : knobs.protocols) {
    SCOPED_TRACE(protocols::protocol_name(id));
    const auto parallel = run_row(knobs, id, knobs.world.num_threads,
                                  knobs.world.num_shards);
    mac::ProtocolMetrics aggregate;
    for (const auto& m : parallel.cells) aggregate.merge(m);
    EXPECT_TRUE(aggregate.voice_generated > 0 || aggregate.data_generated > 0)
        << "empty measurement window";
    if (GetParam().barring_closes) {
      EXPECT_GT(aggregate.barring_checks, 0) << "the barring gate never closed";
    }

    const auto serial = run_row(knobs, id, 1, 1);
    ASSERT_EQ(serial.cells.size(), parallel.cells.size());
    for (std::size_t c = 0; c < serial.cells.size(); ++c) {
      EXPECT_TRUE(serial.cells[c] == parallel.cells[c]) << "cell " << c;
    }
    EXPECT_EQ(serial.handoffs, parallel.handoffs);
  }
}

INSTANTIATE_TEST_SUITE_P(Table, Composition, ::testing::ValuesIn(rows()),
                         [](const auto& info) {
                           return std::string(info.param.name);
                         });

TEST(CompositionTable, CoversEveryCombination) {
  std::set<std::tuple<bool, bool, bool, bool>> combinations;
  std::map<protocols::ProtocolId, int> protocol_rows;
  std::map<std::string, int> mode_rows;
  for (const auto& row : rows()) {
    const auto knobs = parse_knobs(row.knobs);
    const auto& world = knobs.world;
    combinations.insert({world.params.lazy_channel,
                         world.pilot_band_radius_m > 0.0,
                         world.params.traffic_rng == common::RngKind::kCompact,
                         world.mobility.speed_mps > 0.0});
    for (const auto id : knobs.protocols) ++protocol_rows[id];
    const auto kind = world.modulation.kind;
    using Kind = traffic::TrafficModulationConfig::Kind;
    mode_rows["interference"] += world.interference_activity > 0.0;
    mode_rows["barring"] += world.params.barring.enabled;
    mode_rows["outage"] += !world.outages.empty();
    mode_rows["flash"] += kind == Kind::kFlashCrowd;
    mode_rows["diurnal"] += kind == Kind::kDiurnal;
    mode_rows["mmpp"] += world.params.data_mmpp_rate_ratio > 1.0 &&
                         world.params.data_mmpp_mean_sojourn_s > 0.0;
  }
  EXPECT_EQ(combinations.size(), 16u);
  for (const auto id : protocols::all_protocols()) {
    EXPECT_GE(protocol_rows[id], 2) << protocols::protocol_name(id);
  }
  for (const auto& [mode, count] : mode_rows) {
    EXPECT_GE(count, 2) << mode;
  }
}

}  // namespace
}  // namespace charisma::experiment
