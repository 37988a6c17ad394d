// World-loop scaling bench — the multi-cell epoch loop after PR 4's three
// optimisations (parallel share-nothing cell stepping, the allocation-free
// periodic frame slot, and the batched SNR/pilot plane). Sweeps cells ×
// worker threads on one fixed population, cross-checks that every thread
// count reproduces the serial run bit for bit (the WorkerPool barrier
// design makes that a hard guarantee, and this bench re-verifies it on
// every run), and records the trajectory point as BENCH_world.json.
//
// Knobs (all optional):
//   CHARISMA_BENCH_WORLD_VOICE     voice users in the world (default 96)
//   CHARISMA_BENCH_WORLD_DATA     data users in the world (default 24)
//   CHARISMA_BENCH_WORLD_MEASURE  measured seconds per run (default 8)
//   CHARISMA_BENCH_WORLD_REPS     timing repetitions, min taken (default 3)
//   CHARISMA_BENCH_WORLD_CELLS    comma list of cell counts (default 2,4,8)
//   CHARISMA_BENCH_WORLD_THREADS  comma list of thread counts
//                                 (default 1,2,4,<hardware>)
//   CHARISMA_BENCH_WORLD_SHARDS   comma list of coordinator shard counts
//                                 for the shard-overhead stage (0 resolves
//                                 to hardware; default 1,2,4,<hardware>)
//   CHARISMA_BENCH_WORLD_PROTOCOL protocol id (default dtdma_fr)
//   CHARISMA_BENCH_JSON_DIR       where BENCH_world.json lands (default .)
// Integer knobs take k/M magnitude suffixes (CELLS=1k); malformed values
// and unknown suffixes abort naming the knob.
//
// Shard-overhead stage (PR 9): the world plane (mobility, band rosters,
// pilot filtering, attachment) is computed over coordinator shards whose
// proposals merge in user order — bit-identity is re-verified across the
// shard list on every run (non-zero exit on violation), and the epoch
// wall clock is split into serial-plane (coordinator merge/apply) vs
// sharded world-plane vs per-cell plane/frame buckets.
//
// Memory stage (sparse presence, PR 8): one large hexagonal world with a
// finite pilot-band radius, measured for resident bytes per user against a
// small dense (band=all-cells) calibration world of the same geometry.
// Timing on a 1-CPU container says little; the bytes-per-user ratio is the
// claim. The stage also records the sparse world's construction wall time
// (construct_s, one thread).
//   CHARISMA_BENCH_WORLD_USERS    total users in the memory stage; accepts
//                                 k/M suffixes ("250k", "1M"); 0 skips the
//                                 stage (default 100k, 4:1 voice:data)
//   CHARISMA_BENCH_WORLD_MEMORY_CELLS  hex cells (default 91, a full ring)
//   CHARISMA_BENCH_WORLD_BAND     pilot-band radius in metres (default
//                                 1200 = 1.2x the 1000 m site spacing, a
//                                 7-cell band)
//
// Horizon stage: perfbench metro_world's world shape (37 hex cells, reuse
// 3, band 1200 m, 80 voice + 10 data users per cell, 50 km/h, interference
// 0.4, mt traffic, CHARISMA, 4 threads) run for a long simulated horizon.
// It records current RSS after construction and at 1.25x and 5x the
// MEASURE knob simulated (10 s and 40 s at the default), plus the
// hand-offs so far: memory that grows under mobility shows only there.
// Over the whole horizon it also records the band re-queries per epoch
// (users whose band anchor no longer proved their band unchanged) and
// the sharded world plane's milliseconds per epoch.
// It runs first, before any other stage has freed memory the world could
// reuse.
#include <algorithm>
#include <chrono>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "bench_support.hpp"

namespace {

using namespace charisma;

// The sweep's line world, 1000 m per cell, at vehicular speed with the
// default 100 Hz Doppler.
std::vector<std::string> world_knobs(int cells, unsigned threads, int voice,
                                     int data) {
  return {bench::knob("cells", cells), bench::knob("threads", threads),
          bench::knob("voice_users", voice), bench::knob("data_users", data),
          "seed=2024", "shadow_sigma_db=6", "kmh=90", "doppler_hz=100"};
}

struct Point {
  int cells;
  unsigned threads;
  double wall_s;
  double speedup;        // vs threads=1 at the same cell count
  bool deterministic;    // full aggregate metrics match the serial run
};

// A hexagonal world for the memory stage: interference on, users spread
// over the whole cluster, band radius as given (0 = dense).
std::vector<std::string> memory_knobs(int cells, int voice, int data,
                                      double band_radius_m,
                                      const char* traffic_rng = "mt") {
  return {"layout=hex", bench::knob("cells", cells), "reuse=3",
          bench::knob("band", band_radius_m), bench::knob("voice_users", voice),
          bench::knob("data_users", data),
          std::string("traffic_rng=") + traffic_rng, "seed=2024",
          "shadow_sigma_db=6", "kmh=90", "doppler_hz=100"};
}

struct MemoryProbe {
  long long rss_bytes = 0;   // construction + short-run footprint
  double construct_s = 0.0;  // CellularWorld construction wall time
  double band_cells_mean = 0.0;
  int users = 0;
};

// Builds the world, runs a couple of epochs (mobility moves, bands churn,
// traffic of attached users materializes), and returns the RSS delta while
// the world is alive. The delta can be understated by allocator reuse of
// earlier frees, so callers should probe smaller worlds first.
MemoryProbe probe_memory(const std::vector<std::string>& knobs,
                         protocols::ProtocolId protocol) {
  const auto cfg = experiment::parse_knobs(knobs).world;
  const long long before = bench::current_rss_bytes();
  const auto start = std::chrono::steady_clock::now();
  mac::CellularWorld world(cfg, [&](const mac::ScenarioParams& p) {
    return protocols::make_protocol(protocol, p);
  });
  MemoryProbe probe;
  probe.construct_s = std::chrono::duration<double>(
                          std::chrono::steady_clock::now() - start)
                          .count();
  world.run(0.0, 2.0 * cfg.decision_interval);
  probe.rss_bytes = bench::current_rss_bytes() - before;
  probe.users = cfg.params.num_voice_users + cfg.params.num_data_users;
  std::size_t band_total = 0;
  for (int u = 0; u < probe.users; ++u) {
    band_total += world.band_cells(static_cast<common::UserId>(u)).size();
  }
  probe.band_cells_mean =
      probe.users > 0
          ? static_cast<double>(band_total) / static_cast<double>(probe.users)
          : 0.0;
  return probe;
}

// The horizon stage's world: perfbench metro_world's at this bench's seed.
const std::vector<std::string> kHorizonKnobs = {
    "protocol=charisma", "layout=hex", "cells=37", "reuse=3", "band=1200",
    "voice_users=2960", "data_users=370", "threads=4", "seed=2024"};

struct HorizonProbe {
  double short_s = 0.0;
  double long_s = 0.0;
  int cells = 0;
  int users = 0;
  long long rss_before_bytes = 0;  // the process before construction
  long long rss_construct_bytes = 0;
  long long rss_short_bytes = 0;
  long long rss_long_bytes = 0;
  std::int64_t handoffs = 0;
  double band_queries_per_epoch = 0.0;
  double shard_plane_ms_per_epoch = 0.0;
};

HorizonProbe probe_horizon(double short_s, double long_s) {
  HorizonProbe probe;
  probe.short_s = short_s;
  probe.long_s = long_s;
  probe.rss_before_bytes = bench::current_rss_bytes();
  const auto knobs = experiment::parse_knobs(kHorizonKnobs);
  probe.cells = knobs.world.num_cells;
  probe.users = knobs.world.params.total_users();
  mac::CellularWorld world(knobs.world, [&](const mac::ScenarioParams& p) {
    return protocols::make_protocol(knobs.protocols.front(), p);
  });
  probe.rss_construct_bytes = bench::current_rss_bytes();
  world.advance(short_s);
  probe.rss_short_bytes = bench::current_rss_bytes();
  world.advance(long_s - short_s);
  probe.rss_long_bytes = bench::current_rss_bytes();
  probe.handoffs = world.handoffs();
  const auto& timings = world.epoch_timings();
  const double epochs =
      static_cast<double>(std::max<std::uint64_t>(1, timings.epochs));
  probe.band_queries_per_epoch =
      static_cast<double>(world.band_queries()) / epochs;
  probe.shard_plane_ms_per_epoch = timings.shard_plane_s * 1e3 / epochs;
  return probe;
}

// The bit-identical cross-check is ProtocolMetrics::operator== — the same
// exact, every-field equality the determinism test uses.

}  // namespace

static int bench_main() {
  bench::print_banner(
      "World-loop scaling: parallel cells, allocation-free frames, "
      "batched pilots",
      "CHARISMA extension (no paper figure); PR 4 trajectory point");

  const int voice = bench::env_count_int("CHARISMA_BENCH_WORLD_VOICE", 96);
  const int data = bench::env_count_int("CHARISMA_BENCH_WORLD_DATA", 24);
  const double measure_s =
      bench::env_real("CHARISMA_BENCH_WORLD_MEASURE", 8.0);
  const int reps =
      std::max(1, bench::env_count_int("CHARISMA_BENCH_WORLD_REPS", 3));
  const double warmup_s = std::min(0.5, measure_s * 0.25);
  const unsigned hardware =
      std::max(1u, std::thread::hardware_concurrency());
  const char* protocol_name = std::getenv("CHARISMA_BENCH_WORLD_PROTOCOL");
  const auto protocol = protocols::parse_protocol(
      protocol_name != nullptr ? protocol_name : "dtdma_fr");

  auto cells_list = bench::env_list("CHARISMA_BENCH_WORLD_CELLS", "2,4,8");
  auto threads_list = bench::env_list("CHARISMA_BENCH_WORLD_THREADS",
                                      "1,2,4," + std::to_string(hardware));
  // 0 means hardware concurrency everywhere else; resolve it here so the
  // sort below cannot place a "0" entry ahead of the serial reference.
  for (unsigned& t : threads_list) {
    if (t == 0) t = hardware;
  }
  // The serial run is the determinism/speedup reference; always measure it
  // first, even when the env list omits it.
  threads_list.push_back(1);
  std::sort(threads_list.begin(), threads_list.end());
  threads_list.erase(std::unique(threads_list.begin(), threads_list.end()),
                     threads_list.end());

  const auto horizon = probe_horizon(1.25 * measure_s, 5.0 * measure_s);
  const auto mib = [](long long bytes) {
    return common::TextTable::num(static_cast<double>(bytes) / (1 << 20), 1);
  };
  std::cout << "horizon (metro_world shape, " << horizon.users
            << " users): current RSS " << mib(horizon.rss_construct_bytes)
            << " MiB after construction, " << mib(horizon.rss_short_bytes)
            << " MiB at " << horizon.short_s << " s, "
            << mib(horizon.rss_long_bytes) << " MiB at " << horizon.long_s
            << " s simulated; " << horizon.handoffs << " hand-offs; "
            << common::TextTable::num(horizon.band_queries_per_epoch, 1)
            << " band re-queries and "
            << common::TextTable::num(horizon.shard_plane_ms_per_epoch, 3)
            << " ms of sharded world plane per epoch\n\n";

  std::cout << "population: " << voice << " voice + " << data
            << " data users, measure " << measure_s
            << " s, hardware concurrency " << hardware << "\n\n";

  common::TextTable table("Epoch-loop wall clock, cells x threads");
  table.set_header({"cells", "threads", "wall (s)", "epochs/s",
                    "speedup vs 1T", "bit-identical"});

  std::vector<Point> points;
  for (int cells : cells_list) {
    double ref_wall = 0.0;
    mac::ProtocolMetrics ref_metrics;
    std::int64_t ref_handoffs = 0;
    for (unsigned threads : threads_list) {
      // Fresh world per repetition (identical seed); min wall clock
      // filters scheduler noise and first-touch warmup.
      const auto cfg =
          experiment::parse_knobs(world_knobs(cells, threads, voice, data))
              .world;
      double best_wall = 0.0;
      mac::ProtocolMetrics m;
      std::int64_t handoffs = 0;
      for (int rep = 0; rep < reps; ++rep) {
        mac::CellularWorld world(cfg, [&](const mac::ScenarioParams& p) {
          return protocols::make_protocol(protocol, p);
        });
        const auto start = std::chrono::steady_clock::now();
        world.run(warmup_s, measure_s);
        const std::chrono::duration<double> wall =
            std::chrono::steady_clock::now() - start;
        if (rep == 0 || wall.count() < best_wall) best_wall = wall.count();
        m = world.aggregate_metrics();
        handoffs = world.handoffs();
      }

      Point point{cells, threads, best_wall, 1.0, true};
      if (threads == threads_list.front()) {  // the serial reference
        ref_wall = best_wall;
        ref_metrics = m;
        ref_handoffs = handoffs;
      }
      point.speedup = ref_wall / point.wall_s;
      point.deterministic = m == ref_metrics && handoffs == ref_handoffs;
      points.push_back(point);

      const double epochs =
          (warmup_s + measure_s) / cfg.decision_interval;
      table.add_row({common::TextTable::num(cells, 0),
                     common::TextTable::num(threads, 0),
                     common::TextTable::num(point.wall_s, 4),
                     common::TextTable::num(epochs / point.wall_s, 1),
                     common::TextTable::num(point.speedup, 2),
                     point.deterministic ? "yes" : "NO"});
    }
  }
  table.print(std::cout);
  bench::maybe_write_csv(table, "bench_world");

  bool all_deterministic = true;
  double best_speedup = 0.0;
  int best_cells = 0;
  unsigned best_threads = 0;
  for (const auto& p : points) {
    all_deterministic = all_deterministic && p.deterministic;
    if (p.cells >= 4 && p.threads >= 4 && p.speedup > best_speedup) {
      best_speedup = p.speedup;
      best_cells = p.cells;
      best_threads = p.threads;
    }
  }
  std::cout << "\nall thread counts bit-identical to serial: "
            << (all_deterministic ? "yes" : "NO — BUG") << '\n';
  if (best_threads != 0) {
    std::cout << "best >=4-cell/>=4-thread speedup: "
              << common::TextTable::num(best_speedup, 2) << "x (" << best_cells
              << " cells, " << best_threads << " threads)";
    if (hardware < 4) {
      std::cout << " — this host exposes only " << hardware
                << " CPU(s); thread scaling cannot show here";
    }
    std::cout << '\n';
  }

  // --- Shard-overhead stage: the coordinator plane, split over shards ---
  // threads=1 on purpose: with the pool out of the picture this measures
  // the pure cost of the propose/merge split (arena writes + coordinator
  // replay) against the monolithic serial plane, which is the regression
  // the 1-CPU container can actually catch. Bit-identity across the shard
  // list is re-verified on every run and feeds the exit code.
  auto shards_list = bench::env_list("CHARISMA_BENCH_WORLD_SHARDS",
                                     "1,2,4," + std::to_string(hardware));
  for (unsigned& s : shards_list) {
    if (s == 0) s = hardware;  // 0 = auto resolves to hardware, like threads
  }
  shards_list.push_back(1);  // the serial-plane reference, always first
  std::sort(shards_list.begin(), shards_list.end());
  shards_list.erase(std::unique(shards_list.begin(), shards_list.end()),
                    shards_list.end());

  struct ShardPoint {
    unsigned shards;
    double wall_s;
    double overhead;        // wall / shards=1 wall - 1 (noise floor: the
                            // cell plane dwarfs the world plane)
    double plane_overhead;  // (serial+shard plane s) / shards=1 - 1 — the
                            // coordinator cost the shard knob actually moves
    mac::CellularWorld::EpochTimings timings;
    bool deterministic;
  };
  const int shard_cells =
      cells_list.empty() ? 4 : static_cast<int>(cells_list.front());
  common::TextTable shard_table(
      "Coordinator shard overhead (threads=1, " +
      std::to_string(shard_cells) + " cells); epoch split serial/shard/cell");
  shard_table.set_header({"shards", "wall (s)", "wall ovh", "plane ovh",
                          "serial ms/ep", "shard ms/ep", "cell ms/ep",
                          "bit-identical"});
  std::vector<ShardPoint> shard_points;
  double shard_ref_wall = 0.0;
  double shard_ref_plane = 0.0;
  mac::ProtocolMetrics shard_ref_metrics;
  std::int64_t shard_ref_handoffs = 0;
  for (unsigned shards : shards_list) {
    auto cfg = experiment::parse_knobs(
                   world_knobs(shard_cells, /*threads=*/1, voice, data))
                   .world;
    cfg.num_shards = shards;
    double best_wall = 0.0;
    double best_plane = 0.0;  // min over reps, like the wall
    mac::CellularWorld::EpochTimings timings{};
    mac::ProtocolMetrics m;
    std::int64_t handoffs = 0;
    for (int rep = 0; rep < reps; ++rep) {
      mac::CellularWorld world(cfg, [&](const mac::ScenarioParams& p) {
        return protocols::make_protocol(protocol, p);
      });
      const auto start = std::chrono::steady_clock::now();
      world.run(warmup_s, measure_s);
      const std::chrono::duration<double> wall =
          std::chrono::steady_clock::now() - start;
      if (rep == 0 || wall.count() < best_wall) {
        best_wall = wall.count();
        timings = world.epoch_timings();
      }
      const auto t = world.epoch_timings();
      const double plane = t.serial_plane_s + t.shard_plane_s;
      if (rep == 0 || plane < best_plane) best_plane = plane;
      m = world.aggregate_metrics();
      handoffs = world.handoffs();
    }
    if (shards == shards_list.front()) {
      shard_ref_wall = best_wall;
      shard_ref_plane = best_plane;
      shard_ref_metrics = m;
      shard_ref_handoffs = handoffs;
    }
    ShardPoint point{shards, best_wall, best_wall / shard_ref_wall - 1.0,
                     shard_ref_plane > 0.0
                         ? best_plane / shard_ref_plane - 1.0
                         : 0.0,
                     timings,
                     m == shard_ref_metrics && handoffs == shard_ref_handoffs};
    shard_points.push_back(point);
    const double epochs =
        timings.epochs > 0 ? static_cast<double>(timings.epochs) : 1.0;
    shard_table.add_row(
        {common::TextTable::num(shards, 0),
         common::TextTable::num(point.wall_s, 4),
         common::TextTable::num(point.overhead * 100.0, 1) + "%",
         common::TextTable::num(point.plane_overhead * 100.0, 1) + "%",
         common::TextTable::num(timings.serial_plane_s * 1e3 / epochs, 3),
         common::TextTable::num(timings.shard_plane_s * 1e3 / epochs, 3),
         common::TextTable::num(timings.cell_plane_s * 1e3 / epochs, 3),
         point.deterministic ? "yes" : "NO"});
  }
  std::cout << '\n';
  shard_table.print(std::cout);

  double max_shard_overhead = 0.0;
  double max_plane_overhead = 0.0;
  for (const auto& p : shard_points) {
    all_deterministic = all_deterministic && p.deterministic;
    max_shard_overhead = std::max(max_shard_overhead, p.overhead);
    max_plane_overhead = std::max(max_plane_overhead, p.plane_overhead);
  }
  std::cout << "all shard counts bit-identical to the serial plane: "
            << (shard_points.back().deterministic && all_deterministic
                    ? "yes"
                    : "NO — BUG")
            << "\nmax sharding overhead vs shards=1 (threads=1): "
            << common::TextTable::num(max_plane_overhead * 100.0, 1)
            << "% of the world plane (wall-clock delta "
            << common::TextTable::num(max_shard_overhead * 100.0, 1)
            << "%, noise-dominated by the cell plane on small worlds)\n";

  // --- Memory stage: sparse presence bytes/user vs a dense calibration ---
  const long long mem_users =
      bench::env_count("CHARISMA_BENCH_WORLD_USERS", 100'000);
  const int mem_cells =
      bench::env_count_int("CHARISMA_BENCH_WORLD_MEMORY_CELLS", 91);
  const double band_radius_m =
      bench::env_real("CHARISMA_BENCH_WORLD_BAND", 1200.0);
  std::ostringstream memory_fields;
  if (mem_users > 0) {
    const int total = static_cast<int>(mem_users);
    const int mem_voice = total - total / 5;
    const int mem_data = total - mem_voice;
    // Dense calibration first: a band=all-cells world at 1/50 the
    // population calibrates what dense state costs per user at this cell
    // count (the full population would need cells/band times the sparse
    // footprint — tens of GB). Probing small-before-large bounds the
    // allocator-reuse error: the sparse probe can hide at most the freed
    // calibration footprint, ~2% of its own.
    const int cal_users = std::max(200, total / 50);
    const int cal_voice = cal_users - cal_users / 5;
    const auto dense_probe = probe_memory(
        memory_knobs(mem_cells, cal_voice, cal_users - cal_voice, 0.0),
        protocol);
    // Compact before mt: probing the smaller world first bounds the
    // allocator-reuse understatement for both sparse probes.
    const auto compact_probe = probe_memory(
        memory_knobs(mem_cells, mem_voice, mem_data, band_radius_m,
                      "compact"),
        protocol);
    const auto sparse_probe = probe_memory(
        memory_knobs(mem_cells, mem_voice, mem_data, band_radius_m),
        protocol);
    const double dense_bpu =
        static_cast<double>(dense_probe.rss_bytes) / dense_probe.users;
    const double sparse_bpu =
        static_cast<double>(sparse_probe.rss_bytes) / sparse_probe.users;
    const double compact_bpu =
        static_cast<double>(compact_probe.rss_bytes) / compact_probe.users;
    const double ratio = sparse_bpu > 0.0 ? dense_bpu / sparse_bpu : 0.0;
    const double compact_ratio =
        compact_bpu > 0.0 ? sparse_bpu / compact_bpu : 0.0;
    std::cout << "\nmemory (sparse presence): " << total << " users, "
              << mem_cells << " hex cells, band radius " << band_radius_m
              << " m (mean " << common::TextTable::num(
                     sparse_probe.band_cells_mean, 2)
              << " cells/user)\n  sparse: "
              << common::TextTable::num(sparse_bpu / 1024.0, 1)
              << " KiB/user   dense model (" << dense_probe.users
              << "-user calibration, " << common::TextTable::num(
                     dense_probe.band_cells_mean, 0)
              << " cells/user): "
              << common::TextTable::num(dense_bpu / 1024.0, 1)
              << " KiB/user   ratio "
              << common::TextTable::num(ratio, 2) << "x\n  traffic_rng=compact: "
              << common::TextTable::num(compact_bpu / 1024.0, 2)
              << " KiB/user   mt/compact ratio "
              << common::TextTable::num(compact_ratio, 2) << "x\n"
              << "  construction: "
              << common::TextTable::num(sparse_probe.construct_s, 3)
              << " s at 1 thread\n";
    memory_fields << ",\n      \"peak_rss_bytes\": " << bench::peak_rss_bytes()
                  << ",\n      \"construct_s\": " << sparse_probe.construct_s
                  << ",\n      \"memory\": {\"users\": " << total
                  << ", \"cells\": " << mem_cells
                  << ", \"band_radius_m\": " << band_radius_m
                  << ", \"band_cells_mean\": " << sparse_probe.band_cells_mean
                  << ", \"bytes_per_user\": " << sparse_bpu
                  << ", \"dense_model_bytes_per_user\": " << dense_bpu
                  << ", \"dense_over_sparse_ratio\": " << ratio
                  << ", \"compact_bytes_per_user\": " << compact_bpu
                  << ", \"mt_over_compact_ratio\": " << compact_ratio << "}";
  }

  std::ostringstream fields;
  fields << "\"protocol\": \"" << protocols::protocol_name(protocol)
         << "\",\n      \"voice_users\": " << voice
         << ",\n      \"data_users\": " << data
         << ",\n      \"measure_s\": " << measure_s
         << ",\n      \"hardware_concurrency\": " << hardware
         << memory_fields.str()
         << ",\n      \"horizon\": {\"cells\": " << horizon.cells
         << ", \"users\": " << horizon.users
         << ", \"protocol\": \"CHARISMA\", \"threads\": 4"
         << ", \"rss_before_bytes\": " << horizon.rss_before_bytes
         << ", \"rss_construct_bytes\": " << horizon.rss_construct_bytes
         << ", \"short_s\": " << horizon.short_s
         << ", \"rss_short_bytes\": " << horizon.rss_short_bytes
         << ", \"long_s\": " << horizon.long_s
         << ", \"rss_long_bytes\": " << horizon.rss_long_bytes
         << ", \"handoffs\": " << horizon.handoffs
         << ", \"band_queries_per_epoch\": " << horizon.band_queries_per_epoch
         << ", \"shard_plane_ms_per_epoch\": "
         << horizon.shard_plane_ms_per_epoch << "}"
         << ",\n      \"all_thread_counts_bit_identical_to_serial\": "
         << (all_deterministic ? "true" : "false")
         << ",\n      \"best_speedup_cells4plus_threads4plus\": "
         << best_speedup
         << ",\n      \"max_shard_overhead_vs_serial_plane\": "
         << max_plane_overhead
         << ",\n      \"max_shard_wall_overhead_vs_shards1\": "
         << max_shard_overhead
         << ",\n      \"shard_stage\": {\"cells\": " << shard_cells
         << ", \"threads\": 1, \"points\": [\n";
  for (std::size_t i = 0; i < shard_points.size(); ++i) {
    const auto& p = shard_points[i];
    const double epochs =
        p.timings.epochs > 0 ? static_cast<double>(p.timings.epochs) : 1.0;
    fields << "        {\"shards\": " << p.shards << ", \"wall_s\": "
           << p.wall_s << ", \"overhead_vs_shards1\": " << p.overhead
           << ", \"plane_overhead_vs_shards1\": " << p.plane_overhead
           << ", \"serial_plane_ms_per_epoch\": "
           << p.timings.serial_plane_s * 1e3 / epochs
           << ", \"shard_plane_ms_per_epoch\": "
           << p.timings.shard_plane_s * 1e3 / epochs
           << ", \"cell_plane_ms_per_epoch\": "
           << p.timings.cell_plane_s * 1e3 / epochs
           << ", \"bit_identical\": " << (p.deterministic ? "true" : "false")
           << "}" << (i + 1 < shard_points.size() ? "," : "") << "\n";
  }
  fields << "      ]},\n      \"points\": [\n";
  for (std::size_t i = 0; i < points.size(); ++i) {
    const auto& p = points[i];
    fields << "        {\"cells\": " << p.cells << ", \"threads\": "
           << p.threads << ", \"wall_s\": " << p.wall_s
           << ", \"speedup_vs_serial\": " << p.speedup
           << ", \"bit_identical_to_serial\": "
           << (p.deterministic ? "true" : "false") << "}"
           << (i + 1 < points.size() ? "," : "") << "\n";
  }
  fields << "      ]";
  bench::append_trajectory_point("world_epoch_loop", "BENCH_world",
                                 fields.str());
  return all_deterministic ? 0 : 1;
}

int main() { return charisma::bench::guarded_main(bench_main); }
