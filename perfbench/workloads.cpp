#include "workloads.hpp"

#include <algorithm>
#include <functional>
#include <memory>
#include <numeric>
#include <sstream>
#include <stdexcept>
#include <thread>

#include "channel/channel_bank.hpp"
#include "common/units.hpp"
#include "experiment/parallel.hpp"
#include "experiment/runner.hpp"
#include "experiment/sweep.hpp"
#include "experiment/worker_pool.hpp"
#include "mac/cellular_world.hpp"
#include "mac/site_layout.hpp"
#include "protocols/factory.hpp"

namespace perfbench {
namespace {

using namespace charisma;
using protocols::ProtocolId;

std::string fmt(double v, int precision = 6) {
  std::ostringstream s;
  s.precision(precision);
  s << v;
  return s.str();
}

/// Set-ups timed per run; setup_s is their median.
constexpr int kSetupSamples = 20;

Check check(std::string name, bool ok, std::string detail) {
  return {std::move(name), ok, std::move(detail)};
}

/// Voice packets delivered or lost never exceed those generated. Holds
/// exactly only for a window that starts at construction: a window opened
/// by a metrics reset also counts the outcomes of packets generated before
/// it, so the check is applied to warmup windows.
bool voice_accounting_holds(const mac::ProtocolMetrics& m) {
  return m.voice_delivered + m.voice_dropped_deadline + m.voice_error_lost +
             m.voice_dropped_handoff + m.voice_dropped_outage <=
         m.voice_generated;
}

// ------------------------------------------------------------ frame tracing

/// Per-layer counters of a traced run, accumulated per job (or per probe)
/// and summed afterwards.
struct LayerStats {
  double busy_s = 0.0;     ///< the whole job, as the runner lane sees it
  double channel_s = 0.0;  ///< ChannelBank::advance_all_to pre-advances
  double mac_s = 0.0;      ///< ProtocolEngine::advance_by
  std::int64_t frames = 0;
  std::int64_t user_frames = 0;    ///< attached-user-frames
  std::int64_t channel_jumps = 0;  ///< jumps executed by the pre-advances
  std::int64_t jump_events = 0;    ///< bank totals (lazy_stats)
  std::int64_t jump_frames = 0;
  /// Replications whose voice accounting failed (see voice_accounting_holds).
  std::int64_t voice_violations = 0;

  void add(const LayerStats& o) {
    busy_s += o.busy_s;
    channel_s += o.channel_s;
    mac_s += o.mac_s;
    frames += o.frames;
    user_frames += o.user_frames;
    channel_jumps += o.channel_jumps;
    jump_events += o.jump_events;
    jump_frames += o.jump_frames;
    voice_violations += o.voice_violations;
  }
};

/// Runs an engine one frame per advance_by call, splitting host time into
/// the channel layer and the rest of the frame. Before each frame the
/// harness advances the channel bank to the frame's start (timed as
/// channel); advance_by then runs the frame (timed as mac), and the
/// frame's own advance_all_to finds the bank already there. The bank lands
/// on the same grid point either way, so the run's results are unchanged
/// — the traced run's metrics digest must equal the untraced one's.
///
/// Frame k + 1 starts at (start of frame k) + (frame k's duration), the
/// duration being read off ProtocolMetrics::measured_time.
class FrameStepper {
 public:
  /// `next_frame` is the start time of the engine's next frame.
  explicit FrameStepper(double next_frame) : next_frame_(next_frame) {}

  /// Advances to absolute time `until` exactly as one
  /// advance_by(until - now()) would: the same frames run and the clock
  /// parks at `until`. `pre_advance` false times the frames as one mac
  /// span each without touching the bank (the lazy bank must not be
  /// advanced wholesale).
  void run_to(mac::ProtocolEngine& engine, double until, bool pre_advance,
              LayerStats& stats) {
    auto& bank = engine.channel_bank();
    // Frames well inside the window are stepped one by one; a frame
    // within kEdge of `until` is left to the closing advance_by, so that
    // whether it runs is decided by the simulator's own comparison.
    while (next_frame_ + kEdge < until) {
      const auto c0 = Clock::now();
      const std::int64_t jumps0 = bank.lazy_stats().jump_events;
      if (pre_advance) bank.advance_all_to(next_frame_);
      const std::int64_t jumps1 = bank.lazy_stats().jump_events;
      const auto c1 = Clock::now();
      step(engine, next_frame_ + kInside - engine.now(), 1);
      const auto c2 = Clock::now();
      stats.channel_s += seconds_between(c0, c1);
      stats.mac_s += seconds_between(c1, c2);
      stats.channel_jumps += jumps1 - jumps0;
    }
    const auto c0 = Clock::now();
    step(engine, until - engine.now(), -1);
    stats.mac_s += seconds_between(c0, Clock::now());
  }

 private:
  /// Start each step just past the frame start, far below any frame
  /// duration, so one step runs exactly one frame.
  static constexpr double kInside = 1e-7;
  static constexpr double kEdge = 1e-6;

  /// advance_by(duration), moving next_frame_ past the frames it ran;
  /// `expect` = 1 requires exactly one frame, -1 allows zero or one.
  void step(mac::ProtocolEngine& engine, double duration, int expect) {
    const double measured0 = engine.metrics().measured_time;
    const auto frame0 = engine.frame_index();
    engine.advance_by(duration);
    const auto ran = engine.frame_index() - frame0;
    if ((expect == 1 && ran != 1) || ran > 1) {
      throw std::runtime_error("traced frame stepping ran " +
                               std::to_string(ran) +
                               " frames in one step; expected one");
    }
    if (ran == 1) next_frame_ += engine.metrics().measured_time - measured0;
  }

  double next_frame_;
};

// -------------------------------------------------------------- paper_grid

constexpr int kGridVoiceUsers[] = {10, 40, 70, 90, 110, 130, 150, 170};
constexpr int kGridDataUsers = 10;

experiment::SweepConfig grid_config(std::uint64_t seed) {
  experiment::SweepConfig config;
  config.spec.params.num_data_users = kGridDataUsers;
  config.spec.params.request_queue = true;
  config.spec.params.seed = seed;
  config.spec.warmup_s = 3.0;
  config.spec.measure_s = 15.0;
  config.spec.replications = 2;
  config.axis = experiment::SweepAxis::kVoiceUsers;
  config.x_values.assign(std::begin(kGridVoiceUsers),
                         std::end(kGridVoiceUsers));
  config.protocols_to_run = protocols::all_protocols();
  return config;
}

/// Simulated seconds one sweep runs: every cell's replications, each
/// warmup + measure.
double grid_horizon_s(const experiment::SweepConfig& config) {
  return static_cast<double>(config.x_values.size() *
                             config.protocols_to_run.size()) *
         config.spec.replications *
         (config.spec.warmup_s + config.spec.measure_s);
}

/// One replication as experiment::run_replications runs it.
/// ProtocolEngine::run(warmup, measure) is advance_by(warmup), a metrics
/// reset, advance_by(measure); it is spelled out here so the warmup's
/// user-frames are counted too and the traced run can step frames.
mac::ProtocolMetrics run_replication(ProtocolId id,
                                     const experiment::RunSpec& spec,
                                     std::uint64_t point_key, int rep,
                                     bool traced, LayerStats& stats) {
  mac::ScenarioParams params = spec.params;
  params.seed = experiment::replication_seed(spec.params.seed, point_key, rep);
  auto engine = protocols::make_protocol(id, params, spec.charisma);
  FrameStepper stepper(engine->now());
  const auto advance = [&](double duration) {
    if (traced) {
      stepper.run_to(*engine, engine->now() + duration, true, stats);
    } else {
      engine->advance_by(duration);
    }
    stats.frames += engine->metrics().frames;
    stats.user_frames += engine->metrics().attached_user_frames;
  };
  advance(spec.warmup_s);
  if (!voice_accounting_holds(engine->metrics())) ++stats.voice_violations;
  engine->reset_metrics();
  advance(spec.measure_s);
  const auto lazy = engine->channel_bank().lazy_stats();
  stats.jump_events += lazy.jump_events;
  stats.jump_frames += lazy.jump_frames;
  return engine->metrics();
}

struct SweepRun {
  double wall_s = 0.0;
  std::vector<experiment::SweepCell> cells;
  std::vector<LayerStats> jobs;  ///< one per cell (= per runner job)
  std::vector<double> job_s;
  bool frames_ok = true;
  bool voice_ok = true;
};

std::string sweep_digest(const std::vector<experiment::SweepCell>& cells) {
  Digest d;
  for (const auto& cell : cells) {
    d.add(cell.x);
    d.add(protocols::protocol_name(cell.protocol));
    d.add(cell.result);
  }
  return d.hex();
}

/// The sweep through experiment::run_sweep itself.
SweepRun run_sweep_once(const experiment::SweepConfig& config,
                        const experiment::ParallelRunner& runner) {
  SweepRun run;
  const auto t0 = Clock::now();
  run.cells = experiment::run_sweep(config, runner);
  run.wall_s = seconds_between(t0, Clock::now());
  return run;
}

/// The same grid as run_sweep — the same cells in the same order, the same
/// per-cell point keys, one ParallelRunner job per cell — with each job
/// wrapped in a timer (and, traced, stepped frame by frame).
SweepRun run_wrapped_sweep(const experiment::SweepConfig& config,
                           const experiment::ParallelRunner& runner,
                           bool traced, SpanLog* spans) {
  const std::size_t n = config.x_values.size() * config.protocols_to_run.size();
  SweepRun run;
  run.cells.resize(n);
  run.jobs.resize(n);
  run.job_s.resize(n);
  std::vector<Clock::time_point> starts(n);
  std::vector<Clock::time_point> ends(n);
  std::vector<std::thread::id> lanes(n);
  std::vector<char> frames_ok(n, 1);
  std::vector<std::function<void()>> jobs;
  jobs.reserve(n);
  std::size_t k = 0;
  for (std::size_t xi = 0; xi < config.x_values.size(); ++xi) {
    for (const auto protocol : config.protocols_to_run) {
      run.cells[k].x = config.x_values[xi];
      run.cells[k].protocol = protocol;
      jobs.push_back([&, xi, protocol, k] {
        starts[k] = Clock::now();
        lanes[k] = std::this_thread::get_id();
        experiment::RunSpec spec = config.spec;
        spec.params.num_voice_users = config.x_values[xi];
        experiment::ReplicatedResult result;
        result.protocol = protocols::protocol_name(protocol);
        result.num_voice_users = spec.params.num_voice_users;
        result.num_data_users = spec.params.num_data_users;
        result.request_queue = spec.params.request_queue;
        for (int rep = 0; rep < spec.replications; ++rep) {
          const auto m = run_replication(protocol, spec, xi, rep, traced,
                                         run.jobs[k]);
          if (m.frames <= 0) frames_ok[k] = 0;
          result.add(m);
        }
        run.cells[k].result = std::move(result);
        ends[k] = Clock::now();
      });
      ++k;
    }
  }
  const auto t0 = Clock::now();
  runner.run(jobs);
  const auto t1 = Clock::now();
  run.wall_s = seconds_between(t0, t1);
  for (std::size_t i = 0; i < n; ++i) {
    run.job_s[i] = seconds_between(starts[i], ends[i]);
    run.jobs[i].busy_s = run.job_s[i];
    run.frames_ok = run.frames_ok && frames_ok[i];
    run.voice_ok = run.voice_ok && run.jobs[i].voice_violations == 0;
  }
  if (spans != nullptr) {
    const int sweep = spans->add(traced ? "sweep.traced" : "sweep", t0, t1);
    std::vector<std::thread::id> seen;
    for (std::size_t i = 0; i < n; ++i) {
      auto lane = std::find(seen.begin(), seen.end(), lanes[i]);
      if (lane == seen.end()) lane = seen.insert(seen.end(), lanes[i]);
      spans->add("job." + run.cells[i].result.protocol + ".nv" +
                     std::to_string(run.cells[i].x),
                 starts[i], ends[i], sweep,
                 static_cast<int>(lane - seen.begin()) + 1);
    }
  }
  return run;
}

/// Engine construction for every replication of the grid, serially: the
/// set-up each job pays before its first frame.
double grid_setup_s(const experiment::SweepConfig& config) {
  const auto t0 = Clock::now();
  for (std::size_t xi = 0; xi < config.x_values.size(); ++xi) {
    for (const auto protocol : config.protocols_to_run) {
      for (int rep = 0; rep < config.spec.replications; ++rep) {
        mac::ScenarioParams params = config.spec.params;
        params.num_voice_users = config.x_values[xi];
        params.seed = experiment::replication_seed(config.spec.params.seed,
                                                   xi, rep);
        protocols::make_protocol(protocol, params, config.spec.charisma);
      }
    }
  }
  return seconds_between(t0, Clock::now());
}

void add_grid_model(const experiment::SweepConfig& config,
                    const std::vector<experiment::SweepCell>& cells,
                    JsonObject& model) {
  // Fig. 11d: voice loss per protocol over N_v; data throughput per frame.
  // Replication means, as charisma_sim's sweep table prints them.
  for (const auto protocol : config.protocols_to_run) {
    std::string loss;
    std::string tput;
    for (const auto& cell : cells) {
      if (cell.protocol != protocol) continue;
      if (!loss.empty()) {
        loss += ",";
        tput += ",";
      }
      loss += fmt(cell.result.voice_loss.mean(), 4);
      tput += fmt(cell.result.data_throughput.mean(), 4);
    }
    const auto name = protocols::protocol_name(protocol);
    model.str("voice_loss." + name, loss);
    model.str("data_throughput." + name, tput);
  }
}

WorkloadResult run_paper_grid(const RunOptions& options) {
  WorkloadResult out;
  const auto config = grid_config(options.seed);
  const experiment::ParallelRunner runner(options.threads);
  const double horizon = grid_horizon_s(config);
  const std::size_t jobs_per_sweep =
      config.x_values.size() * config.protocols_to_run.size();
  // The budget fixes the number of sweeps (each 3-5 s on 4 threads of the
  // 4-vCPU x86-64 VM this was tuned on), never the host's speed.
  const int sweeps = std::max(2, options.seconds * 3 / 10);

  std::string nv;
  for (int x : config.x_values) nv += (nv.empty() ? "" : ",") + std::to_string(x);
  out.model.str("voice_users", nv);

  // Every sweep runs the same grid from the same seed, so every sweep must
  // reproduce the first run_sweep's digest, the wrapped ones included.
  std::string digest;
  std::vector<experiment::SweepCell> reference;
  bool sweeps_equal = true;
  bool frames_ok = true;
  bool voice_ok = true;
  const auto sweep = [&] {
    auto run = run_sweep_once(config, runner);
    if (digest.empty()) {
      digest = sweep_digest(run.cells);
      reference = run.cells;
    }
    sweeps_equal = sweeps_equal && sweep_digest(run.cells) == digest;
    for (const auto& cell : run.cells) {
      // mean_materialization_stride() is 0 on an empty window, 1 under eager.
      frames_ok = frames_ok &&
                  cell.result.replications == config.spec.replications &&
                  cell.result.materialization_stride.min() > 0.0;
    }
    return run;
  };
  const auto wrapped_checks = [&](const SweepRun& run) {
    frames_ok = frames_ok && run.frames_ok;
    voice_ok = voice_ok && run.voice_ok;
  };

  if (!options.trace) {
    std::vector<double> setups;
    for (int i = 0; i < kSetupSamples; ++i) setups.push_back(grid_setup_s(config));

    // Every timed sweep is experiment::run_sweep itself. A sweep's
    // attached-user-frames are fixed by the grid and the seed, so one
    // untimed wrapped sweep before them counts them (and checks every
    // replication's frames and voice accounting).
    const auto counted = run_wrapped_sweep(config, runner, false, nullptr);
    wrapped_checks(counted);
    std::int64_t user_frames = 0;
    std::int64_t frames = 0;
    for (const auto& j : counted.jobs) {
      user_frames += j.user_frames;
      frames += j.frames;
    }
    std::vector<double> speeds;
    std::vector<double> uf_rates;
    std::vector<double> lane_ms_per_job;
    std::string walls;
    for (int s = 0; s < sweeps; ++s) {
      const auto t0 = Clock::now();
      const auto run = sweep();
      out.spans.add("run_sweep", t0, Clock::now());
      speeds.push_back(horizon / run.wall_s);
      uf_rates.push_back(static_cast<double>(user_frames) / run.wall_s);
      lane_ms_per_job.push_back(run.wall_s * 1e3 * options.threads /
                                static_cast<double>(jobs_per_sweep));
      walls += (walls.empty() ? "" : ",") + fmt(run.wall_s, 5);
    }
    sweeps_equal = sweeps_equal && sweep_digest(counted.cells) == digest;
    out.attempted = static_cast<std::int64_t>(jobs_per_sweep) * sweeps;
    out.metrics.num("user_frames_per_s", median(uf_rates))
        .num("sim_speed", median(speeds))
        .num("epoch_ms_p50", median(lane_ms_per_job))
        .num("setup_s", median(setups));
    out.record.integer("epoch_samples", sweeps)
        .str("epoch_unit", "one grid job, the operation of this workload (a "
                           "sweep cell: 2 replications of 3 s warmup + 15 s "
                           "measure); run_sweep does not time its jobs, so "
                           "epoch_ms_p50 is the median over run_sweep calls "
                           "of threads x wall / jobs")
        .integer("sweeps", sweeps)
        .str("sweep_wall_s", walls)
        .integer("user_frames_per_sweep", static_cast<long long>(user_frames))
        .integer("frames_per_sweep", static_cast<long long>(frames))
        .integer("setup_samples", static_cast<long long>(setups.size()))
        .str("setup_unit", "make_protocol for every replication of the grid");
  } else {
    // run_sweep and traced wrapped sweeps of the same grid, alternating so
    // both see the same host conditions.
    const int half = std::max(1, sweeps / 2);
    std::vector<double> untraced;
    std::vector<double> traced;
    std::vector<double> traced_job_ms;
    LayerStats layers;
    bool traced_equal = true;
    for (int s = 0; s < half; ++s) {
      const auto t0 = Clock::now();
      untraced.push_back(sweep().wall_s);
      out.spans.add("run_sweep", t0, Clock::now());
      auto run = run_wrapped_sweep(config, runner, true, &out.spans);
      traced_equal = traced_equal && sweep_digest(run.cells) == digest;
      wrapped_checks(run);
      traced.push_back(run.wall_s);
      for (double j : run.job_s) traced_job_ms.push_back(j * 1e3);
      for (const auto& j : run.jobs) layers.add(j);
    }
    out.checks.push_back(check("trace_digest", traced_equal,
                               "traced sweeps reproduce run_sweep's digest"));
    // Busy times and counts are per traced sweep (every sweep does the
    // same simulated work).
    const double lanes = static_cast<double>(options.threads) *
                         std::accumulate(traced.begin(), traced.end(), 0.0);
    const double idle = lanes - layers.busy_s;
    out.attempted = static_cast<std::int64_t>(jobs_per_sweep) * 2 * half;
    out.metrics.num("epoch_ms_p95", quantile(traced_job_ms, 0.95))
        .num("channel.busy_ms", layers.channel_s * 1e3 / half)
        .num("channel.ns_per_jump",
             layers.channel_jumps > 0
                 ? layers.channel_s * 1e9 / static_cast<double>(layers.channel_jumps)
                 : 0.0)
        .integer("channel.user_jumps", layers.jump_events / half)
        .num("channel.mean_stride",
             layers.jump_events > 0 ? static_cast<double>(layers.jump_frames) /
                                          static_cast<double>(layers.jump_events)
                                    : 0.0)
        .num("channel.skipped_fraction",
             layers.jump_frames > 0
                 ? 1.0 - static_cast<double>(layers.jump_events) /
                             static_cast<double>(layers.jump_frames)
                 : 0.0)
        .num("mac.busy_ms", layers.mac_s * 1e3 / half)
        .num("mac.ns_per_user_frame",
             layers.user_frames > 0
                 ? layers.mac_s * 1e9 / static_cast<double>(layers.user_frames)
                 : 0.0)
        .integer("mac.frames", layers.frames / half)
        .num("runner.idle_share", idle / lanes)
        // No world plane or WorkerPool runs on this workload.
        .num("world.coord_ms", 0.0)
        .num("world.shard_ms", 0.0)
        .num("world.cell_plane_ms", 0.0)
        .num("world.cell_load_imbalance", 0.0)
        .num("world.handoffs_per_s", 0.0)
        .num("world.bytes_per_user", 0.0)
        .num("pool.barrier_us", 0.0)
        .num("pool.idle_share", 0.0)
        .num("trace.overhead", median(traced) / median(untraced) - 1.0)
        .num("trace.unaccounted_share",
             1.0 - (layers.channel_s + layers.mac_s + idle) / lanes);
    out.record.str("traced_unit", "per traced sweep: every frame stepped "
                                  "through advance_all_to + advance_by")
        .integer("epoch_samples", static_cast<long long>(traced_job_ms.size()))
        .integer("untraced_sweeps", static_cast<long long>(untraced.size()))
        .integer("traced_sweeps", static_cast<long long>(traced.size()));
  }

  out.checks.insert(out.checks.begin(),
                    {check("frames_every_job", frames_ok,
                           "every replication of every job ran frames > 0"),
                     check("voice_accounting", voice_ok,
                           "voice delivered + lost <= generated over every "
                           "replication's warmup window"),
                     check("sweeps_equal", sweeps_equal,
                           "every sweep reproduces the first run_sweep's "
                           "digest")});
  add_grid_model(config, reference, out.model);
  out.model.str("metrics_digest", digest);
  out.record.num("simulated_s_per_sweep", horizon)
      .str("equivalent_command",
           "charisma_sim protocol=all sweep=voice x=" + nv +
               " data_users=10 warmup=3 measure=15 replications=2 seed=" +
               std::to_string(options.seed))
      .integer("jobs_per_sweep", static_cast<long long>(jobs_per_sweep))
      .str("grid", "6 protocols x N_v {" + nv + "}, N_d = 10, request "
                   "queue on, 2 replications, warmup 3 s + measure 15 s");
  return out;
}

// ----------------------------------------------------------------- worlds

struct WorldSpec {
  const char* name;
  int cells;
  double band_m;
  bool lazy;
  bool compact;
};

constexpr WorldSpec kMetro{"metro_world", 37, 1200.0, false, false};
constexpr WorldSpec kLazyDense{"lazy_dense_world", 19, 0.0, true, true};
constexpr int kVoicePerCell = 80;
constexpr int kDataPerCell = 10;
constexpr double kKmh = 50.0;
constexpr double kCellRadiusM = 500.0;
constexpr double kWarmupS = 0.5;
/// Epochs per statistics block (0.5 s simulated).
constexpr int kBlockEpochs = 25;

/// The world charisma_sim builds for
///   protocol=charisma layout=hex cells=C reuse=3 band=B
///   voice_users=80C data_users=10C [channel=lazy traffic_rng=compact]
///   threads=T seed=S
/// (tools/charisma_sim.cpp: scenario_from + cellular_from, replication 0).
mac::CellularConfig world_config(const WorldSpec& w, std::uint64_t seed,
                                 unsigned threads, unsigned shards) {
  mac::CellularConfig c;
  c.num_cells = w.cells;
  c.params.num_voice_users = kVoicePerCell * w.cells;
  c.params.num_data_users = kDataPerCell * w.cells;
  c.params.request_queue = true;
  c.params.lazy_channel = w.lazy;
  c.params.traffic_rng =
      w.compact ? common::RngKind::kCompact : common::RngKind::kMt;
  c.params.seed = experiment::replication_seed(seed, /*point=*/0, /*rep=*/0);
  // The path-loss world's link budget at the 200 m reference distance.
  c.params.channel.mean_snr_db = 26.0;
  c.mobility.speed_mps = common::km_per_hour(kKmh);
  c.params.channel.doppler_hz = std::max(
      1.0, channel::ChannelConfig::doppler_for_speed(c.mobility.speed_mps, 2.0e9));
  c.mobility.model = mac::MobilityConfig::Model::kRandomWaypoint;
  c.layout.kind = mac::SiteLayoutConfig::Kind::kHex;
  c.layout.reuse_factor = 3;
  c.layout.wrap_around = false;
  c.layout.site_spacing_m = 2.0 * kCellRadiusM;
  const auto [width, height] =
      mac::SiteLayout::hex_field_extent(w.cells, c.layout.site_spacing_m);
  c.mobility.field_width_m = width;
  c.mobility.field_height_m = height;
  c.pilot_band_radius_m = w.band_m;
  c.interference_activity = 0.4;
  c.num_threads = threads;
  c.num_shards = shards;
  return c;
}

std::string equivalent_command(const WorldSpec& w, std::uint64_t seed,
                               unsigned threads, double measure_s) {
  std::ostringstream s;
  s << "charisma_sim protocol=charisma layout=hex cells=" << w.cells
    << " reuse=3 band=" << w.band_m << " voice_users=" << kVoicePerCell * w.cells
    << " data_users=" << kDataPerCell * w.cells;
  if (w.lazy) s << " channel=lazy";
  if (w.compact) s << " traffic_rng=compact";
  s << " threads=" << threads << " seed=" << seed << " warmup=" << kWarmupS
    << " measure=" << measure_s << " replications=1";
  return s.str();
}

mac::EngineFactory charisma_factory() {
  return [](const mac::ScenarioParams& p) {
    return protocols::make_protocol(ProtocolId::kCharisma, p);
  };
}

std::int64_t total_user_frames(const mac::CellularWorld& world) {
  std::int64_t sum = 0;
  for (int c = 0; c < world.num_cells(); ++c) {
    sum += world.cell_metrics(c).attached_user_frames;
  }
  return sum;
}

std::string world_digest(const mac::CellularWorld& world) {
  Digest d;
  for (int c = 0; c < world.num_cells(); ++c) d.add(world.cell_metrics(c));
  d.add(world.handoffs());
  return d.hex();
}

/// Everything one measured epoch loop yields.
struct WorldRun {
  std::vector<double> epoch_s;
  std::vector<double> block_sim_speed;
  std::vector<double> block_user_frames_per_s;
  double loop_s = 0.0;
  double window_s = 0.0;  ///< simulated measurement window
  mac::CellularWorld::EpochTimings timings{};  ///< loop deltas
  // Snapshot after `prefix` epochs, for the serial re-run.
  std::vector<mac::ProtocolMetrics> prefix_cells;
  std::int64_t prefix_handoffs = 0;
  double prefix_cell_plane_s = 0.0;
  std::string digest;
};

mac::CellularWorld::EpochTimings timings_delta(
    const mac::CellularWorld::EpochTimings& a,
    const mac::CellularWorld::EpochTimings& b) {
  return {b.serial_plane_s - a.serial_plane_s, b.shard_plane_s - a.shard_plane_s,
          b.cell_plane_s - a.cell_plane_s, b.epochs - a.epochs};
}

/// Warmup, then a window of 1 + `epochs` decision epochs: the window's first
/// epoch comes from run(warmup, dt), the rest from timed advance(dt) calls.
WorldRun run_world_epochs(mac::CellularWorld& world, double dt, int epochs,
                          int prefix, SpanLog* spans) {
  WorldRun out;
  world.run(kWarmupS, dt);
  const auto timings0 = world.epoch_timings();
  out.epoch_s.reserve(static_cast<std::size_t>(epochs));
  std::int64_t block_uf = total_user_frames(world);
  double block_host = 0.0;
  for (int e = 0; e < epochs; ++e) {
    const auto t0 = Clock::now();
    world.advance(dt);
    const auto t1 = Clock::now();
    const double s = seconds_between(t0, t1);
    out.epoch_s.push_back(s);
    block_host += s;
    if (spans) spans->add("epoch", t0, t1);
    if ((e + 1) % kBlockEpochs == 0) {
      const std::int64_t uf = total_user_frames(world);
      out.block_sim_speed.push_back(kBlockEpochs * dt / block_host);
      out.block_user_frames_per_s.push_back(static_cast<double>(uf - block_uf) /
                                            block_host);
      block_uf = uf;
      block_host = 0.0;
    }
    if (e + 1 == prefix) {
      out.prefix_cells.clear();
      for (int c = 0; c < world.num_cells(); ++c) {
        out.prefix_cells.push_back(world.cell_metrics(c));
      }
      out.prefix_handoffs = world.handoffs();
      out.prefix_cell_plane_s =
          world.epoch_timings().cell_plane_s - timings0.cell_plane_s;
    }
  }
  out.loop_s = std::accumulate(out.epoch_s.begin(), out.epoch_s.end(), 0.0);
  out.window_s = dt * (epochs + 1);
  out.timings = timings_delta(timings0, world.epoch_timings());
  out.digest = world_digest(world);
  return out;
}

/// Re-runs the warmup and the first `prefix` epochs of the window on one
/// thread and one shard, appending the serial==parallel check and the voice
/// accounting check (over the warmup, which starts at construction);
/// returns that run's cell-plane time over the prefix.
double serial_prefix_checks(const mac::CellularConfig& config, double dt,
                            int prefix, const WorldRun& parallel,
                            std::vector<Check>& checks) {
  auto serial_config = config;
  serial_config.num_threads = 1;
  serial_config.num_shards = 1;
  mac::CellularWorld serial(serial_config, charisma_factory());
  // advance(warmup) + run(0, dt) is run(warmup, dt) with a look at the
  // warmup's counters before the reset.
  serial.advance(kWarmupS);
  checks.push_back(check("voice_accounting",
                         voice_accounting_holds(serial.aggregate_metrics()),
                         "voice delivered + lost <= generated over the "
                         "warmup window"));
  serial.run(0.0, dt);
  const auto timings0 = serial.epoch_timings();
  for (int e = 0; e < prefix; ++e) serial.advance(dt);
  const double serial_cell_plane_s =
      serial.epoch_timings().cell_plane_s - timings0.cell_plane_s;
  bool equal = serial.handoffs() == parallel.prefix_handoffs &&
               static_cast<int>(parallel.prefix_cells.size()) == serial.num_cells();
  for (int c = 0; equal && c < serial.num_cells(); ++c) {
    equal = serial.cell_metrics(c) == parallel.prefix_cells[static_cast<std::size_t>(c)];
  }
  checks.push_back(check(
      "serial_prefix_equal", equal,
      "threads=1 re-run of the first " + std::to_string(prefix) +
          " epochs gives operator==-equal cell metrics and handoffs"));
  return serial_cell_plane_s;
}

/// Output checks on the finished window.
void add_world_checks(const mac::CellularWorld& world,
                      std::vector<Check>& checks) {
  const auto m = world.aggregate_metrics();
  std::int64_t in = 0;
  std::int64_t out = 0;
  std::int64_t evicted = 0;
  for (int c = 0; c < world.num_cells(); ++c) {
    const auto& cm = world.cell_metrics(c);
    in += cm.handoffs_in;
    out += cm.handoffs_out;
    evicted += cm.outage_evictions;
  }
  checks.push_back(check("handoff_conservation", in == out + evicted,
                         "sum handoffs_in " + std::to_string(in) +
                             " == sum handoffs_out " + std::to_string(out) +
                             " + sum outage_evictions " + std::to_string(evicted)));
  checks.push_back(check("nonempty_window",
                         m.frames > 0 && m.voice_generated > 0,
                         "frames " + std::to_string(m.frames) +
                             ", voice generated " +
                             std::to_string(m.voice_generated)));
}

void add_world_model(const mac::CellularWorld& world, const WorldRun& run,
                     JsonObject& model) {
  const auto m = world.aggregate_metrics();
  model.num("voice_loss", m.voice_loss_rate())
      .num("voice_error", m.voice_error_rate())
      .num("data_throughput", m.data_throughput_per_frame())
      .num("handoffs_per_s", static_cast<double>(world.handoffs()) / run.window_s)
      .num("interference_db", m.mean_interference_db())
      .num("chan_stride", m.mean_materialization_stride())
      .str("metrics_digest", run.digest);
}

/// The cell probe: the traced cells' channel/MAC split, and the same
/// frames run untraced on the twin world's cells.
struct CellProbe {
  LayerStats traced;
  double untraced_s = 0.0;
  std::string traced_digest;
  std::string untraced_digest;
};

/// After the measured window (its digest already taken), runs `frames`
/// frames on every cell's engine of `world` and of its untraced `twin`,
/// the worlds' mobility and attachment frozen meanwhile. The world's cells
/// are stepped frame by frame to split the cell plane into channel and MAC
/// time; the twin's cells run the same frames in one advance_by each. The
/// two take turns going first, cell by cell, so both see the same host
/// conditions, and both must end with the same cell metrics.
CellProbe probe_cells(mac::CellularWorld& world, mac::CellularWorld& twin,
                      const mac::CellularConfig& config, int frames,
                      SpanLog* spans) {
  // Every cell's frames started at t = 0 and, for CHARISMA's fixed frame,
  // start at the k-fold sum of one frame duration — the same sum the
  // simulator forms. A one-user engine of the same scenario gives that
  // duration as its first frame's measured_time.
  auto params = config.params;
  params.num_voice_users = 1;
  params.num_data_users = 0;
  auto calibration = protocols::make_protocol(ProtocolId::kCharisma, params);
  calibration->advance_by(1e-7);
  const double frame = calibration->metrics().measured_time;
  if (calibration->frame_index() != 1 || !(frame > 0.0)) {
    throw std::runtime_error("cell probe: frame-duration calibration failed");
  }
  CellProbe probe;
  Digest traced_digest;
  Digest untraced_digest;
  for (int c = 0; c < world.num_cells(); ++c) {
    auto& engine = world.cell(c);
    auto& twin_engine = twin.cell(c);
    double next = 0.0;
    for (std::int64_t k = 0; k < static_cast<std::int64_t>(engine.frame_index()); ++k) {
      next += frame;
    }
    // End the probe half a frame past its last frame start.
    const double until = next + (frames - 0.5) * frame;
    const auto run_traced = [&] {
      engine.reset_metrics();
      LayerStats stats;
      FrameStepper stepper(next);
      const auto t0 = Clock::now();
      const auto f0 = engine.frame_index();
      stepper.run_to(engine, until, !config.params.lazy_channel, stats);
      const auto t1 = Clock::now();
      stats.frames = static_cast<std::int64_t>(engine.frame_index() - f0);
      stats.user_frames = engine.metrics().attached_user_frames;
      stats.busy_s = seconds_between(t0, t1);
      if (spans) spans->add("probe.cell" + std::to_string(c), t0, t1);
      probe.traced.add(stats);
    };
    const auto run_untraced = [&] {
      twin_engine.reset_metrics();
      const auto t0 = Clock::now();
      twin_engine.advance_by(until - twin_engine.now());
      probe.untraced_s += seconds_between(t0, Clock::now());
    };
    if (c % 2 == 0) {
      run_traced();
      run_untraced();
    } else {
      run_untraced();
      run_traced();
    }
    traced_digest.add(engine.metrics());
    untraced_digest.add(twin_engine.metrics());
  }
  probe.traced_digest = traced_digest.hex();
  probe.untraced_digest = untraced_digest.hex();
  return probe;
}

/// Host time of one no-op WorkerPool::for_each over `n` indices, in µs
/// (median of 40 batches of 100 rounds).
double pool_barrier_us(unsigned threads, std::size_t n) {
  experiment::WorkerPool pool(threads);
  std::vector<std::size_t> touched(n, 0);
  const std::function<void(std::size_t)> noop = [&touched](std::size_t i) {
    touched[i] += 1;
  };
  for (int i = 0; i < 100; ++i) pool.for_each(n, noop);
  std::vector<double> samples;
  for (int b = 0; b < 40; ++b) {
    const auto t0 = Clock::now();
    for (int i = 0; i < 100; ++i) pool.for_each(n, noop);
    samples.push_back(seconds_between(t0, Clock::now()) / 100.0 * 1e6);
  }
  if (std::any_of(touched.begin(), touched.end(),
                  [](std::size_t t) { return t != 4100; })) {
    throw std::logic_error("pool barrier probe: a round skipped an index");
  }
  return median(samples);
}

WorkloadResult run_world(const WorldSpec& spec, const RunOptions& options) {
  WorkloadResult out;
  const auto config = world_config(spec, options.seed, options.threads, 0);
  const double dt = config.decision_interval;
  // The budget fixes the horizon: 100 measured epochs (2 s simulated) per
  // budget second, at least 200 so p95 has ten samples beyond it.
  const int epochs = std::max(200, 100 * options.seconds);
  const int prefix = std::min(epochs, 50);
  const auto users = static_cast<double>(config.params.total_users());
  out.attempted = epochs + 1;

  WorldRun run;
  std::unique_ptr<mac::CellularWorld> world;
  if (!options.trace) {
    std::vector<double> setups;
    for (int i = 0; i < kSetupSamples; ++i) {
      world.reset();
      const auto t0 = Clock::now();
      world = std::make_unique<mac::CellularWorld>(config, charisma_factory());
      setups.push_back(seconds_between(t0, Clock::now()));
    }
    run = run_world_epochs(*world, dt, epochs, prefix, &out.spans);
    add_world_checks(*world, out.checks);
    add_world_model(*world, run, out.model);
    out.metrics.num("user_frames_per_s", median(run.block_user_frames_per_s))
        .num("sim_speed", median(run.block_sim_speed))
        .num("epoch_ms_p50", median(run.epoch_s) * 1e3)
        .num("epoch_ms_p95", quantile(run.epoch_s, 0.95) * 1e3)
        .num("setup_s", median(setups));
    out.record.integer("setup_samples", static_cast<long long>(setups.size()))
        .str("setup_unit", "CellularWorld construction incl. band admission "
                           "and initial attachment");
    world.reset();
  } else {
    // The untraced twin's construction measures bytes per user.
    const long long rss0 = bench::current_rss_bytes();
    auto twin = std::make_unique<mac::CellularWorld>(config, charisma_factory());
    const double bytes_per_user =
        static_cast<double>(bench::current_rss_bytes() - rss0) / users;
    world = std::make_unique<mac::CellularWorld>(config, charisma_factory());
    run = run_world_epochs(*world, dt, epochs, prefix, &out.spans);
    const auto twin_run = run_world_epochs(*twin, dt, epochs, prefix, nullptr);
    out.checks.push_back(check("trace_digest", run.digest == twin_run.digest,
                               "traced window reproduces the untraced digest"));
    add_world_checks(*world, out.checks);
    add_world_model(*world, run, out.model);

    const auto m = world->aggregate_metrics();
    std::int64_t max_uf = 0;
    for (int c = 0; c < world->num_cells(); ++c) {
      max_uf = std::max(max_uf, world->cell_metrics(c).attached_user_frames);
    }
    const double mean_uf =
        static_cast<double>(m.attached_user_frames) / world->num_cells();
    const double per_epoch = 1e3 / epochs;
    const auto& t = run.timings;
    const double accounted = t.serial_plane_s + t.shard_plane_s + t.cell_plane_s;
    const auto handoffs = static_cast<double>(world->handoffs());

    const int probe_frames = 100;
    const auto cell_probe =
        probe_cells(*world, *twin, config, probe_frames, &out.spans);
    world.reset();
    twin.reset();
    out.checks.push_back(check(
        "probe_digest", cell_probe.traced_digest == cell_probe.untraced_digest,
        "frame-stepped cell probe reproduces the untraced probe's digest"));
    const auto& probe = cell_probe.traced;
    const auto probe_jumps = probe.channel_jumps;

    const double serial_cell_plane_s =
        serial_prefix_checks(config, dt, prefix, run, out.checks);

    out.metrics.num("epoch_ms_p95", quantile(run.epoch_s, 0.95) * 1e3)
        .num("channel.busy_ms", probe.channel_s * 1e3)
        .num("channel.ns_per_jump",
             probe_jumps > 0 ? probe.channel_s * 1e9 / static_cast<double>(probe_jumps)
                             : 0.0)
        .integer("channel.user_jumps", m.users_advanced_frames)
        .num("channel.mean_stride", m.mean_materialization_stride())
        .num("channel.skipped_fraction", m.skipped_user_frame_fraction())
        .num("mac.busy_ms", probe.mac_s * 1e3)
        .num("mac.ns_per_user_frame",
             probe.user_frames > 0
                 ? probe.mac_s * 1e9 / static_cast<double>(probe.user_frames)
                 : 0.0)
        .integer("mac.frames", probe.frames)
        .num("world.coord_ms", t.serial_plane_s * per_epoch)
        .num("world.shard_ms", t.shard_plane_s * per_epoch)
        .num("world.cell_plane_ms", t.cell_plane_s * per_epoch)
        .num("world.cell_load_imbalance",
             mean_uf > 0.0 ? static_cast<double>(max_uf) / mean_uf : 0.0)
        .num("world.handoffs_per_s",
             handoffs / run.window_s)
        .num("world.bytes_per_user", bytes_per_user)
        .num("pool.barrier_us",
             pool_barrier_us(options.threads, static_cast<std::size_t>(spec.cells)))
        .num("pool.idle_share",
             run.prefix_cell_plane_s > 0.0
                 ? 1.0 - serial_cell_plane_s /
                             (options.threads * run.prefix_cell_plane_s)
                 : 0.0)
        .num("runner.idle_share", 0.0)  // no ParallelRunner on this workload
        .num("trace.overhead", probe.busy_s / cell_probe.untraced_s - 1.0)
        .num("trace.unaccounted_share", 1.0 - accounted / run.loop_s);
    out.record.integer("probe_frames_per_cell", probe_frames)
        .str("probe_unit", "each cell stepped frame by frame after the window "
                           "(channel pre-advance skipped on a lazy bank); "
                           "trace.overhead compares it with the same frames "
                           "in one advance_by per cell of the untraced twin");
    out.attempted = 2 * (epochs + 1);  // the traced world and its twin
  }
  if (!options.trace) {
    serial_prefix_checks(config, dt, prefix, run, out.checks);
  }
  out.record.integer("epoch_samples", epochs)
      .integer("block_epochs", kBlockEpochs)
      .num("warmup_s", kWarmupS)
      .num("window_s", run.window_s)
      .num("decision_interval_s", dt)
      .integer("users", static_cast<long long>(users))
      .integer("cells", spec.cells)
      .str("equivalent_command",
           equivalent_command(spec, options.seed, options.threads, run.window_s));
  return out;
}

}  // namespace

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names{"paper_grid", kMetro.name,
                                              kLazyDense.name};
  return names;
}

WorkloadResult run_workload(const std::string& workload,
                            const RunOptions& options) {
  if (workload == "paper_grid") return run_paper_grid(options);
  if (workload == kMetro.name) return run_world(kMetro, options);
  if (workload == kLazyDense.name) return run_world(kLazyDense, options);
  throw std::invalid_argument("unknown workload '" + workload + "'");
}

JsonObject probe_lazy_partial_band(std::uint64_t seed) {
  // charisma_sim's defaults for this command: 80 voice users, no data.
  constexpr WorldSpec kProbe{"lazy_partial_band", 7, 700.0, true, false};
  constexpr int kMaxEpochs = 50;
  auto config = world_config(kProbe, seed, 1, 1);
  config.params.num_voice_users = 80;
  config.params.num_data_users = 0;
  JsonObject out;
  out.str("name", "lazy_partial_band")
      .str("command", "charisma_sim protocol=charisma layout=hex cells=7 "
                      "reuse=3 band=700 channel=lazy seed=" +
                          std::to_string(seed) + " warmup=0 measure=1");
  // Epoch by epoch, so the first failing epoch is reported; the defect
  // usually shows in the first one.
  int epoch = 0;
  try {
    mac::CellularWorld world(config, charisma_factory());
    for (; epoch < kMaxEpochs; ++epoch) world.advance(config.decision_interval);
    out.boolean("reproduces", false)
        .str("what", std::to_string(kMaxEpochs) + " epochs completed");
  } catch (const std::exception& e) {
    out.boolean("reproduces", true)
        .integer("failed_epoch", epoch)
        .str("what", e.what());
  }
  return out;
}

}  // namespace perfbench
