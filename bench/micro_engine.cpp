// Engine micro-benchmarks (google-benchmark): the hot paths of the common
// simulation platform — per-frame channel evolution, contention
// resolution, one simulated second per protocol, and the steady-state MAC
// frame per protocol (BM_ProtocolFrame) and in a world cell whose band
// holds far more pilot rows than attached users
// (BM_ProtocolFrameSparseBand).
#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstdint>
#include <memory>
#include <random>
#include <vector>

#include "bench_support.hpp"
#include "charisma.hpp"

namespace {

using namespace charisma;

void BM_RngNormal(benchmark::State& state) {
  // In-house Box-Muller (cached spare): per-user SNR spread and CSI
  // estimation-error draws. The channel bank draws its innovations from
  // the SplitMix64 ziggurat instead.
  common::RngStream rng(1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(rng.normal());
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_RngNormal);

void BM_RngNormalStdBaseline(benchmark::State& state) {
  // What RngStream::normal() used to do: a fresh std::normal_distribution
  // per call over the same engine.
  common::RngStream rng(1);
  for (auto _ : state) {
    std::normal_distribution<double> dist(0.0, 1.0);
    benchmark::DoNotOptimize(dist(rng.engine()));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_RngNormalStdBaseline);

void BM_RngUniformInt(benchmark::State& state) {
  common::RngStream rng(2);
  for (auto _ : state) {
    benchmark::DoNotOptimize(rng.uniform_int(12));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_RngUniformInt);

void BM_SplitMixZigguratPair(benchmark::State& state) {
  // The bank's per-branch I/Q innovation draw: two ziggurat normals from
  // one 8-byte counter, both candidates mixed before either resolves.
  common::SplitMix64 rng(1);
  const auto& zig = common::detail::ziggurat_tables();
  for (auto _ : state) {
    double a, b;
    rng.normal_pair(zig, a, b);
    benchmark::DoNotOptimize(a);
    benchmark::DoNotOptimize(b);
  }
  state.SetItemsProcessed(state.iterations() * 2);
}
BENCHMARK(BM_SplitMixZigguratPair);

// A bank row's seed — the first output of the user's channel stream —
// through a full mt19937_64 (seed all 312 words, twist, draw) and through
// common::mt19937_64_first, which every band admit now pays instead.
void BM_RowSeedEngine(benchmark::State& state) {
  std::uint64_t seed = 1, acc = 0;
  for (auto _ : state) acc += common::RngStream(++seed).engine()();
  benchmark::DoNotOptimize(acc);
}
BENCHMARK(BM_RowSeedEngine);

void BM_RowSeedFirstOutput(benchmark::State& state) {
  std::uint64_t seed = 1, acc = 0;
  for (auto _ : state) acc += common::mt19937_64_first(++seed);
  benchmark::DoNotOptimize(acc);
}
BENCHMARK(BM_RowSeedFirstOutput);

void BM_VoiceSourceIdleTick(benchmark::State& state) {
  // The engine's per-frame traffic tick over a voice population: a
  // talking source emits every 8th 2.5 ms frame and a silent one toggles
  // about every 1.35 s, so most calls find nothing due. Items are
  // source-frames.
  const int n = static_cast<int>(state.range(0));
  std::vector<traffic::VoiceSource> sources;
  sources.reserve(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    sources.emplace_back(traffic::VoiceSourceConfig{},
                         common::RngStream(static_cast<std::uint64_t>(i) + 1));
  }
  double t = 0.0;
  for (auto _ : state) {
    int generated = 0;
    for (auto& src : sources) generated += src.on_frame(t).packets_generated;
    benchmark::DoNotOptimize(generated);
    t += 2.5e-3;
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_VoiceSourceIdleTick)->Arg(300);

channel::ChannelBank make_bank(int n) {
  channel::ChannelBank bank(channel::ChannelConfig{});
  bank.reserve(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    bank.acquire_user(
        common::RngStream(static_cast<std::uint64_t>(i) + 1).engine()());
  }
  return bank;
}

void BM_ChannelBankAdvance(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  auto bank = make_bank(n);
  const double dt = channel::ChannelConfig{}.sample_interval;
  double t = 0.0;
  for (auto _ : state) {
    t += dt;
    bank.advance_all_to(t);
    benchmark::DoNotOptimize(bank.snr_linear(0));
  }
  state.SetItemsProcessed(state.iterations() * n);
}
// Arg(1) is the standalone one-device trace (Figs. 5 and 7): one row's
// frame step plus the bank-clock bookkeeping around it.
BENCHMARK(BM_ChannelBankAdvance)->Arg(1)->Arg(1000)->Arg(10000)->Arg(100000);

void BM_ChannelBankJump(benchmark::State& state) {
  // O(1)-in-k check: cost per advance must not scale with the stride.
  const auto k = static_cast<double>(state.range(0));
  auto bank = make_bank(1000);
  const double dt = channel::ChannelConfig{}.sample_interval;
  double t = 0.0;
  for (auto _ : state) {
    t += k * dt;
    bank.advance_all_to(t);
    benchmark::DoNotOptimize(bank.snr_linear(0));
  }
  state.SetItemsProcessed(state.iterations() * 1000);
}
BENCHMARK(BM_ChannelBankJump)->Arg(1)->Arg(64);

void BM_ChannelBankLazyAdvance(benchmark::State& state) {
  // Lazy touch-set advancement at 10/50/100% of the population read per
  // frame (rotating window, the protocol frame-loop shape). 100% is the
  // lazy-bookkeeping overhead bound vs BM_ChannelBankAdvance/10000.
  const int n = 10000;
  const int pct = static_cast<int>(state.range(0));
  const int window = std::max(1, n * pct / 100);
  auto bank = make_bank(n);
  bank.set_lazy(true);
  // Doubled id array so every rotating window is one contiguous span.
  std::vector<common::UserId> ids(static_cast<std::size_t>(n) * 2);
  for (std::size_t i = 0; i < ids.size(); ++i) {
    ids[i] = static_cast<common::UserId>(i % static_cast<std::size_t>(n));
  }
  const double dt = channel::ChannelConfig{}.sample_interval;
  double t = 0.0;
  std::int64_t frame = 0;
  for (auto _ : state) {
    t += dt;
    const std::size_t lo = static_cast<std::size_t>((frame * window) % n);
    bank.set_time(t);
    bank.materialize_users(
        {ids.data() + lo, static_cast<std::size_t>(window)});
    benchmark::DoNotOptimize(bank.fading_power(ids[lo]));
    ++frame;
  }
  state.SetItemsProcessed(state.iterations() * window);
}
BENCHMARK(BM_ChannelBankLazyAdvance)->Arg(10)->Arg(50)->Arg(100);

void BM_JakesSample(benchmark::State& state) {
  common::RngStream rng(2);
  channel::JakesFadingGenerator gen(100.0, 32, rng);
  double t = 0.0;
  for (auto _ : state) {
    t += 1e-3;
    benchmark::DoNotOptimize(gen.power_gain(t));
  }
}
BENCHMARK(BM_JakesSample);

void BM_ContentionPhase(benchmark::State& state) {
  const int contenders = static_cast<int>(state.range(0));
  std::vector<common::UserId> candidates;
  std::vector<common::RngStream> rngs;
  for (int i = 0; i < contenders; ++i) {
    candidates.push_back(i);
    rngs.emplace_back(static_cast<std::uint64_t>(i) + 7);
  }
  mac::ContentionOutcome outcome;
  for (auto _ : state) {
    mac::run_request_phase(
        candidates, 12, [](common::UserId) { return 0.3; },
        [&rngs](common::UserId id) -> common::RngStream& {
          return rngs[static_cast<std::size_t>(id)];
        },
        outcome);
    benchmark::DoNotOptimize(outcome);
  }
  state.SetItemsProcessed(state.iterations() * 12);
}
BENCHMARK(BM_ContentionPhase)->Arg(2)->Arg(10)->Arg(50);

void BM_ModeSelection(benchmark::State& state) {
  const auto table = phy::ModeTable::abicm6();
  common::RngStream rng(3);
  for (auto _ : state) {
    benchmark::DoNotOptimize(table.select(rng.uniform(0.5, 200.0)));
  }
}
BENCHMARK(BM_ModeSelection);

template <protocols::ProtocolId kId>
void BM_ProtocolSecond(benchmark::State& state) {
  // Cost of one simulated second (400 frames) at a moderate mixed load.
  for (auto _ : state) {
    state.PauseTiming();
    mac::ScenarioParams params;
    params.num_voice_users = 60;
    params.num_data_users = 10;
    params.seed = 11;
    auto engine = protocols::make_protocol(kId, params);
    state.ResumeTiming();
    benchmark::DoNotOptimize(engine->run(0.0, 1.0));
  }
}
BENCHMARK(BM_ProtocolSecond<protocols::ProtocolId::kCharisma>)
    ->Name("BM_ProtocolSecond/CHARISMA")->Unit(benchmark::kMillisecond);
BENCHMARK(BM_ProtocolSecond<protocols::ProtocolId::kDtdmaVr>)
    ->Name("BM_ProtocolSecond/DTDMA_VR")->Unit(benchmark::kMillisecond);
BENCHMARK(BM_ProtocolSecond<protocols::ProtocolId::kDtdmaFr>)
    ->Name("BM_ProtocolSecond/DTDMA_FR")->Unit(benchmark::kMillisecond);
BENCHMARK(BM_ProtocolSecond<protocols::ProtocolId::kDrma>)
    ->Name("BM_ProtocolSecond/DRMA")->Unit(benchmark::kMillisecond);
BENCHMARK(BM_ProtocolSecond<protocols::ProtocolId::kRama>)
    ->Name("BM_ProtocolSecond/RAMA")->Unit(benchmark::kMillisecond);
BENCHMARK(BM_ProtocolSecond<protocols::ProtocolId::kRmav>)
    ->Name("BM_ProtocolSecond/RMAV")->Unit(benchmark::kMillisecond);

template <protocols::ProtocolId kId>
void BM_ProtocolFrame(benchmark::State& state) {
  // The MAC frame per protocol at the Fig. 11 operating point N_v = 90,
  // N_d = 10, request queue on: one engine, warmed up for 5 simulated
  // seconds (talkspurts, backlogs, reservations and every scratch list at
  // steady state), then stepped a nominal 2.5 ms frame per iteration.
  // Items are frames, so items_per_second is frames/s (RMAV's
  // variable-length frames count one each).
  mac::ScenarioParams params;
  params.num_voice_users = 90;
  params.num_data_users = 10;
  params.seed = 11;
  params.request_queue = true;
  auto engine = protocols::make_protocol(kId, params);
  engine->advance_by(5.0);
  const std::int64_t frames_before = engine->metrics().frames;
  const double frame = params.geometry.frame_duration;
  for (auto _ : state) {
    engine->advance_by(frame);
  }
  state.SetItemsProcessed(engine->metrics().frames - frames_before);
}
BENCHMARK(BM_ProtocolFrame<protocols::ProtocolId::kCharisma>)
    ->Name("BM_ProtocolFrame/CHARISMA");
BENCHMARK(BM_ProtocolFrame<protocols::ProtocolId::kDtdmaVr>)
    ->Name("BM_ProtocolFrame/DTDMA_VR");
BENCHMARK(BM_ProtocolFrame<protocols::ProtocolId::kDtdmaFr>)
    ->Name("BM_ProtocolFrame/DTDMA_FR");
BENCHMARK(BM_ProtocolFrame<protocols::ProtocolId::kDrma>)
    ->Name("BM_ProtocolFrame/DRMA");
BENCHMARK(BM_ProtocolFrame<protocols::ProtocolId::kRama>)
    ->Name("BM_ProtocolFrame/RAMA");
BENCHMARK(BM_ProtocolFrame<protocols::ProtocolId::kRmav>)
    ->Name("BM_ProtocolFrame/RMAV");
BENCHMARK(BM_ProtocolFrame<protocols::ProtocolId::kPrma>)
    ->Name("BM_ProtocolFrame/PRMA");

void BM_ProtocolFrameSparseBand(benchmark::State& state) {
  // CHARISMA's MAC frame in one cell of a band=0 world: the argument is
  // the band rows, 90 per cell of the world (1710 = lazy_dense_world's 19
  // cells), and every cells-th id — 80 voice, 10 data — is attached. Lazy
  // channel and compact traffic RNG as in lazy_dense_world, so a pilot-only
  // row costs the frame nothing but the walks that would visit it. Items
  // are frames: /1710 should run about as fast as /90, whose band is
  // exactly its 90 attached users.
  const int cells = static_cast<int>(state.range(0)) / 90;
  mac::ScenarioParams params;
  params.num_voice_users = 80 * cells;
  params.num_data_users = 10 * cells;
  params.seed = 11;
  params.request_queue = true;
  params.lazy_channel = true;
  params.traffic_rng = common::RngKind::kCompact;
  params.defer_population = true;
  auto engine = protocols::make_protocol(protocols::ProtocolId::kCharisma,
                                         params);
  for (int id = 0; id < params.total_users(); ++id) {
    engine->band_admit(static_cast<common::UserId>(id), false);
  }
  for (int id = 0; id < params.total_users(); id += cells) {
    engine->attach_user_initial(static_cast<common::UserId>(id));
  }
  engine->advance_by(5.0);
  const std::int64_t frames_before = engine->metrics().frames;
  const double frame = params.geometry.frame_duration;
  for (auto _ : state) {
    engine->advance_by(frame);
  }
  state.SetItemsProcessed(engine->metrics().frames - frames_before);
}
BENCHMARK(BM_ProtocolFrameSparseBand)->Arg(90)->Arg(1710);

}  // namespace

int main(int argc, char** argv) {
  return charisma::bench::guarded_main([&] {
    benchmark::Initialize(&argc, argv);
    if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
    benchmark::RunSpecifiedBenchmarks();
    benchmark::Shutdown();
    return 0;
  });
}
