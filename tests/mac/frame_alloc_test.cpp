// Pins the allocation-free frame loop: steady-state frame advancement must
// perform zero heap allocations. A program-wide operator new/delete
// override counts every allocation crossing the global heap, and warm
// world epochs, band maintenance and the ARQ retransmission path are
// required not to move the counter.
//
// The override lives in this TU but (by the ODR rules for replaceable
// global operators) serves the whole test binary; it only counts, so the
// other suites are unaffected.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <functional>
#include <memory>
#include <new>
#include <string>
#include <vector>

#include "experiment/worker_pool.hpp"
#include "mac/cellular_world.hpp"
#include "mac/presence.hpp"
#include "mac/scenario.hpp"
#include "mac/site_layout.hpp"
#include "protocols/factory.hpp"

namespace {
std::atomic<std::uint64_t> g_allocations{0};
}  // namespace

void* operator new(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size ? size : 1)) return p;
  throw std::bad_alloc();
}

void* operator new[](std::size_t size) { return ::operator new(size); }

void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(size ? size : 1);
}

void* operator new[](std::size_t size, const std::nothrow_t& t) noexcept {
  return ::operator new(size, t);
}

// Over-aligned forms count too, so the zero-allocation assertions keep
// covering e.g. a future alignas(32) SIMD buffer in the frame loop.
void* operator new(std::size_t size, std::align_val_t align) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  const std::size_t a = static_cast<std::size_t>(align);
  if (void* p = std::aligned_alloc(a, (size + a - 1) / a * a)) return p;
  throw std::bad_alloc();
}

void* operator new[](std::size_t size, std::align_val_t align) {
  return ::operator new(size, align);
}

void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}

namespace charisma {
namespace {

TEST(FrameAlloc, SteadyStateWorldEpochsAreAllocationFree) {
  // The sharded coordinator's epoch path end to end: mobility, SiteIndex
  // band queries, shard proposal arenas, pilot blending, the attachment
  // rule, the SNR/SINR planes, and the per-cell frame burns — under every
  // protocol. Static users (speed 0) pin the world plane's steady state —
  // no band churn, no handoffs — and a near-infinite silence keeps the MAC
  // quiet: every protocol's per-frame scratch stays empty or at its warm
  // capacity, so the whole epoch must allocate nothing. Active traffic is
  // exercised by RetransmittingDataScenarioStaysAllocationFree below.
  for (const auto id : protocols::all_protocols()) {
    SCOPED_TRACE(protocols::protocol_name(id));
    mac::CellularConfig cfg;
    cfg.num_cells = 4;
    cfg.num_threads = 1;  // the inline dispatch path — no worker handoff
    cfg.num_shards = 3;   // shard arenas live even when dispatch is inline
    cfg.params.num_voice_users = 12;
    cfg.params.num_data_users = 0;
    cfg.params.seed = 7;
    cfg.params.mean_silence_s = 1e9;  // silent after the initial talkspurts
    cfg.pilot_band_radius_m = 700.0;  // sparse bands: SiteIndex per epoch
    cfg.mobility.field_width_m = 2000.0;
    cfg.mobility.field_height_m = 400.0;
    cfg.mobility.speed_mps = 0.0;
    cfg.handoff_hysteresis_db = 2.0;
    mac::CellularWorld world(cfg, [id](const mac::ScenarioParams& params) {
      return protocols::make_protocol(id, params);
    });
    ASSERT_EQ(world.shard_count(), 3u);
    world.run(0.5, 0.5);  // warmup + one measured window grows all scratch
    // Settling: let the initial talkspurts (mean 1 s) drain so the MAC's
    // per-frame candidate lists are empty in the counted window.
    world.advance(4.0);
    const std::uint64_t before =
        g_allocations.load(std::memory_order_relaxed);
    world.advance(1.0);  // 50 epochs at the default decision interval
    EXPECT_EQ(g_allocations.load(std::memory_order_relaxed) - before, 0u);
    // The world actually ran: frames burned for the attached population.
    EXPECT_GT(world.aggregate_metrics().attached_user_frames, 0);
  }
}

TEST(FrameAlloc, SiteIndexRebuildReusesBucketStorage) {
  // Band maintenance keeps its bucket vectors alive across rebuild():
  // clearing in place and growing only. Re-binning the same geometry —
  // and re-binning a smaller one — must cost zero allocations once the
  // first build has established the high-water mark.
  const double width = 4000.0, height = 1000.0;
  mac::SiteLayout big(mac::SiteLayoutConfig{}, /*num_cells=*/8, width,
                      height);
  mac::SiteLayout small(mac::SiteLayoutConfig{}, /*num_cells=*/3, width,
                        height);
  mac::SiteIndex index(big, 600.0);
  std::vector<int> out;
  std::vector<char> scratch;
  index.cells_near({0.5 * width, 0.5 * height}, out, scratch);  // size scratch
  out.reserve(static_cast<std::size_t>(big.num_sites()));
  // One warm cycle through the three grid shapes: re-binning redistributes
  // entries, so some bucket first reaches its high-water capacity here.
  index.rebuild(big, 600.0);
  index.rebuild(small, 600.0);
  index.rebuild(big, 900.0);
  const std::uint64_t before =
      g_allocations.load(std::memory_order_relaxed);
  for (int i = 0; i < 10; ++i) {
    index.rebuild(big, 600.0);
    index.rebuild(small, 600.0);  // shrink: fewer sites, same storage
    index.rebuild(big, 900.0);    // wider radius: fewer, larger buckets
  }
  out.clear();
  index.cells_near({0.25 * width, 0.75 * height}, out, scratch);
  EXPECT_EQ(g_allocations.load(std::memory_order_relaxed) - before, 0u);
  EXPECT_FALSE(out.empty());
}

TEST(FrameAlloc, RetransmittingDataScenarioStaysAllocationFree) {
  // The ARQ path: a data backlog cycling through pop_head +
  // DataSource::push_front every frame. FR pins the single-arrival span
  // overload in transmit_data_fixed; VR pins the batch path through the
  // engine's reused retx_scratch_; RAMA pins the engine's voice-first
  // serve scratch with one slot per queued data request each frame. A deep fade (mean SNR -30 dB) makes
  // every attempt fail while a huge CSI error still talks the VR
  // transmitter into trying modes it cannot sustain, so the backlog never
  // drains: the deque's front cursor oscillates in place and the warm
  // frame loop must not allocate at all. Arrivals are quiesced (1e9 s
  // interarrival) and the backlog seeded by hand, so no push_back crosses
  // a block boundary inside the counted window either.
  for (auto id :
       {protocols::ProtocolId::kDtdmaFr, protocols::ProtocolId::kDtdmaVr,
        protocols::ProtocolId::kRama}) {
    SCOPED_TRACE(protocols::protocol_name(id));
    mac::ScenarioParams params;
    params.num_voice_users = 0;
    params.num_data_users = 2;
    params.seed = 11;
    params.channel.mean_snr_db = -30.0;     // PER ~= 1 in every mode
    params.csi_error_sigma_db = 15.0;       // VR still believes it can send
    params.mean_data_interarrival_s = 1e9;  // no bursts, ever
    auto engine = protocols::make_protocol(id, params);
    engine->run(0.2, 0.3);  // attach users, materialize traffic streams
    // 256 is a multiple of the libstdc++ deque block (64 doubles), so the
    // seeded push_front leaves the front cursor's in-block offset where
    // the empty deque put it — away from a block edge.
    const std::vector<common::Time> backlog(256, 0.1);
    for (auto& u : engine->users()) {
      u.data().push_front(backlog);
    }
    engine->run(0.0, 1.0);  // contend, queue up, grow scratch high water
    const std::uint64_t before =
        g_allocations.load(std::memory_order_relaxed);
    engine->run(0.0, 1.0);
    // run() itself allocates once — a per-call constant: its
    // ProtocolMetrics::reset() builds a fresh data_delay_hist vector. The
    // 400-frame retransmission loop inside must add nothing.
    EXPECT_LE(g_allocations.load(std::memory_order_relaxed) - before, 1u);
    // The pin is vacuous unless the retransmission cycle actually ran. FR
    // attempts every granted slot; RAMA one slot per user per frame; VR
    // only when its (badly mistaken) CSI estimate picks a mode, so its
    // floor is lowest.
    const int floor = id == protocols::ProtocolId::kDtdmaFr ? 2000
                      : id == protocols::ProtocolId::kRama  ? 700
                                                            : 50;
    EXPECT_GT(engine->metrics().data_retransmissions, floor);
    EXPECT_EQ(engine->metrics().data_delivered, 0);
  }
}

TEST(FrameAlloc, LiveTrafficEnginesAreAllocationFree) {
  // The MAC frame under live voice traffic: talkspurts begin and end,
  // requests are filed, queued and served, reservations are booked and
  // released, CHARISMA ranks and polls. Every protocol, PRMA included, as
  // a single-cell engine with the §4.5 request queue on. After a warm
  // window that grows every scratch list and the request/reservation
  // tables to their high water, a measured window must not allocate.
  // advance_by steps frames without run()'s per-call metrics reset, so
  // the count is the frame loop's alone. Data users are absent because a
  // data burst still queues its packets in DataSource's std::deque, which
  // allocates a block per 64 packets.
  std::vector<protocols::ProtocolId> ids = protocols::all_protocols();
  ids.push_back(protocols::ProtocolId::kPrma);
  for (const auto id : ids) {
    SCOPED_TRACE(protocols::protocol_name(id));
    mac::ScenarioParams params;
    params.num_voice_users = 90;
    params.num_data_users = 0;
    params.seed = 5;
    params.request_queue = true;
    auto engine = protocols::make_protocol(id, params);
    engine->run(5.0, 5.0);  // warm-up: scratch and tables reach high water
    const std::uint64_t before =
        g_allocations.load(std::memory_order_relaxed);
    engine->advance_by(2.0);
    EXPECT_EQ(g_allocations.load(std::memory_order_relaxed) - before, 0u);
    // The window carried live traffic.
    const auto& m = engine->metrics();
    EXPECT_GT(m.voice_generated, 0);
    EXPECT_GT(m.voice_delivered, 0);
  }
}

TEST(FrameAlloc, LiveTrafficWorldEpochsAreAllocationFree) {
  // A static 4-cell world under live voice traffic: every epoch's world
  // plane and each cell's MAC frames. Users stand still and the
  // hysteresis is wide enough that none leaves the cell it first attached
  // to: a hand-in copies the user's traffic sources into the target cell,
  // which is a per-handoff cost, not a per-frame one.
  for (const auto id : protocols::all_protocols()) {
    SCOPED_TRACE(protocols::protocol_name(id));
    mac::CellularConfig cfg;
    cfg.num_cells = 4;
    cfg.num_threads = 1;
    cfg.params.num_voice_users = 60;
    cfg.params.num_data_users = 0;
    cfg.params.seed = 9;
    cfg.params.request_queue = true;
    cfg.mobility.speed_mps = 0.0;
    cfg.handoff_hysteresis_db = 100.0;
    mac::CellularWorld world(cfg, [id](const mac::ScenarioParams& params) {
      return protocols::make_protocol(id, params);
    });
    world.run(10.0, 1.0);  // warm-up: scratch and tables reach high water
    world.advance(9.0);
    const auto generated_before = world.aggregate_metrics().voice_generated;
    const std::uint64_t before =
        g_allocations.load(std::memory_order_relaxed);
    world.advance(2.0);
    EXPECT_EQ(g_allocations.load(std::memory_order_relaxed) - before, 0u);
    const auto m = world.aggregate_metrics();
    EXPECT_GT(m.voice_generated, generated_before);
    EXPECT_EQ(m.handoffs_in, 0);
  }
}

TEST(FrameAlloc, InterferenceWorldEpochsAreAllocationFree) {
  // The link-plane round with the co-channel interference plane on: a
  // static 7-cell hex world at reuse 3, every user in every cell's band,
  // stepped by two threads so the user chunks and the cell tasks both go
  // through the pool's dispatch. Once the chunks' site scratch and the
  // plane rows exist, an epoch must allocate nothing.
  mac::CellularConfig cfg;
  cfg.num_cells = 7;
  cfg.num_threads = 2;
  cfg.params.num_voice_users = 40;
  cfg.params.num_data_users = 0;
  cfg.params.seed = 3;
  cfg.params.mean_silence_s = 1e9;  // silent after the initial talkspurts
  cfg.layout.kind = mac::SiteLayoutConfig::Kind::kHex;
  cfg.layout.site_spacing_m = 600.0;
  cfg.layout.reuse_factor = 3;
  const auto [width, height] = mac::SiteLayout::hex_field_extent(7, 600.0);
  cfg.mobility.field_width_m = width;
  cfg.mobility.field_height_m = height;
  cfg.mobility.speed_mps = 0.0;
  cfg.handoff_hysteresis_db = 100.0;
  cfg.interference_activity = 0.45;
  mac::CellularWorld world(cfg, [](const mac::ScenarioParams& params) {
    return protocols::make_protocol(protocols::ProtocolId::kCharisma,
                                    params);
  });
  world.run(0.5, 0.5);
  world.advance(4.0);  // let the initial talkspurts drain
  const std::uint64_t before = g_allocations.load(std::memory_order_relaxed);
  world.advance(1.0);
  EXPECT_EQ(g_allocations.load(std::memory_order_relaxed) - before, 0u);
  // The plane carried load: some link saw a non-zero penalty.
  EXPECT_GT(world.aggregate_metrics().interference_db.mean(), 0.0);
}

TEST(FrameAlloc, PerCellBandAdmissionRoundIsAllocationFree) {
  // World construction's band round: the coordinator lists each cell's
  // admits in ascending user id and reserves the cell's band storage, then
  // one pool task per cell replays its list. A task must allocate nothing:
  // an allocation on a worker thread makes glibc open that thread's own
  // malloc arena, which shows up as resident memory the run never uses
  // again. Shells defer their traffic streams, so mt mode must be as
  // allocation-free as compact; the link-budget spread exercises the
  // offset draw of every admit.
  for (const auto kind : {common::RngKind::kMt, common::RngKind::kCompact}) {
    SCOPED_TRACE(kind == common::RngKind::kMt ? "mt" : "compact");
    mac::ScenarioParams params;
    params.num_voice_users = 300;
    params.num_data_users = 40;
    params.seed = 17;
    params.snr_spread_db = 3.0;
    params.traffic_rng = kind;
    params.defer_population = true;  // as a world's factory receives it
    constexpr std::size_t kCells = 7;
    const auto users = static_cast<std::size_t>(params.total_users());
    std::vector<std::unique_ptr<mac::ProtocolEngine>> cells;
    std::vector<std::vector<mac::BandOp>> ops(kCells);
    std::vector<std::vector<std::uint32_t>> slots(kCells);
    for (std::size_t c = 0; c < kCells; ++c) {
      cells.push_back(
          protocols::make_protocol(protocols::ProtocolId::kCharisma, params));
      // Uneven bands: cell c holds every user whose id is not a multiple
      // of c + 2.
      slots[c].assign(users, 0);
      for (std::size_t u = 0; u < users; ++u) {
        if (u % (c + 2) != 0) {
          ops[c].push_back(
              mac::BandOp{static_cast<common::UserId>(u), &slots[c][u]});
        }
      }
      cells[c]->reserve_band(ops[c].size());
    }
    experiment::WorkerPool pool(4);
    const std::function<void(std::size_t)> round = [&](std::size_t c) {
      cells[c]->apply_band_ops(ops[c]);
    };
    const std::uint64_t before =
        g_allocations.load(std::memory_order_relaxed);
    pool.for_each(kCells, round);
    EXPECT_EQ(g_allocations.load(std::memory_order_relaxed) - before, 0u);
    // The round admitted everyone, in id order, into fresh rows.
    for (std::size_t c = 0; c < kCells; ++c) {
      ASSERT_EQ(cells[c]->band_size(), ops[c].size());
      for (std::size_t k = 0; k < ops[c].size(); ++k) {
        EXPECT_EQ(*ops[c][k].slot_out, k);
      }
    }
  }
}

/// Two deferred-population engines standing in for two cells of a world:
/// every user is a band shell in both, and attached, with live traffic, in
/// `home` only. A never-attached shell holds neither sources nor a MAC
/// stream.
struct TwoCells {
  std::unique_ptr<mac::ProtocolEngine> home;
  std::unique_ptr<mac::ProtocolEngine> away;

  explicit TwoCells(mac::ScenarioParams params) {
    params.defer_population = true;  // as a world's factory receives it
    home = protocols::make_protocol(protocols::ProtocolId::kCharisma, params);
    away = protocols::make_protocol(protocols::ProtocolId::kCharisma, params);
    for (int id = 0; id < params.total_users(); ++id) {
      const auto u = static_cast<common::UserId>(id);
      home->band_admit(u, false);
      away->band_admit(u, false);
      home->attach_user_initial(u);
    }
  }
};

/// The world's move_user sequence: the leaving cell detaches (booking the
/// in-flight voice packet), the sources move, the target attaches.
void hand(mac::ProtocolEngine& from, mac::ProtocolEngine& to,
          common::UserId u) {
  from.detach_user(u, /*outage=*/false);
  to.user(u).adopt_service_state(from.user(u));
  to.attach_user(u);
}

TEST(FrameAlloc, VoiceHandBackIntoAHeldCellIsAllocationFree) {
  // A hand-in into a cell whose shell already has the user's MAC stream
  // from an earlier stay moves the sources in: no new source objects and,
  // in mt mode, no fresh ~2.5 KB mt19937_64.
  for (const auto kind : {common::RngKind::kMt, common::RngKind::kCompact}) {
    SCOPED_TRACE(kind == common::RngKind::kMt ? "mt" : "compact");
    mac::ScenarioParams params;
    params.num_voice_users = 4;
    params.num_data_users = 0;
    params.seed = 13;
    params.traffic_rng = kind;
    TwoCells cells(params);
    auto& a = *cells.home;
    auto& b = *cells.away;
    a.run(0.2, 0.2);
    b.run(0.2, 0.2);
    const common::UserId u = 0;
    hand(a, b, u);  // warm: both cells have seen u attached
    hand(b, a, u);
    const traffic::VoiceSource* const voice = &a.user(u).voice();
    const std::uint64_t before =
        g_allocations.load(std::memory_order_relaxed);
    hand(a, b, u);
    hand(b, a, u);
    EXPECT_EQ(g_allocations.load(std::memory_order_relaxed) - before, 0u);
    // The one source object travelled with the user; the cell it left
    // keeps no copy.
    EXPECT_TRUE(a.user(u).present());
    EXPECT_FALSE(b.user(u).present());
    EXPECT_EQ(&a.user(u).voice(), voice);
    EXPECT_FALSE(b.user(u).holds_sources());
  }
}

TEST(FrameAlloc, FirstHandInIsAllocationFree) {
  // A user's first hand-in to a cell lands in a never-attached band shell:
  // its sources move in, and only the cell's MAC stream is built. That
  // stream is inline in compact mode and one heap-held mt19937_64 in mt
  // mode, so a first hand-in allocates 0 and 1 times respectively.
  for (const auto kind : {common::RngKind::kMt, common::RngKind::kCompact}) {
    SCOPED_TRACE(kind == common::RngKind::kMt ? "mt" : "compact");
    mac::ScenarioParams params;
    params.num_voice_users = 3;
    params.num_data_users = 2;
    params.seed = 21;
    params.traffic_rng = kind;
    TwoCells cells(params);
    cells.home->run(0.2, 0.5);
    cells.away->run(0.2, 0.5);
    const std::uint64_t expected = kind == common::RngKind::kMt ? 1u : 0u;
    for (int id = 0; id < params.total_users(); ++id) {
      const auto u = static_cast<common::UserId>(id);
      SCOPED_TRACE("user " + std::to_string(id));
      const std::uint64_t before =
          g_allocations.load(std::memory_order_relaxed);
      hand(*cells.home, *cells.away, u);
      EXPECT_EQ(g_allocations.load(std::memory_order_relaxed) - before,
                expected);
      EXPECT_FALSE(cells.home->user(u).holds_sources());
      EXPECT_TRUE(cells.away->user(u).holds_sources());
      EXPECT_TRUE(cells.away->user(u).present());
    }
  }
}

}  // namespace
}  // namespace charisma
