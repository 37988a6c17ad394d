// Whole-run pins for every protocol under the stress the golden digests do
// not reach: closed-loop barring engaged by an overloaded cell, downlink
// ACK loss, the §4.5 request queue both on and off, and a mobile 3-cell
// world whose handoffs drive detach_user. Integer counters compare with
// ==, accumulated doubles with exact hexfloat equality, so any reordering
// of a random draw or of a floating-point sum in the shared MAC duties
// (request queue, talkspurt release, contender filter, request filing,
// voice-first service, transmit booking) fails here.
//
// On a mismatch the observed row is printed in source form; a deliberate
// re-pin pastes it over the stale one.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "mac/cellular_world.hpp"
#include "mac/metrics.hpp"
#include "mac/scenario.hpp"
#include "protocols/factory.hpp"

namespace charisma::protocols {
namespace {

struct Pin {
  std::int64_t voice_delivered;
  std::int64_t voice_error_lost;
  std::int64_t voice_dropped_deadline;
  std::int64_t data_delivered;
  std::int64_t data_retransmissions;
  std::int64_t request_successes;
  std::int64_t request_collisions;
  std::int64_t acks_lost;
  std::int64_t barred_voice;
  std::int64_t barred_data;
  std::int64_t handoffs_out;
  double energy_info_j;
  double energy_wasted_j;
  double data_delay_mean_s;
};

Pin observe(const mac::ProtocolMetrics& m) {
  return {m.voice_delivered,      m.voice_error_lost,
          m.voice_dropped_deadline, m.data_delivered,
          m.data_retransmissions, m.request_successes,
          m.request_collisions,   m.acks_lost,
          m.barring_barred_voice, m.barring_barred_data,
          m.handoffs_out,         m.energy_info_j,
          m.energy_wasted_j,      m.data_delay_s.mean()};
}

std::string source_row(const Pin& p) {
  char buf[512];
  std::snprintf(buf, sizeof buf,
                "{%lld, %lld, %lld, %lld, %lld, %lld, %lld, %lld, %lld, "
                "%lld, %lld, %a, %a, %a},",
                static_cast<long long>(p.voice_delivered),
                static_cast<long long>(p.voice_error_lost),
                static_cast<long long>(p.voice_dropped_deadline),
                static_cast<long long>(p.data_delivered),
                static_cast<long long>(p.data_retransmissions),
                static_cast<long long>(p.request_successes),
                static_cast<long long>(p.request_collisions),
                static_cast<long long>(p.acks_lost),
                static_cast<long long>(p.barred_voice),
                static_cast<long long>(p.barred_data),
                static_cast<long long>(p.handoffs_out), p.energy_info_j,
                p.energy_wasted_j, p.data_delay_mean_s);
  return buf;
}

void expect_pin(const Pin& want, const Pin& got) {
  SCOPED_TRACE("observed: " + source_row(got));
  EXPECT_EQ(got.voice_delivered, want.voice_delivered);
  EXPECT_EQ(got.voice_error_lost, want.voice_error_lost);
  EXPECT_EQ(got.voice_dropped_deadline, want.voice_dropped_deadline);
  EXPECT_EQ(got.data_delivered, want.data_delivered);
  EXPECT_EQ(got.data_retransmissions, want.data_retransmissions);
  EXPECT_EQ(got.request_successes, want.request_successes);
  EXPECT_EQ(got.request_collisions, want.request_collisions);
  EXPECT_EQ(got.acks_lost, want.acks_lost);
  EXPECT_EQ(got.barred_voice, want.barred_voice);
  EXPECT_EQ(got.barred_data, want.barred_data);
  EXPECT_EQ(got.handoffs_out, want.handoffs_out);
  EXPECT_EQ(got.energy_info_j, want.energy_info_j);
  EXPECT_EQ(got.energy_wasted_j, want.energy_wasted_j);
  EXPECT_EQ(got.data_delay_mean_s, want.data_delay_mean_s);
}

// Every protocol, the PRMA extension baseline included; each pin table
// lists one row per protocol in this order, fields in Pin's order.
const std::vector<ProtocolId> kPinned = {
    ProtocolId::kCharisma, ProtocolId::kDtdmaVr, ProtocolId::kDrma,
    ProtocolId::kRama,     ProtocolId::kDtdmaFr, ProtocolId::kRmav,
    ProtocolId::kPrma};

/// An overloaded single cell: a low congestion band makes the barring
/// loop tighten under every protocol that queues or collides, and 5% of
/// request ACKs are lost on the downlink.
mac::ScenarioParams overloaded_cell(bool request_queue) {
  mac::ScenarioParams p;
  p.num_voice_users = 150;
  p.num_data_users = 30;
  p.request_queue = request_queue;
  p.seed = 5;
  p.barring.enabled = true;
  p.barring.target_high = 0.02;
  p.barring.target_low = 0.005;
  p.ack_loss_prob = 0.05;
  return p;
}

void check_single_cell(bool request_queue, const std::vector<Pin>& pins) {
  ASSERT_EQ(pins.size(), kPinned.size());
  std::int64_t barred = 0;
  std::int64_t acks_lost = 0;
  for (std::size_t i = 0; i < kPinned.size(); ++i) {
    SCOPED_TRACE(protocol_name(kPinned[i]));
    auto engine = make_protocol(kPinned[i], overloaded_cell(request_queue));
    const Pin got = observe(engine->run(0.5, 2.0));
    expect_pin(pins[i], got);
    barred += got.barred_voice + got.barred_data;
    acks_lost += got.acks_lost;
  }
  // Not vacuous: the barring gate and the ACK-loss path both fired.
  EXPECT_GT(barred, 0);
  EXPECT_GT(acks_lost, 0);
}

TEST(ProtocolPins, SingleCellWithQueue) {
  check_single_cell(true, {
      // CHARISMA
      {5987, 17, 55, 3826, 394, 186, 3, 16, 544, 941, 0,
       0x1.955a0a97d5e25p-1, 0x1.c307e2cf63b22p-7, 0x1.2aa09e1a0bffbp-3},
      // D-TDMA/VR
      {5980, 2, 69, 3998, 2, 192, 7, 17, 406, 318, 0,
       0x1.9226d764a2ae5p-1, 0x1.3c6174e092e41p-11, 0x1.315a1f0850556p-3},
      // DRMA
      {5996, 50, 2, 1034, 7, 1231, 88, 56, 410, 17733, 0,
       0x1.8701c3f8f05a5p-1, 0x1.1be52a04f1864p-7, 0x1.4c5e8458f895cp-2},
      // RAMA
      {5914, 44, 89, 1769, 21, 164, 0, 0, 877, 1409, 0,
       0x1.ab79d218b7e45p-1, 0x1.de1a213114d61p-8, 0x1.795d6614e58ap-2},
      // D-TDMA/FR
      {5925, 47, 78, 1888, 26, 181, 1, 16, 763, 1890, 0,
       0x1.b316f3a431b85p-1, 0x1.081f12b6e858p-7, 0x1.13e493df5ee97p-2},
      // RMAV
      {1630, 9, 4392, 932, 4, 1734, 705, 0, 246123, 84011, 0,
       0x1.1c234f72c234ap-2, 0x1.60387f1e03828p-3, 0x1.bdfa5f1ea51fdp-1},
      // PRMA
      {5909, 50, 84, 232, 0, 360, 37, 0, 3258, 48141, 0,
       0x1.559289b5d95a5p-1, 0x1.bce90c5bce916p-7, 0x1.8200b4c9f99eep-1},
  });
}

TEST(ProtocolPins, SingleCellWithoutQueue) {
  check_single_cell(false, {
      // CHARISMA
      {6011, 26, 24, 2518, 0, 813, 97, 45, 497, 3808, 0,
       0x1.78a97d5a0ad25p-1, 0x1.660c016993f34p-8, 0x1.2452edb53896bp-3},
      // D-TDMA/VR
      {6002, 2, 48, 2759, 0, 853, 91, 45, 204, 3098, 0,
       0x1.7ec944daecd05p-1, 0x1.6993f349cc723p-9, 0x1.1449f29dca492p-3},
      // DRMA
      {5988, 48, 13, 870, 5, 1569, 130, 67, 641, 22101, 0,
       0x1.7d4bead054fa5p-1, 0x1.3114d54644811p-7, 0x1.ce80333939e54p-2},
      // RAMA
      {6015, 46, 0, 1619, 7, 3041, 0, 0, 0, 0, 0,
       0x1.a81c3f8f020a5p-1, 0x1.a4d2731c99f34p-1, 0x1.37052e1a25a1ep-2},
      // D-TDMA/FR
      {5969, 51, 27, 1302, 8, 1069, 119, 49, 381, 7134, 0,
       0x1.9469ee5846e05p-1, 0x1.37ca5409e30c3p-7, 0x1.041a7d1d1582cp-2},
      // RMAV
      {1630, 9, 4392, 932, 4, 1734, 705, 0, 246123, 84011, 0,
       0x1.1c234f72c234ap-2, 0x1.60387f1e03828p-3, 0x1.bdfa5f1ea51fdp-1},
      // PRMA
      {5909, 50, 84, 232, 0, 360, 37, 0, 3258, 48141, 0,
       0x1.559289b5d95a5p-1, 0x1.bce90c5bce916p-7, 0x1.8200b4c9f99eep-1},
  });
}

TEST(ProtocolPins, ThreeCellMobileWorld) {
  // Fast users in a 3-cell strip: handoffs detach users holding
  // reservations and queued requests mid-talkspurt.
  const std::vector<Pin> pins = {
      // CHARISMA
      {6486, 43, 91, 6660, 75, 271, 5, 11, 0, 0, 54,
       0x1.d9c3f8f01c4d1p-1, 0x1.216d58287d3c4p-7, 0x1.c36255b2399cap-7},
      // D-TDMA/VR
      {6485, 1, 132, 6651, 0, 271, 6, 11, 0, 0, 54,
       0x1.d10c5bce90d1ap-1, 0x1.74e092e41ad5fp-12, 0x1.a19b23be0306ep-7},
      // DRMA
      {6460, 166, 1, 5353, 374, 6224, 224, 310, 90, 12477, 54,
       0x1.54c5bce90c7b8p+0, 0x1.101c3f8f01c29p-4, 0x1.280398a9a3d42p-3},
      // RAMA
      {6317, 139, 135, 5220, 264, 220, 0, 0, 1451, 3894, 54,
       0x1.49611a7b962e8p+0, 0x1.67b9611a7b96cp-5, 0x1.a4f12567c9eaap-2},
      // D-TDMA/FR
      {6445, 151, 18, 6206, 580, 255, 4, 9, 222, 1012, 54,
       0x1.71289b5d92b08p+0, 0x1.43660c01698f1p-4, 0x1.a6258f9b853d8p-4},
      // RMAV
      {1912, 37, 4625, 1113, 53, 2067, 432, 0, 136310, 64272, 55,
       0x1.57b9611a7b8ep-2, 0x1.bf8f01c3f8f05p-4, 0x1.e4efc6cedb004p-1},
      // PRMA
      {6451, 156, 3, 2381, 96, 2666, 208, 0, 1629, 113623, 54,
       0x1.f52fab41530cfp-1, 0x1.2ad054bead05dp-4, 0x1.2b6293a055b72p-1},
  };
  for (std::size_t i = 0; i < kPinned.size(); ++i) {
    const ProtocolId id = kPinned[i];
    SCOPED_TRACE(protocol_name(id));
    mac::CellularConfig cfg;
    cfg.num_cells = 3;
    cfg.num_threads = 1;
    cfg.params = overloaded_cell(true);
    cfg.params.num_voice_users = 180;
    cfg.params.num_data_users = 36;
    cfg.params.channel.shadow_sigma_db = 6.0;
    cfg.mobility.field_width_m = 1500.0;
    cfg.mobility.field_height_m = 300.0;
    cfg.mobility.speed_mps = common::km_per_hour(100.0);
    cfg.handoff_hysteresis_db = 2.0;
    mac::CellularWorld world(cfg, [id](const mac::ScenarioParams& p) {
      return make_protocol(id, p);
    });
    world.run(0.5, 2.0);
    const Pin got = observe(world.aggregate_metrics());
    expect_pin(pins[i], got);
    EXPECT_GT(got.handoffs_out, 0);  // detach_user actually ran
  }
}

}  // namespace
}  // namespace charisma::protocols
