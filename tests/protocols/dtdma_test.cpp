#include "protocols/dtdma.hpp"

#include <gtest/gtest.h>

#include "../support/scenarios.hpp"

namespace charisma::protocols {
namespace {

using ::charisma::testing::ideal_channel;
using ::charisma::testing::outage_channel;
using ::charisma::testing::small_mixed;

TEST(Dtdma, Names) {
  DtdmaProtocol fr(small_mixed(1, 0), DtdmaProtocol::PhyVariant::kFixedRate);
  DtdmaProtocol vr(small_mixed(1, 0),
                   DtdmaProtocol::PhyVariant::kVariableRate);
  EXPECT_EQ(fr.name(), "D-TDMA/FR");
  EXPECT_EQ(vr.name(), "D-TDMA/VR");
}

TEST(Dtdma, IdealChannelLosesNoVoiceFr) {
  DtdmaProtocol proto(ideal_channel(10, 0),
                      DtdmaProtocol::PhyVariant::kFixedRate);
  const auto& m = proto.run(3.0, 8.0);
  EXPECT_GT(m.voice_generated, 500);
  EXPECT_EQ(m.voice_error_lost, 0);
  EXPECT_EQ(m.voice_dropped_deadline, 0);
}

TEST(Dtdma, IdealChannelLosesNoVoiceVr) {
  DtdmaProtocol proto(ideal_channel(10, 0),
                      DtdmaProtocol::PhyVariant::kVariableRate);
  const auto& m = proto.run(3.0, 8.0);
  EXPECT_EQ(m.voice_error_lost, 0);
  EXPECT_EQ(m.voice_dropped_deadline, 0);
}

TEST(Dtdma, VoiceReservationLifecycle) {
  DtdmaProtocol proto(ideal_channel(8, 0),
                      DtdmaProtocol::PhyVariant::kFixedRate);
  proto.run(2.0, 6.0);
  EXPECT_LE(proto.reservations_held(), 8);
}

TEST(Dtdma, VrOutperformsFrForData) {
  // The adaptive PHY roughly triples the per-slot packet count at the
  // calibrated operating point, so at a load past FR's ceiling VR must
  // deliver clearly more.
  auto params = small_mixed(0, 60, true, 3);
  DtdmaProtocol fr(params, DtdmaProtocol::PhyVariant::kFixedRate);
  DtdmaProtocol vr(params, DtdmaProtocol::PhyVariant::kVariableRate);
  const auto& mf = fr.run(4.0, 10.0);
  const auto& mv = vr.run(4.0, 10.0);
  EXPECT_GT(mv.data_throughput_per_frame(),
            1.3 * mf.data_throughput_per_frame());
}

TEST(Dtdma, FrCeilingIsOnePacketPerSlot) {
  DtdmaProtocol proto(ideal_channel(0, 60),
                      DtdmaProtocol::PhyVariant::kFixedRate);
  const auto& m = proto.run(4.0, 8.0);
  // 10 info slots per frame, 1 packet each.
  EXPECT_LE(m.data_throughput_per_frame(), 10.0 + 1e-9);
  EXPECT_GT(m.data_throughput_per_frame(), 9.0);
}

TEST(Dtdma, OutageWastesVrSlotsButSendsNothing) {
  DtdmaProtocol proto(outage_channel(6, 0),
                      DtdmaProtocol::PhyVariant::kVariableRate);
  const auto& m = proto.run(2.0, 6.0);
  // VR detects outage and ships nothing: deadline drops, no error losses.
  EXPECT_EQ(m.voice_error_lost, 0);
  EXPECT_GT(m.voice_dropped_deadline, 0);
}

TEST(Dtdma, OutageFrLosesToErrors) {
  DtdmaProtocol proto(outage_channel(6, 0),
                      DtdmaProtocol::PhyVariant::kFixedRate);
  const auto& m = proto.run(2.0, 6.0);
  // FR transmits blindly into the dead channel: losses are errors.
  EXPECT_GT(m.voice_error_lost, 0);
}

TEST(Dtdma, DeterministicGivenSeed) {
  DtdmaProtocol a(small_mixed(12, 4, true, 9),
                  DtdmaProtocol::PhyVariant::kFixedRate);
  DtdmaProtocol b(small_mixed(12, 4, true, 9),
                  DtdmaProtocol::PhyVariant::kFixedRate);
  const auto& ma = a.run(2.0, 5.0);
  const auto& mb = b.run(2.0, 5.0);
  EXPECT_EQ(ma.voice_delivered, mb.voice_delivered);
  EXPECT_EQ(ma.data_delivered, mb.data_delivered);
}

TEST(Dtdma, QueueGrowsOnlyWithQueueMode) {
  DtdmaProtocol no_queue(small_mixed(10, 10, false),
                         DtdmaProtocol::PhyVariant::kFixedRate);
  no_queue.run(2.0, 4.0);
  EXPECT_EQ(no_queue.queued_requests(), 0u);
}

TEST(Dtdma, SlotAccountingConsistent) {
  DtdmaProtocol proto(small_mixed(20, 5),
                      DtdmaProtocol::PhyVariant::kVariableRate);
  const auto& m = proto.run(2.0, 5.0);
  EXPECT_LE(m.info_slots_assigned, m.info_slots_offered);
  EXPECT_LE(m.info_slots_wasted, m.info_slots_assigned);
}

}  // namespace
}  // namespace charisma::protocols
