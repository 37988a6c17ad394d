#include "protocols/factory.hpp"

#include <gtest/gtest.h>

#include "../support/scenarios.hpp"

namespace charisma::protocols {
namespace {

using ::charisma::testing::small_mixed;

TEST(Factory, AllProtocolsListed) {
  EXPECT_EQ(all_protocols().size(), 6u);
}

TEST(Factory, NamesRoundTrip) {
  for (auto id : all_protocols()) {
    EXPECT_EQ(parse_protocol(protocol_name(id)), id);
  }
}

TEST(Factory, ParseIsLenient) {
  EXPECT_EQ(parse_protocol("charisma"), ProtocolId::kCharisma);
  EXPECT_EQ(parse_protocol("CHARISMA"), ProtocolId::kCharisma);
  EXPECT_EQ(parse_protocol("d-tdma/fr"), ProtocolId::kDtdmaFr);
  EXPECT_EQ(parse_protocol("dtdma_vr"), ProtocolId::kDtdmaVr);
  EXPECT_EQ(parse_protocol("D-TDMA/VR"), ProtocolId::kDtdmaVr);
  EXPECT_EQ(parse_protocol("rama"), ProtocolId::kRama);
  EXPECT_EQ(parse_protocol("RMAV"), ProtocolId::kRmav);
  EXPECT_EQ(parse_protocol("drma"), ProtocolId::kDrma);
}

TEST(Factory, UnknownNameThrows) {
  EXPECT_THROW(parse_protocol("aloha"), std::invalid_argument);
  EXPECT_THROW(parse_protocol(""), std::invalid_argument);
}

TEST(Factory, BuildsEveryProtocol) {
  for (auto id : all_protocols()) {
    auto engine = make_protocol(id, small_mixed(5, 2));
    ASSERT_NE(engine, nullptr);
    EXPECT_EQ(engine->name(), protocol_name(id));
    const auto& m = engine->run(1.0, 2.0);
    EXPECT_GT(m.frames, 0);
  }
}

TEST(Factory, CharismaOptionsForwarded) {
  core::CharismaOptions options;
  options.enable_csi_refresh = false;
  auto engine =
      make_protocol(ProtocolId::kCharisma, small_mixed(30, 0), options);
  const auto& m = engine->run(2.0, 4.0);
  EXPECT_EQ(m.csi_polls, 0);
}

TEST(Factory, InvalidScenarioRejected) {
  auto params = small_mixed(5, 0);
  params.voice_permission_prob = 0.0;
  EXPECT_THROW(make_protocol(ProtocolId::kCharisma, params),
               std::invalid_argument);
  params = small_mixed(5, 0);
  params.geometry.num_info_slots = 0;
  EXPECT_THROW(make_protocol(ProtocolId::kDtdmaFr, params),
               std::invalid_argument);
}

TEST(Factory, InvalidRadioConfigRejectedAtConstruction) {
  // The engine's channel bank validates the radio configuration when the
  // engine is built — even an empty, deferred-population engine (a world
  // cell) must not wait for its first band admit to fail.
  auto base = small_mixed(5, 0);
  base.defer_population = true;
  auto bad_branches = base;
  bad_branches.channel.diversity_branches = 0;
  EXPECT_THROW(make_protocol(ProtocolId::kCharisma, bad_branches),
               std::invalid_argument);
  auto bad_doppler = base;
  bad_doppler.channel.doppler_hz = 0.0;
  EXPECT_THROW(make_protocol(ProtocolId::kCharisma, bad_doppler),
               std::invalid_argument);
  auto bad_sigma = base;
  bad_sigma.channel.shadow_sigma_db = -1.0;
  EXPECT_THROW(make_protocol(ProtocolId::kCharisma, bad_sigma),
               std::invalid_argument);
  EXPECT_NO_THROW(make_protocol(ProtocolId::kCharisma, base));
}

}  // namespace
}  // namespace charisma::protocols
