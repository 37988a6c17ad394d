#include "phy/modes.hpp"

#include <gtest/gtest.h>

#include "common/math.hpp"

namespace charisma::phy {
namespace {

TEST(ModeTable, Abicm6Shape) {
  const auto table = ModeTable::abicm6(1e-5);
  ASSERT_EQ(table.size(), 6);
  EXPECT_DOUBLE_EQ(table.mode(0).bits_per_symbol, 0.5);
  EXPECT_DOUBLE_EQ(table.mode(5).bits_per_symbol, 5.0);
  EXPECT_DOUBLE_EQ(table.target_ber(), 1e-5);
}

TEST(ModeTable, ThresholdsStrictlyIncreasing) {
  const auto table = ModeTable::abicm6(1e-5);
  for (int i = 1; i < table.size(); ++i) {
    EXPECT_GT(table.mode(i).threshold_db, table.mode(i - 1).threshold_db);
    EXPECT_GT(table.mode(i).bits_per_symbol, table.mode(i - 1).bits_per_symbol);
  }
}

TEST(ModeTable, BerAtThresholdEqualsTarget) {
  const auto table = ModeTable::abicm6(1e-5);
  for (const auto& mode : table.modes()) {
    EXPECT_NEAR(mode.ber(mode.threshold_linear), 1e-5, 1e-8)
        << "mode " << mode.index;
  }
}

TEST(ModeTable, BerMonotoneDecreasingInSnr) {
  const auto table = ModeTable::abicm6(1e-5);
  const auto& mode = table.mode(2);
  double prev = 1.0;
  for (double db = -10.0; db <= 30.0; db += 1.0) {
    const double b = mode.ber(common::from_db(db));
    EXPECT_LE(b, prev + 1e-15);
    prev = b;
  }
}

TEST(ModeTable, BerCapsAtHalf) {
  const auto table = ModeTable::abicm6(1e-5);
  EXPECT_DOUBLE_EQ(table.mode(0).ber(0.0), 0.5);
  EXPECT_DOUBLE_EQ(table.mode(0).ber(-1.0), 0.5);
}

TEST(ModeTable, PerApproximatesBitsTimesBerWhenSmall) {
  const auto table = ModeTable::abicm6(1e-5);
  const auto& mode = table.mode(3);
  const double snr = mode.threshold_linear;  // BER = 1e-5
  EXPECT_NEAR(mode.per(snr, 160), 160 * 1e-5, 2e-6);
}

TEST(ModeTable, PerAtTerribleSnrIsOne) {
  const auto table = ModeTable::abicm6(1e-5);
  EXPECT_NEAR(table.mode(5).per(0.01, 160), 1.0, 1e-9);
}

TEST(ModeTable, SelectionBoundaries) {
  const auto table = ModeTable::abicm6(1e-5);
  // Below the lowest threshold: outage.
  EXPECT_FALSE(table.select(common::from_db(1.0)).has_value());
  // Exactly at a threshold selects that mode.
  EXPECT_EQ(table.select(table.mode(0).threshold_linear).value(), 0);
  EXPECT_EQ(table.select(table.mode(3).threshold_linear).value(), 3);
  // Far above everything selects the top mode.
  EXPECT_EQ(table.select(common::from_db(40.0)).value(), 5);
}

TEST(ModeTable, SelectionMarginBacksOff) {
  const auto table = ModeTable::abicm6(1e-5);
  const double snr = table.mode(3).threshold_linear;
  EXPECT_EQ(table.select(snr, common::from_db(0.0)).value(), 3);
  // With 2 dB margin the same SNR only supports mode 2.
  EXPECT_EQ(table.select(snr, common::from_db(2.0)).value(), 2);
}

TEST(ModeTable, NormalizedThroughput) {
  const auto table = ModeTable::abicm6(1e-5);
  EXPECT_DOUBLE_EQ(table.normalized_throughput(std::nullopt), 0.0);
  EXPECT_DOUBLE_EQ(table.normalized_throughput(4), 4.0);
}

TEST(ModeTable, CustomValidation) {
  EXPECT_THROW(ModeTable::custom({}, {}, 1e-5), std::invalid_argument);
  EXPECT_THROW(ModeTable::custom({1.0}, {1.0, 2.0}, 1e-5),
               std::invalid_argument);
  EXPECT_THROW(ModeTable::custom({1.0, 2.0}, {5.0, 4.0}, 1e-5),
               std::invalid_argument);
  EXPECT_THROW(ModeTable::custom({2.0, 1.0}, {4.0, 5.0}, 1e-5),
               std::invalid_argument);
  EXPECT_THROW(ModeTable::custom({1.0}, {4.0}, 0.0), std::invalid_argument);
  EXPECT_THROW(ModeTable::custom({1.0}, {4.0}, 0.5), std::invalid_argument);
}

TEST(ModeTable, ModeIndexOutOfRange) {
  const auto table = ModeTable::abicm6(1e-5);
  EXPECT_THROW(table.mode(-1), std::out_of_range);
  EXPECT_THROW(table.mode(6), std::out_of_range);
}

class ModeTableTargetBer : public ::testing::TestWithParam<double> {};

TEST_P(ModeTableTargetBer, ConstantBerAcrossLadder) {
  const double target = GetParam();
  const auto table = ModeTable::abicm6(target);
  for (const auto& mode : table.modes()) {
    EXPECT_NEAR(mode.ber(mode.threshold_linear) / target, 1.0, 1e-3);
  }
}

INSTANTIATE_TEST_SUITE_P(Targets, ModeTableTargetBer,
                         ::testing::Values(1e-3, 1e-4, 1e-5, 1e-6));

}  // namespace
}  // namespace charisma::phy
