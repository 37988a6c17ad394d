#include "traffic/data_source.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "common/rng.hpp"

namespace charisma::traffic {
namespace {

constexpr double kFrame = 2.5e-3;

DataSourceConfig test_config() {
  DataSourceConfig cfg;
  cfg.mean_interarrival_s = 1.0;
  cfg.mean_burst_packets = 100.0;
  cfg.frame_duration = kFrame;
  return cfg;
}

TEST(DataSource, StartsEmpty) {
  DataSource src(test_config(), common::RngStream(1));
  EXPECT_TRUE(src.empty());
  EXPECT_EQ(src.backlog(), 0);
}

TEST(DataSource, BurstRateMatchesInterarrival) {
  DataSource src(test_config(), common::RngStream(2));
  long bursts = 0;
  const double horizon = 2000.0;
  for (double t = 0.0; t < horizon; t += 0.1) {
    bursts += src.on_frame(t).bursts_arrived;
  }
  EXPECT_NEAR(static_cast<double>(bursts) / horizon, 1.0, 0.05);
}

TEST(DataSource, MeanBurstSize) {
  DataSource src(test_config(), common::RngStream(3));
  long bursts = 0, packets = 0;
  for (double t = 0.0; t < 3000.0; t += 0.1) {
    const auto u = src.on_frame(t);
    bursts += u.bursts_arrived;
    packets += u.packets_arrived;
  }
  ASSERT_GT(bursts, 1000);
  EXPECT_NEAR(static_cast<double>(packets) / static_cast<double>(bursts),
              100.0, 5.0);
}

TEST(DataSource, PacketsStampedAtFrameBoundary) {
  DataSource src(test_config(), common::RngStream(4));
  for (long i = 0; i < 100000; ++i) {
    const double t = static_cast<double>(i) * kFrame;
    const auto u = src.on_frame(t);
    if (u.packets_arrived > 0) {
      EXPECT_DOUBLE_EQ(src.head_arrival(), t);
      return;
    }
  }
  FAIL() << "no burst arrived";
}

TEST(DataSource, PopHeadFifo) {
  DataSource src(test_config(), common::RngStream(5));
  double t = 0.0;
  while (src.backlog() < 2) {
    t += kFrame;
    src.on_frame(t);
  }
  const int before = src.backlog();
  const double head = src.head_arrival();
  src.pop_head();
  EXPECT_EQ(src.backlog(), before - 1);
  // Same-burst packets share the arrival stamp.
  EXPECT_DOUBLE_EQ(src.head_arrival(), head);
}

TEST(DataSource, PopEmptyThrows) {
  DataSource src(test_config(), common::RngStream(6));
  EXPECT_THROW(src.pop_head(), std::logic_error);
}

TEST(DataSource, PushFrontPreservesOrder) {
  DataSource src(test_config(), common::RngStream(7));
  double t = 0.0;
  while (src.backlog() < 3) {
    t += kFrame;
    src.on_frame(t);
  }
  const double a = src.head_arrival();
  src.pop_head();
  const double b = src.head_arrival();
  src.pop_head();
  // ARQ: the two failed packets return to the head in original order.
  const double failed[] = {a, b};
  src.push_front(failed);
  EXPECT_DOUBLE_EQ(src.head_arrival(), a);
  src.pop_head();
  EXPECT_DOUBLE_EQ(src.head_arrival(), b);
}

TEST(DataSource, GeneratedCounter) {
  DataSource src(test_config(), common::RngStream(8));
  long counted = 0;
  for (double t = 0.0; t < 100.0; t += 0.1) {
    counted += src.on_frame(t).packets_arrived;
  }
  EXPECT_EQ(src.packets_generated(), counted);
}

TEST(DataSource, Deterministic) {
  DataSource a(test_config(), common::RngStream(9));
  DataSource b(test_config(), common::RngStream(9));
  for (double t = 0.0; t < 200.0; t += 0.5) {
    EXPECT_EQ(a.on_frame(t).packets_arrived, b.on_frame(t).packets_arrived);
  }
}

TEST(DataSource, InvalidConfig) {
  auto cfg = test_config();
  cfg.mean_interarrival_s = 0.0;
  EXPECT_THROW(DataSource(cfg, common::RngStream(1)), std::invalid_argument);
  cfg = test_config();
  cfg.mean_burst_packets = 0.5;
  EXPECT_THROW(DataSource(cfg, common::RngStream(1)), std::invalid_argument);
}

TEST(DataSource, RejectsNonPositiveRateScale) {
  // Mirror of VoiceSource.RejectsNonPositiveRateScale: a scale <= 0 would
  // make next_gap's divided mean inf/NaN, so the setter throws and keeps
  // the previous scale.
  DataSource src(test_config(), common::RngStream(11));
  EXPECT_THROW(src.set_rate_scale(0.0), std::invalid_argument);
  EXPECT_THROW(src.set_rate_scale(-0.5), std::invalid_argument);
  EXPECT_THROW(src.set_rate_scale(std::nan("")), std::invalid_argument);
  src.set_rate_scale(3.0);
  EXPECT_THROW(src.set_rate_scale(0.0), std::invalid_argument);
  DataSource ref(test_config(), common::RngStream(11));
  ref.set_rate_scale(3.0);
  for (double t = 0.0; t < 100.0; t += 0.1) {
    ASSERT_EQ(src.on_frame(t).packets_arrived, ref.on_frame(t).packets_arrived);
  }
}

TEST(DataSource, BurstsAreAtLeastOnePacket) {
  auto cfg = test_config();
  cfg.mean_burst_packets = 1.0;  // tiny bursts still >= 1
  DataSource src(cfg, common::RngStream(10));
  long bursts = 0, packets = 0;
  for (double t = 0.0; t < 500.0; t += 0.1) {
    const auto u = src.on_frame(t);
    bursts += u.bursts_arrived;
    packets += u.packets_arrived;
  }
  EXPECT_GE(packets, bursts);
}

TEST(DataSource, FrameByFrameMatchesEventTimeCalls) {
  // The data twin of VoiceSource.FrameByFrameMatchesEventTimeCalls: a
  // source ticked every frame must match a same-seed twin ticked only at
  // coarse, random or event-time strides — Poisson and MMPP arrivals, with
  // a pop_head() applied to both between ticks. Arrivals are stamped with
  // the boundary that admits them, so the queue contents themselves match
  // only when the twin is ticked at every arrival's first boundary (the
  // event-time policy); the coarse policies compare the counts.
  constexpr long kFrames = 40000;  // 100 s
  const auto at = [](long n) { return static_cast<double>(n) * kFrame; };
  auto mmpp = test_config();
  mmpp.mmpp_rate_ratio = 4.0;
  mmpp.mmpp_mean_sojourn_s = 2.0;
  struct Policy {
    std::string name;
    bool event_times;
    std::function<bool(long, const DataSource&)> tick;
  };
  common::RngStream stride_rng(99);
  long next_random = 0;
  const Policy policies[] = {
      {"every 7 frames", false,
       [](long n, const DataSource&) { return n % 7 == 0; }},
      {"every 400 frames", false,
       [](long n, const DataSource&) { return n % 400 == 0; }},
      {"random 1..600 frames", false,
       [&](long n, const DataSource&) {
         if (n < next_random) return false;
         next_random = n + 1 + stride_rng.uniform_int(600);
         return true;
       }},
      {"event times", true,
       [&](long n, const DataSource& src) {
         return src.next_burst_at() <= at(n) + 1e-9;
       }},
  };
  for (const auto& cfg : {test_config(), mmpp}) {
    for (const auto& policy : policies) {
      SCOPED_TRACE(policy.name + (cfg.mmpp_enabled() ? " (MMPP)" : ""));
      next_random = 0;
      DataSource fine(cfg, common::RngStream(31));
      DataSource coarse(cfg, common::RngStream(31));
      std::int64_t arrived_fine = 0, arrived_coarse = 0;
      long ticks = 0, popped = 0;
      for (long n = 0; n <= kFrames; ++n) {
        const double t = at(n);
        arrived_fine += fine.on_frame(t).packets_arrived;
        if (!policy.tick(n, coarse)) continue;
        ++ticks;
        arrived_coarse += coarse.on_frame(t).packets_arrived;
        ASSERT_EQ(arrived_fine, arrived_coarse) << "t = " << t;
        ASSERT_EQ(fine.packets_generated(), coarse.packets_generated());
        ASSERT_EQ(fine.next_burst_at(), coarse.next_burst_at());
        ASSERT_EQ(fine.mmpp_high(), coarse.mmpp_high());
        ASSERT_EQ(fine.backlog(), coarse.backlog()) << "t = " << t;
        if (policy.event_times && !fine.empty()) {
          ASSERT_EQ(fine.head_arrival(), coarse.head_arrival());
        }
        // Drain a few packets between ticks, as a granted transmission
        // would.
        for (int k = 0; k < 3 && !fine.empty(); ++k) {
          fine.pop_head();
          coarse.pop_head();
          ++popped;
        }
      }
      if (policy.event_times) {
        std::vector<common::Time> rest_fine, rest_coarse;
        for (; !fine.empty(); fine.pop_head()) {
          rest_fine.push_back(fine.head_arrival());
        }
        for (; !coarse.empty(); coarse.pop_head()) {
          rest_coarse.push_back(coarse.head_arrival());
        }
        EXPECT_EQ(rest_fine, rest_coarse);
      }
      EXPECT_GT(ticks, 0);
      EXPECT_GT(popped, 0);
      EXPECT_GT(arrived_fine, 1000);  // ~100 bursts x ~100 packets
    }
  }
}

}  // namespace
}  // namespace charisma::traffic
