#include "traffic/voice_source.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <functional>
#include <string>

#include "common/rng.hpp"

namespace charisma::traffic {
namespace {

constexpr double kFrame = 2.5e-3;

VoiceSourceConfig test_config() {
  VoiceSourceConfig cfg;
  cfg.mean_talkspurt_s = 1.0;
  cfg.mean_silence_s = 1.35;
  cfg.voice_period = 20e-3;
  cfg.deadline = 20e-3;
  return cfg;
}

TEST(VoiceSource, StartsSilent) {
  VoiceSource src(test_config(), common::RngStream(1));
  const auto update = src.on_frame(0.0);
  EXPECT_EQ(update.packets_generated, 0);
  EXPECT_FALSE(src.has_packet());
}

TEST(VoiceSource, ActivityFactorLongRun) {
  VoiceSource src(test_config(), common::RngStream(2));
  long talk_frames = 0;
  const long n = 400000;  // 1000 s
  for (long i = 0; i < n; ++i) {
    src.on_frame(static_cast<double>(i) * kFrame);
    if (src.in_talkspurt()) ++talk_frames;
  }
  EXPECT_NEAR(static_cast<double>(talk_frames) / static_cast<double>(n),
              1.0 / 2.35, 0.03);
}

TEST(VoiceSource, PacketEveryVoicePeriodDuringTalkspurt) {
  VoiceSource src(test_config(), common::RngStream(3));
  // Run until a talkspurt and count consecutive packet emissions.
  long packets = 0;
  double first_packet_time = -1.0, last_packet_time = -1.0;
  for (long i = 0; i < 200000 && packets < 20; ++i) {
    const double t = static_cast<double>(i) * kFrame;
    const auto update = src.on_frame(t);
    if (update.packets_generated > 0) {
      if (first_packet_time < 0.0) first_packet_time = t;
      last_packet_time = t;
      packets += update.packets_generated;
      if (src.has_packet()) src.consume_packet();
    }
  }
  ASSERT_GE(packets, 20);
  // Packet instants are multiples of the 20 ms period; observed at 2.5 ms
  // frame boundaries the spacing averages to one period across a talkspurt.
  EXPECT_GT(last_packet_time, first_packet_time);
}

TEST(VoiceSource, DeadlineIsOnePeriodAfterGeneration) {
  VoiceSource src(test_config(), common::RngStream(4));
  for (long i = 0; i < 200000; ++i) {
    const auto update = src.on_frame(static_cast<double>(i) * kFrame);
    if (update.packets_generated > 0) {
      EXPECT_NEAR(src.packet().deadline - src.packet().generated_at, 20e-3,
                  1e-12);
      return;
    }
  }
  FAIL() << "no packet generated";
}

TEST(VoiceSource, UnconsumedPacketsExpire) {
  VoiceSource src(test_config(), common::RngStream(5));
  long generated = 0, expired = 0;
  const long n = 200000;  // 500 s, never consume
  for (long i = 0; i < n; ++i) {
    const auto update = src.on_frame(static_cast<double>(i) * kFrame);
    generated += update.packets_generated;
    expired += update.packets_expired;
  }
  ASSERT_GT(generated, 1000);
  // Every packet except possibly the live one must have expired.
  EXPECT_GE(expired, generated - 1);
  EXPECT_LE(expired, generated);
}

TEST(VoiceSource, ConsumedPacketsDontExpire) {
  VoiceSource src(test_config(), common::RngStream(6));
  long expired = 0;
  for (long i = 0; i < 100000; ++i) {
    const auto update = src.on_frame(static_cast<double>(i) * kFrame);
    expired += update.packets_expired;
    if (src.has_packet()) src.consume_packet();
  }
  EXPECT_EQ(expired, 0);
}

TEST(VoiceSource, MeanTalkspurtDuration) {
  VoiceSource src(test_config(), common::RngStream(7));
  double talk_time = 0.0;
  long talkspurts = 0;
  bool was_talking = false;
  const long n = 1000000;
  for (long i = 0; i < n; ++i) {
    src.on_frame(static_cast<double>(i) * kFrame);
    if (src.in_talkspurt()) {
      talk_time += kFrame;
      if (!was_talking) ++talkspurts;
    }
    was_talking = src.in_talkspurt();
  }
  ASSERT_GT(talkspurts, 500);
  EXPECT_NEAR(talk_time / static_cast<double>(talkspurts), 1.0, 0.1);
}

TEST(VoiceSource, TalkspurtStartFlagFires) {
  VoiceSource src(test_config(), common::RngStream(8));
  long starts = 0;
  bool was_talking = false;
  long transitions = 0;
  for (long i = 0; i < 400000; ++i) {
    const auto update = src.on_frame(static_cast<double>(i) * kFrame);
    if (update.talkspurt_started) ++starts;
    if (!was_talking && src.in_talkspurt()) ++transitions;
    was_talking = src.in_talkspurt();
  }
  // A talkspurt shorter than one frame starts and ends inside a single
  // on_frame call: the flag fires but the external observer never sees the
  // state high, so starts can exceed observed transitions slightly.
  EXPECT_GE(starts, transitions);
  EXPECT_LE(starts, transitions + transitions / 10 + 5);
  EXPECT_GT(starts, 100);
}

TEST(VoiceSource, NextPacketAtAdvances) {
  VoiceSource src(test_config(), common::RngStream(9));
  for (long i = 0; i < 200000; ++i) {
    const auto update = src.on_frame(static_cast<double>(i) * kFrame);
    if (update.packets_generated > 0) {
      EXPECT_NEAR(src.next_packet_at() - src.packet().generated_at, 20e-3,
                  1e-12);
      return;
    }
  }
  FAIL() << "no packet generated";
}

TEST(VoiceSource, Deterministic) {
  VoiceSource a(test_config(), common::RngStream(10));
  VoiceSource b(test_config(), common::RngStream(10));
  for (long i = 0; i < 50000; ++i) {
    const double t = static_cast<double>(i) * kFrame;
    const auto ua = a.on_frame(t);
    const auto ub = b.on_frame(t);
    ASSERT_EQ(ua.packets_generated, ub.packets_generated);
    ASSERT_EQ(a.in_talkspurt(), b.in_talkspurt());
  }
}

TEST(VoiceSource, InvalidConfig) {
  auto cfg = test_config();
  cfg.mean_talkspurt_s = 0.0;
  EXPECT_THROW(VoiceSource(cfg, common::RngStream(1)), std::invalid_argument);
  cfg = test_config();
  cfg.voice_period = 0.0;
  EXPECT_THROW(VoiceSource(cfg, common::RngStream(1)), std::invalid_argument);
}

TEST(VoiceSource, RejectsNonPositiveRateScale) {
  // A scale <= 0 would turn the divided exponential means into inf/NaN
  // toggle times, silently freezing the on/off chain. The source is the
  // last line of defense behind traffic::validate_or_throw at the config
  // parse layer — both must reject.
  VoiceSource src(test_config(), common::RngStream(12));
  EXPECT_THROW(src.set_rate_scale(0.0), std::invalid_argument);
  EXPECT_THROW(src.set_rate_scale(-1.0), std::invalid_argument);
  EXPECT_THROW(src.set_rate_scale(std::nan("")), std::invalid_argument);
  // A rejected call leaves the previous scale in force.
  src.set_rate_scale(2.0);
  EXPECT_THROW(src.set_rate_scale(-3.0), std::invalid_argument);
  VoiceSource ref(test_config(), common::RngStream(12));
  ref.set_rate_scale(2.0);
  for (long i = 0; i < 20000; ++i) {
    const double t = static_cast<double>(i) * kFrame;
    ASSERT_EQ(src.on_frame(t).packets_generated,
              ref.on_frame(t).packets_generated);
  }
}

TEST(VoiceSource, LongGapBetweenCallsReplaysEverything) {
  // Calling after a long gap (a variable-length RMAV frame) must process
  // all interim events, not lose them.
  VoiceSource a(test_config(), common::RngStream(11));
  VoiceSource b(test_config(), common::RngStream(11));
  long gen_a = 0, exp_a = 0, gen_b = 0, exp_b = 0;
  for (long i = 0; i < 40000; ++i) {  // 100 s at fine steps
    const auto u = a.on_frame(static_cast<double>(i) * kFrame);
    gen_a += u.packets_generated;
    exp_a += u.packets_expired;
  }
  for (long i = 0; i < 1000; ++i) {  // same horizon, 100 ms steps
    const auto u = b.on_frame(static_cast<double>(i) * 0.1);
    gen_b += u.packets_generated;
    exp_b += u.packets_expired;
  }
  // Land both sources on the identical final instant.
  {
    const auto ua = a.on_frame(100.0);
    gen_a += ua.packets_generated;
    exp_a += ua.packets_expired;
    const auto ub = b.on_frame(100.0);
    gen_b += ub.packets_generated;
    exp_b += ub.packets_expired;
  }
  // Same RNG stream, same state machine: identical totals.
  EXPECT_EQ(gen_a, gen_b);
  EXPECT_EQ(exp_a, exp_b);
}

TEST(VoiceSource, FrameByFrameMatchesEventTimeCalls) {
  // on_frame's inline nothing-due exit must agree with the replay loop's
  // own break condition: a source ticked every 2.5 ms frame (almost every
  // call takes the exit) must match a same-seed twin that is ticked only
  // at coarse, random or event-time strides — at every instant the twin is
  // ticked, including after a consume_packet() both apply there.
  constexpr long kFrames = 40000;  // 100 s
  const auto at = [](long n) { return static_cast<double>(n) * kFrame; };
  struct Policy {
    std::string name;
    std::function<bool(long, const VoiceSource&)> tick;
  };
  common::RngStream stride_rng(99);
  long next_random = 0;
  const Policy policies[] = {
      {"every 7 frames", [](long n, const VoiceSource&) { return n % 7 == 0; }},
      {"every 40 frames",
       [](long n, const VoiceSource&) { return n % 40 == 0; }},
      {"random 1..60 frames",
       [&](long n, const VoiceSource&) {
         if (n < next_random) return false;
         next_random = n + 1 + stride_rng.uniform_int(60);
         return true;
       }},
      {"event times",
       [&](long n, const VoiceSource& src) {
         return n == 0 || src.next_event_at() <= at(n) + 1e-9;
       }},
  };
  for (const auto& policy : policies) {
    SCOPED_TRACE(policy.name);
    next_random = 0;
    VoiceSource fine(test_config(), common::RngStream(21));
    VoiceSource coarse(test_config(), common::RngStream(21));
    common::RngStream consume_rng(5);
    std::int64_t gen_fine = 0, exp_fine = 0, gen_coarse = 0, exp_coarse = 0;
    long ticks = 0, consumed = 0;
    for (long n = 0; n <= kFrames; ++n) {
      const double t = at(n);
      const auto uf = fine.on_frame(t);
      gen_fine += uf.packets_generated;
      exp_fine += uf.packets_expired;
      if (!policy.tick(n, coarse)) continue;
      ++ticks;
      const auto uc = coarse.on_frame(t);
      gen_coarse += uc.packets_generated;
      exp_coarse += uc.packets_expired;
      ASSERT_EQ(gen_fine, gen_coarse) << "t = " << t;
      ASSERT_EQ(exp_fine, exp_coarse) << "t = " << t;
      ASSERT_EQ(fine.packets_generated(), coarse.packets_generated());
      ASSERT_EQ(fine.in_talkspurt(), coarse.in_talkspurt()) << "t = " << t;
      ASSERT_EQ(fine.next_packet_at(), coarse.next_packet_at());
      ASSERT_EQ(fine.next_event_at(), coarse.next_event_at());
      ASSERT_EQ(fine.has_packet(), coarse.has_packet()) << "t = " << t;
      if (fine.has_packet()) {
        ASSERT_EQ(fine.packet().generated_at, coarse.packet().generated_at);
        ASSERT_EQ(fine.packet().deadline, coarse.packet().deadline);
        // Transmit about half of the packets seen here: the rest expire,
        // so both the consume and the expiry exits are exercised.
        if (consume_rng.bernoulli(0.5)) {
          fine.consume_packet();
          coarse.consume_packet();
          ++consumed;
        }
      }
    }
    EXPECT_GT(ticks, 0);
    EXPECT_GT(consumed, 0);
    EXPECT_GT(exp_fine, 0);
    EXPECT_GT(gen_fine, 1000);  // ~43% activity x 100 s x 50 packets/s
  }
}

}  // namespace
}  // namespace charisma::traffic
