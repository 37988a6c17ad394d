// ProtocolEngine::run window semantics: durations are relative to now(),
// so repeated runs are window-monotonic — each call continues the same
// simulation and measures a fresh, non-empty window. (A second run with an
// absolute warmup at or before now() used to return a zero-frame window
// whose rate helpers divided by zero.) Also pins the engine's own frame
// loop: the first frame starts at t = 0, each next frame where the last
// one ended, a frame starting exactly at the window end runs, and now()
// parks exactly at the window end.
#include <gtest/gtest.h>

#include <cmath>

#include "../support/scenarios.hpp"
#include "protocols/factory.hpp"

namespace charisma::mac {
namespace {

using protocols::ProtocolId;

TEST(EngineRunWindows, RepeatedRunsEachMeasureTheirOwnWindow) {
  auto engine = protocols::make_protocol(ProtocolId::kCharisma,
                                         testing::small_mixed(8, 2));
  const auto& first = engine->run(0.5, 1.0);
  EXPECT_GT(first.frames, 0);
  EXPECT_NEAR(first.measured_time, 1.0, 0.05);
  EXPECT_NEAR(engine->now(), 1.5, 0.05);

  // The historical failure mode: warmup (0.5) <= now() (1.5) made both
  // advances no-ops and returned zero frames.
  const auto& second = engine->run(0.5, 1.0);
  EXPECT_GT(second.frames, 0);
  EXPECT_NEAR(second.measured_time, 1.0, 0.05);
  EXPECT_NEAR(engine->now(), 3.0, 0.05);
  EXPECT_GE(second.voice_generated, 0);
}

TEST(EngineRunWindows, ZeroWarmupRepeatedRunStillMeasures) {
  auto engine = protocols::make_protocol(ProtocolId::kDtdmaFr,
                                         testing::small_mixed(8, 2));
  (void)engine->run(0.0, 1.0);
  const auto& again = engine->run(0.0, 1.0);
  EXPECT_GT(again.frames, 0);
  EXPECT_NEAR(engine->now(), 2.0, 0.05);
}

TEST(EngineRunWindows, InvalidDurationsThrow) {
  auto engine = protocols::make_protocol(ProtocolId::kCharisma,
                                         testing::small_mixed(4, 0));
  EXPECT_THROW(engine->run(-0.1, 1.0), std::invalid_argument);
  EXPECT_THROW(engine->run(1.0, 0.0), std::invalid_argument);
  EXPECT_THROW(engine->run(1.0, -1.0), std::invalid_argument);
}

TEST(EngineRunWindows, AdvanceByAccumulatesWithoutReset) {
  auto engine = protocols::make_protocol(ProtocolId::kCharisma,
                                         testing::small_mixed(8, 0));
  engine->advance_by(1.0);
  const auto frames_first = engine->metrics().frames;
  EXPECT_GT(frames_first, 0);
  engine->advance_by(1.0);
  EXPECT_GT(engine->metrics().frames, frames_first);
  EXPECT_NEAR(engine->now(), 2.0, 0.05);
  // Non-positive advances are no-ops.
  engine->advance_by(0.0);
  engine->advance_by(-1.0);
  EXPECT_NEAR(engine->now(), 2.0, 0.05);
}

TEST(EngineFrameLoop, NowParksExactlyAtWindowEnd) {
  auto engine = protocols::make_protocol(ProtocolId::kRmav,
                                         testing::small_mixed(8, 2));
  for (const common::Time d : {0.37, 1e-4, 1.0, 2.5e-3 / 3.0}) {
    const common::Time start = engine->now();
    engine->advance_by(d);
    EXPECT_EQ(engine->now(), start + d);
  }
}

TEST(EngineFrameLoop, FirstFrameRunsAtTimeZero) {
  auto engine = protocols::make_protocol(ProtocolId::kDtdmaFr,
                                         testing::small_mixed(4, 1));
  engine->advance_by(1e-9);  // a window far shorter than one frame
  EXPECT_EQ(engine->frame_index(), 1);
  EXPECT_EQ(engine->metrics().frames, 1);
}

TEST(EngineFrameLoop, FrameStartingAtWindowEndRuns) {
  // Fixed frames start at 0, D, D + D, ... — each the previous start plus
  // the frame duration, the same sum the loop forms. A window ending
  // exactly on the k-th start runs frames 0..k; ending just before it,
  // only frames 0..k-1.
  const auto params = testing::small_mixed(4, 1);
  const common::Time frame = params.geometry.frame_duration;
  constexpr int kFrames = 400;
  common::Time start_k = 0.0;
  for (int k = 0; k < kFrames; ++k) start_k += frame;

  auto exact = protocols::make_protocol(ProtocolId::kDtdmaFr, params);
  exact->advance_by(start_k);
  EXPECT_EQ(exact->frame_index(), kFrames + 1);

  auto short_of = protocols::make_protocol(ProtocolId::kDtdmaFr, params);
  short_of->advance_by(std::nextafter(start_k, 0.0));
  EXPECT_EQ(short_of->frame_index(), kFrames);
}

TEST(EngineFrameLoop, SubFramePiecesMatchOneAdvance) {
  // Slicing a window into pieces shorter than a frame must run the same
  // frames with the same results as one advance over it — for fixed frames
  // (D-TDMA/FR) and data-dependent ones (RMAV, DRMA).
  constexpr common::Time kWindow = 2.0;
  for (const auto id :
       {ProtocolId::kDtdmaFr, ProtocolId::kRmav, ProtocolId::kDrma}) {
    SCOPED_TRACE(protocols::protocol_name(id));
    const auto params = testing::small_mixed(10, 3);
    auto whole = protocols::make_protocol(id, params);
    whole->advance_by(kWindow);

    auto pieces = protocols::make_protocol(id, params);
    const common::Time piece = 0.37 * params.geometry.frame_duration;
    while (pieces->now() + piece < kWindow) pieces->advance_by(piece);
    // now() >= kWindow / 2 here, so the remainder is exact and the last
    // window ends exactly on kWindow.
    pieces->advance_by(kWindow - pieces->now());

    ASSERT_EQ(pieces->now(), kWindow);
    EXPECT_EQ(pieces->frame_index(), whole->frame_index());
    EXPECT_GT(whole->metrics().frames, 0);
    EXPECT_TRUE(pieces->metrics() == whole->metrics());
  }
}

TEST(EngineFrameLoop, NonPositiveFrameDurationThrows) {
  // A frame that consumed no time would never move the loop past the
  // window end.
  struct StalledProtocol : ProtocolEngine {
    using ProtocolEngine::ProtocolEngine;
    std::string name() const override { return "stalled"; }
    common::Time process_frame() override { return 0.0; }
  };
  StalledProtocol engine(testing::small_mixed(2, 0));
  EXPECT_THROW(engine.advance_by(1.0), std::logic_error);
}

}  // namespace
}  // namespace charisma::mac
