// The lazy-materialization contract of ChannelBank:
//
//  * k deferred clock moves + one materialization IS one k-jump — bitwise,
//    per diversity branch, RNG cursor included (the property that makes the
//    closed-form jump an *implementation detail* of lazy mode);
//  * the touch set is an optimization, not an obligation: scattered
//    on-read materialization equals one batched declaration, bitwise;
//  * the materialization counters account for every user-frame exactly.
#include "channel/channel_bank.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <functional>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "common/rng.hpp"

namespace charisma::channel {
namespace {

constexpr double kDt = 2.5e-3;

ChannelConfig test_config() {
  ChannelConfig cfg;
  cfg.mean_snr_db = 16.0;
  cfg.shadow_sigma_db = 3.0;
  cfg.doppler_hz = 100.0;
  cfg.diversity_branches = 4;
  cfg.sample_interval = kDt;
  return cfg;
}

ChannelBank make_bank(int users, std::uint64_t seed0) {
  ChannelBank bank(test_config());
  bank.reserve(static_cast<std::size_t>(users));
  for (int u = 0; u < users; ++u) {
    bank.acquire_user(
        common::RngStream(seed0 + static_cast<std::uint64_t>(u)).engine()());
  }
  return bank;
}

// NOTE: fading_power/shadow_db/snr_linear are materializing reads on a lazy
// bank, so comparing two banks is itself a (bitwise-neutral) touch — callers
// must compare users both banks have already materialized, or bulk-advance
// first, for the current_step assertion to be meaningful.
void expect_user_bitwise_equal(const ChannelBank& a, const ChannelBank& b,
                               std::size_t u) {
  SCOPED_TRACE("user " + std::to_string(u));
  ASSERT_EQ(a.current_step(u), b.current_step(u));
  for (int br = 0; br < a.config().diversity_branches; ++br) {
    SCOPED_TRACE("branch " + std::to_string(br));
    EXPECT_EQ(a.fade_re(u, br), b.fade_re(u, br));  // exact, not NEAR
    EXPECT_EQ(a.fade_im(u, br), b.fade_im(u, br));
  }
  EXPECT_EQ(a.fading_power(u), b.fading_power(u));
  EXPECT_EQ(a.shadow_db(u), b.shadow_db(u));
  EXPECT_EQ(a.snr_linear(u), b.snr_linear(u));
  EXPECT_EQ(a.rng_cursor(u), b.rng_cursor(u));
}

void expect_users_bitwise_equal(const ChannelBank& a, const ChannelBank& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t u = 0; u < a.size(); ++u) {
    expect_user_bitwise_equal(a, b, u);
  }
}

TEST(LazyBank, DeferredClockPlusMaterializeEqualsOneJump) {
  // For every stride k in 1..257: k O(1) clock moves followed by the first
  // read must equal the single eager k-jump — the same closed-form step,
  // the same innovation draws, the same RNG cursor afterwards.
  for (int k = 1; k <= 257; ++k) {
    SCOPED_TRACE("k = " + std::to_string(k));
    auto lazy = make_bank(3, 40);
    auto eager = make_bank(3, 40);
    lazy.set_lazy(true);
    for (int i = 1; i <= k; ++i) {
      lazy.set_time(static_cast<double>(i) * kDt);
    }
    // First read materializes: one jump of stride k.
    ASSERT_GT(lazy.fading_power(1), 0.0);
    // Reference: the eager bulk advance. Rows are independent, so user 1
    // takes the same single k-jump there.
    eager.advance_all_to(static_cast<double>(k) * kDt);

    ASSERT_EQ(lazy.current_step(1), static_cast<std::int64_t>(k));
    for (int br = 0; br < 4; ++br) {
      ASSERT_EQ(lazy.fade_re(1, br), eager.fade_re(1, br)) << "branch " << br;
      ASSERT_EQ(lazy.fade_im(1, br), eager.fade_im(1, br)) << "branch " << br;
    }
    ASSERT_EQ(lazy.fading_power(1), eager.fading_power(1));
    ASSERT_EQ(lazy.shadow_db(1), eager.shadow_db(1));
    ASSERT_EQ(lazy.snr_linear(1), eager.snr_linear(1));
    ASSERT_EQ(lazy.rng_cursor(1), eager.rng_cursor(1));
    // Untouched neighbours were never materialized by the per-user read.
    ASSERT_EQ(lazy.current_step(0), 0);
    ASSERT_EQ(lazy.current_step(2), 0);
  }
}

TEST(LazyBank, BulkAdvanceEqualsLazyMaterializeAll) {
  // advance_all_to is already one k-jump per user, so "clock move + full
  // materialization" and the eager bulk call are the same operation — the
  // one place lazy and eager schedules coincide bitwise.
  auto lazy = make_bank(6, 90);
  auto eager = make_bank(6, 90);
  lazy.set_lazy(true);
  for (double t : {5 * kDt, 6 * kDt, 70 * kDt}) {
    lazy.set_time(t);
    lazy.materialize_all();
    eager.advance_all_to(t);
    expect_users_bitwise_equal(lazy, eager);
  }
}

TEST(LazyBank, OnReadMatchesBatchedTouch) {
  // Declaring a frame's read set up front is an optimization only:
  // scattered per-read materialization (here in reverse order, mid-frame)
  // must land on exactly the same state and RNG cursors.
  const int n = 12;
  auto on_read = make_bank(n, 300);
  auto batched = make_bank(n, 300);
  on_read.set_lazy(true);
  batched.set_lazy(true);
  for (int f = 1; f <= 25; ++f) {
    const double t = static_cast<double>(f) * kDt;
    std::vector<common::UserId> touched;
    for (int u = f % 3; u < n; u += 3) {
      touched.push_back(static_cast<common::UserId>(u));
    }
    batched.set_time(t);
    batched.materialize_users(touched);
    on_read.set_time(t);
    for (auto it = touched.rbegin(); it != touched.rend(); ++it) {
      ASSERT_GT(on_read.snr_linear(static_cast<std::size_t>(*it)), 0.0);
    }
  }
  // Settle stragglers, then compare the whole population.
  on_read.materialize_all();
  batched.materialize_all();
  expect_users_bitwise_equal(on_read, batched);
}

TEST(LazyBank, CounterAccounting) {
  // 8 users, 10 frames: user 0 touched every frame, the rest settled once
  // at the end. Every user-frame of evolution must be accounted: frames =
  // 8 * 10 = 80; events = 10 (user 0) + 7 (one deferred jump each) = 17.
  auto bank = make_bank(8, 500);
  bank.set_lazy(true);
  const common::UserId zero[] = {0};
  for (int f = 1; f <= 9; ++f) {
    bank.set_time(static_cast<double>(f) * kDt);
    bank.materialize_users(zero);
  }
  bank.advance_all_to(10 * kDt);
  const auto stats = bank.lazy_stats();
  EXPECT_EQ(stats.jump_frames, 80);
  EXPECT_EQ(stats.jump_events, 17);

  // Eager banks report stride exactly 1: events == frames.
  auto eager = make_bank(8, 500);
  for (int f = 1; f <= 10; ++f) {
    eager.advance_all_to(static_cast<double>(f) * kDt);
  }
  const auto eager_stats = eager.lazy_stats();
  EXPECT_EQ(eager_stats.jump_events, 80);
  EXPECT_EQ(eager_stats.jump_frames, 80);
}

TEST(LazyBank, GuardsAndErrors) {
  auto bank = make_bank(4, 800);
  bank.set_lazy(true);
  bank.set_time(5 * kDt);
  EXPECT_THROW(bank.set_time(4 * kDt), std::logic_error);
  const common::UserId bogus[] = {99};
  EXPECT_THROW(bank.materialize_users(bogus), std::out_of_range);
  // Duplicates in a touch set are fine (second materialization no-ops).
  const common::UserId dupes[] = {0, 0, 1};
  EXPECT_NO_THROW(bank.materialize_users(dupes));

  // Eager banks share the guard: a bulk advance to an earlier time throws.
  auto eager = make_bank(2, 900);
  eager.advance_all_to(10 * kDt);
  EXPECT_THROW(eager.advance_all_to(5 * kDt), std::logic_error);
}

TEST(LazyBank, MaterializeVacantSlotThrows) {
  // A released row is off the books: a touch set naming it (a stale
  // id/slot mapping) must throw before anything advances, not silently
  // jump the vacant row and count it in lazy_stats().
  auto bank = make_bank(4, 1000);
  bank.set_lazy(true);
  bank.release_user(2);
  bank.set_time(6 * kDt);
  const auto before = bank.lazy_stats();
  const std::int64_t step_before = bank.current_step(0);
  const common::UserId stale[] = {0, 2};
  try {
    bank.materialize_users(stale);
    FAIL() << "materializing a vacant slot must throw";
  } catch (const std::logic_error& e) {
    EXPECT_NE(std::string(e.what()).find("slot 2"), std::string::npos)
        << e.what();
  }
  bank.set_time(7 * kDt);
  EXPECT_THROW(bank.materialize_users(stale), std::logic_error);
  const auto after = bank.lazy_stats();
  EXPECT_EQ(after.jump_events, before.jump_events);
  EXPECT_EQ(after.jump_frames, before.jump_frames);
  EXPECT_EQ(bank.current_step(0), step_before);  // validated before advancing

  // Live slots still materialize, and the vacant row stays out of the
  // accounting.
  const common::UserId live[] = {0, 1, 3};
  bank.materialize_users(live);
  EXPECT_EQ(bank.lazy_stats().jump_events, before.jump_events + 3);
}

TEST(LazyBank, BackwardsTimeIsRejectedByTheOneClock) {
  // A bank has one clock and no row ever runs ahead of it, so the clock
  // move is the only backwards-time guard: every entry point that takes a
  // time reports it under set_time's name, in both modes, and a rejected
  // call moves neither the clock nor any row.
  for (const bool lazy : {false, true}) {
    SCOPED_TRACE(lazy ? "lazy" : "eager");
    auto bank = make_bank(2, 1100);
    bank.set_lazy(lazy);
    bank.advance_all_to(10 * kDt);
    const auto before = bank.lazy_stats();
    for (const auto& [name, call] :
         std::vector<std::pair<std::string, std::function<void()>>>{
             {"set_time", [&] { bank.set_time(5 * kDt); }},
             {"advance_all_to", [&] { bank.advance_all_to(5 * kDt); }},
         }) {
      try {
        call();
        ADD_FAILURE() << name << " did not throw";
      } catch (const std::logic_error& e) {
        EXPECT_EQ(std::string(e.what()),
                  "ChannelBank::set_time: time went backwards")
            << name;
      }
    }
    EXPECT_EQ(bank.lazy_stats().jump_events, before.jump_events);
    EXPECT_EQ(bank.current_step(0), 10);
    EXPECT_EQ(bank.current_step(1), 10);
    // The clock still moves forward from where it was.
    bank.advance_all_to(11 * kDt);
    EXPECT_EQ(bank.current_step(0), 11);
    EXPECT_EQ(bank.lazy_stats().jump_events, before.jump_events + 2);
  }
}

}  // namespace
}  // namespace charisma::channel
