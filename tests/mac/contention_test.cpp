#include "mac/contention.hpp"

#include <gtest/gtest.h>
#include <map>

#include "common/rng.hpp"

namespace charisma::mac {
namespace {

class ContentionFixture : public ::testing::Test {
 protected:
  common::RngStream& rng_for(common::UserId id) {
    auto [it, _] = rngs_.try_emplace(id, common::RngStream(
                                             static_cast<std::uint64_t>(id) + 100));
    return it->second;
  }
  std::function<common::RngStream&(common::UserId)> rng_fn() {
    return [this](common::UserId id) -> common::RngStream& {
      return rng_for(id);
    };
  }
  /// One request phase into a fresh outcome.
  template <typename Permission>
  ContentionOutcome run(const std::vector<common::UserId>& candidates,
                        int minislots, Permission&& permission) {
    ContentionOutcome outcome;
    run_request_phase(candidates, minislots,
                      std::forward<Permission>(permission), rng_fn(), outcome);
    return outcome;
  }
  std::map<common::UserId, common::RngStream> rngs_;
};

TEST_F(ContentionFixture, EmptyCandidatesAllIdle) {
  const auto outcome = run({}, 5, [](auto) { return 0.3; });
  EXPECT_TRUE(outcome.winners.empty());
  EXPECT_EQ(outcome.tally.idle, 5);
  EXPECT_EQ(outcome.tally.minislots, 5);
}

TEST_F(ContentionFixture, SingleGreedyCandidateWinsFirstSlot) {
  const auto outcome = run({7}, 5, [](auto) { return 1.0; });
  ASSERT_EQ(outcome.winners.size(), 1u);
  EXPECT_EQ(outcome.winners[0], 7);
  EXPECT_EQ(outcome.tally.successes, 1);
  EXPECT_EQ(outcome.tally.idle, 4);  // pool empty afterwards
}

TEST_F(ContentionFixture, TwoGreedyCandidatesAlwaysCollide) {
  const auto outcome = run({1, 2}, 10, [](auto) { return 1.0; });
  EXPECT_TRUE(outcome.winners.empty());
  EXPECT_EQ(outcome.tally.collisions, 10);
  // Both transmitted (for backoff bookkeeping).
  EXPECT_EQ(outcome.transmitted.size(), 2u);
}

TEST_F(ContentionFixture, WinnersAreUnique) {
  std::vector<common::UserId> candidates;
  for (int i = 0; i < 8; ++i) candidates.push_back(i);
  const auto outcome = run(candidates, 50,
                                         [](auto) { return 0.25; });
  std::set<common::UserId> unique(outcome.winners.begin(),
                                  outcome.winners.end());
  EXPECT_EQ(unique.size(), outcome.winners.size());
}

TEST_F(ContentionFixture, TallySumsToMinislots) {
  std::vector<common::UserId> candidates{0, 1, 2, 3, 4};
  const auto outcome = run(candidates, 12,
                                         [](auto) { return 0.3; });
  EXPECT_EQ(outcome.tally.successes + outcome.tally.collisions +
                outcome.tally.idle,
            12);
  EXPECT_EQ(static_cast<int>(outcome.winners.size()), outcome.tally.successes);
}

TEST_F(ContentionFixture, TransmittedSupersetOfWinners) {
  std::vector<common::UserId> candidates{0, 1, 2, 3, 4, 5};
  const auto outcome = run(candidates, 12,
                                         [](auto) { return 0.4; });
  for (common::UserId w : outcome.winners) {
    EXPECT_NE(std::find(outcome.transmitted.begin(), outcome.transmitted.end(),
                        w),
              outcome.transmitted.end());
  }
}

TEST_F(ContentionFixture, ZeroPermissionNeverTransmits) {
  std::vector<common::UserId> candidates{0, 1, 2};
  const auto outcome = run(candidates, 8,
                                         [](auto) { return 0.0; });
  EXPECT_TRUE(outcome.winners.empty());
  EXPECT_TRUE(outcome.transmitted.empty());
  EXPECT_EQ(outcome.tally.idle, 8);
}

TEST_F(ContentionFixture, PerClassPermissions) {
  // User 0 greedy, others silent: user 0 wins the first slot.
  std::vector<common::UserId> candidates{0, 1, 2};
  const auto outcome = run(
      candidates, 4, [](common::UserId id) { return id == 0 ? 1.0 : 0.0; });
  ASSERT_EQ(outcome.winners.size(), 1u);
  EXPECT_EQ(outcome.winners[0], 0);
}

TEST_F(ContentionFixture, NegativeMinislotsThrow) {
  EXPECT_THROW(run({1}, -1, [](auto) { return 0.5; }),
               std::invalid_argument);
}

TEST_F(ContentionFixture, ReusedOutcomeIsResetEachPhase) {
  // A caller-owned outcome carries nothing from one phase into the next.
  ContentionOutcome outcome;
  run_request_phase({1, 2}, 6, [](auto) { return 1.0; }, rng_fn(), outcome);
  ASSERT_EQ(outcome.tally.collisions, 6);
  run_request_phase({7}, 3, [](auto) { return 1.0; }, rng_fn(), outcome);
  EXPECT_EQ(outcome.tally.minislots, 3);
  EXPECT_EQ(outcome.tally.collisions, 0);
  EXPECT_EQ(outcome.tally.successes, 1);
  EXPECT_EQ(outcome.tally.idle, 2);
  EXPECT_EQ(outcome.tally.transmissions, 1);
  EXPECT_EQ(outcome.winners, std::vector<common::UserId>{7});
  EXPECT_EQ(outcome.transmitted, std::vector<common::UserId>{7});
}

TEST_F(ContentionFixture, SuccessRateNearTheory) {
  // With k contenders at permission p, P(success per slot) =
  // k p (1-p)^(k-1) while the pool is intact. Use a single slot per phase
  // so the pool never shrinks.
  const double p = 0.3;
  const int k = 4;
  std::vector<common::UserId> candidates;
  for (int i = 0; i < k; ++i) candidates.push_back(i);
  int successes = 0;
  const int trials = 20000;
  for (int t = 0; t < trials; ++t) {
    const auto outcome =
        run(candidates, 1, [p](auto) { return p; });
    successes += outcome.tally.successes;
  }
  const double expected = k * p * std::pow(1.0 - p, k - 1);
  EXPECT_NEAR(static_cast<double>(successes) / trials, expected, 0.01);
}

TEST_F(ContentionFixture, DrainsEntirePoolGivenEnoughSlots) {
  std::vector<common::UserId> candidates{0, 1, 2, 3};
  const auto outcome = run(candidates, 400,
                                         [](auto) { return 0.3; });
  EXPECT_EQ(outcome.winners.size(), 4u);
}

}  // namespace
}  // namespace charisma::mac
