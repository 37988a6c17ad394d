#include "mac/request_queue.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <vector>

#include "common/rng.hpp"

namespace charisma::mac {
namespace {

// The queue is keyed by storage slot; these tests give each user the slot
// equal to its id unless they say otherwise.
PendingRequest voice_request(common::UserId user, double deadline) {
  PendingRequest r;
  r.user = user;
  r.slot = static_cast<std::size_t>(user);
  r.type = RequestType::kVoice;
  r.deadline = deadline;
  return r;
}

PendingRequest data_request(common::UserId user) {
  PendingRequest r;
  r.user = user;
  r.slot = static_cast<std::size_t>(user);
  r.type = RequestType::kData;
  r.deadline = std::numeric_limits<double>::infinity();
  return r;
}

TEST(RequestQueue, PushAndContains) {
  RequestQueue q;
  EXPECT_TRUE(q.empty());
  q.push(voice_request(1, 1.0));
  EXPECT_TRUE(q.contains(1));
  EXPECT_FALSE(q.contains(2));
  EXPECT_EQ(q.size(), 1u);
}

TEST(RequestQueue, RemoveByUser) {
  RequestQueue q;
  q.push(voice_request(1, 1.0));
  q.push(data_request(2));
  q.remove(1);
  EXPECT_FALSE(q.contains(1));
  EXPECT_TRUE(q.contains(2));
}

TEST(RequestQueue, PurgeExpiredVoiceOnly) {
  RequestQueue q;
  q.push(voice_request(1, 0.5));   // expires
  q.push(voice_request(2, 2.0));   // survives
  q.push(data_request(3));         // data never expires
  const int purged = q.purge_expired_voice(1.0);
  EXPECT_EQ(purged, 1);
  EXPECT_FALSE(q.contains(1));
  EXPECT_TRUE(q.contains(2));
  EXPECT_TRUE(q.contains(3));
}

TEST(RequestQueue, PurgeAtExactDeadline) {
  RequestQueue q;
  q.push(voice_request(1, 1.0));
  EXPECT_EQ(q.purge_expired_voice(1.0), 1);  // deadline reached => dead
}

TEST(RequestQueue, AgeAllIncrementsWaiting) {
  RequestQueue q;
  q.push(voice_request(1, 5.0));
  q.push(data_request(2));
  q.age_all();
  q.age_all();
  for (const auto& r : q.entries()) {
    EXPECT_EQ(r.frames_waited, 2);
  }
}

TEST(RequestQueue, FifoOrderPreserved) {
  RequestQueue q;
  for (int i = 0; i < 5; ++i) q.push(data_request(i));
  int expected = 0;
  for (const auto& r : q.entries()) {
    EXPECT_EQ(r.user, expected++);
  }
}

TEST(RequestQueue, ClearEmpties) {
  RequestQueue q;
  q.push(data_request(1));
  q.clear();
  EXPECT_TRUE(q.empty());
  EXPECT_FALSE(q.contains(1));
}

TEST(RequestQueue, MembershipFollowsTheSlotNotTheId) {
  // A sparse engine's user 900 may live in slot 2: the key is the slot.
  RequestQueue q;
  PendingRequest r = data_request(900);
  r.slot = 2;
  q.push(r);
  EXPECT_TRUE(q.contains(2));
  EXPECT_FALSE(q.contains(900));
  q.remove(900);  // no entry at slot 900: a no-op
  EXPECT_EQ(q.size(), 1u);
  q.remove(2);
  EXPECT_TRUE(q.empty());
  EXPECT_FALSE(q.contains(2));
}

// Property: after every step of a random push / remove /
// purge_expired_voice / clear / serve-style rebuild sequence, contains()
// agrees with a linear scan of the entries, and the entries match a plain
// model vector kept in lockstep.
TEST(RequestQueueProperty, ContainsAgreesWithLinearScan) {
  constexpr int kSlots = 24;
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    SCOPED_TRACE(seed);
    common::RngStream rng(seed);
    RequestQueue q;
    std::vector<PendingRequest> model;
    double now = 0.0;
    auto scan = [&model](std::size_t slot) {
      return std::any_of(model.begin(), model.end(),
                         [slot](const PendingRequest& r) {
                           return r.slot == slot;
                         });
    };
    for (int step = 0; step < 400; ++step) {
      const int op = rng.uniform_int(10);
      const auto slot = static_cast<std::size_t>(rng.uniform_int(kSlots));
      if (op < 4) {
        // File a request for a slot with none (every protocol's contract).
        if (!scan(slot)) {
          PendingRequest r =
              rng.bernoulli(0.5) ? voice_request(static_cast<int>(slot) + 100,
                                                 now + rng.uniform(0.0, 0.05))
                                 : data_request(static_cast<int>(slot) + 100);
          r.slot = slot;
          q.push(r);
          model.push_back(r);
        }
      } else if (op < 6) {
        q.remove(slot);
        std::erase_if(model, [slot](const PendingRequest& r) {
          return r.slot == slot;
        });
      } else if (op < 8) {
        now += 0.01;
        const int purged = q.purge_expired_voice(now);
        const auto before = model.size();
        std::erase_if(model, [now](const PendingRequest& r) {
          return r.type == RequestType::kVoice && now + 1e-9 >= r.deadline;
        });
        EXPECT_EQ(purged, static_cast<int>(before - model.size()));
      } else if (op < 9) {
        // Serve-style rebuild: take the entries, clear, and re-file the
        // unserved ones (voice first), as serve_voice_first does.
        std::vector<PendingRequest> kept;
        for (const auto type : {RequestType::kVoice, RequestType::kData}) {
          for (const auto& r : q.entries()) {
            if (r.type == type && rng.bernoulli(0.6)) kept.push_back(r);
          }
        }
        q.clear();
        for (const auto& r : kept) q.push(r);
        model = kept;
      } else {
        q.clear();
        model.clear();
      }
      ASSERT_EQ(q.size(), model.size());
      for (std::size_t i = 0; i < model.size(); ++i) {
        ASSERT_EQ(q.entries()[i].slot, model[i].slot);
        ASSERT_EQ(q.entries()[i].user, model[i].user);
      }
      for (std::size_t s = 0; s < std::size_t{kSlots} + 4; ++s) {
        ASSERT_EQ(q.contains(s), scan(s)) << "slot " << s << " step " << step;
      }
    }
  }
}

}  // namespace
}  // namespace charisma::mac
