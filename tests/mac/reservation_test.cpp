#include "mac/reservation.hpp"

#include <gtest/gtest.h>

#include <vector>

#include "common/rng.hpp"

namespace charisma::mac {
namespace {

// The grid keys its reverse map by storage row; these tests give each user
// the row equal to its id unless they say otherwise.
std::size_t row(common::UserId id) { return static_cast<std::size_t>(id); }

std::vector<common::UserId> due(const ReservationGrid& grid, int phase) {
  std::vector<common::UserId> out;
  grid.due_in_phase(phase, out);
  return out;
}

TEST(Reservation, ReserveAssignsLowestFreeSlot) {
  ReservationGrid grid(8, 10);
  EXPECT_EQ(grid.reserve(3, 100, row(100)).value(), 0);
  EXPECT_EQ(grid.reserve(3, 101, row(101)).value(), 1);
  EXPECT_EQ(grid.reserve(4, 102, row(102)).value(), 0);
}

TEST(Reservation, PhaseFullReturnsNullopt) {
  ReservationGrid grid(2, 2);
  EXPECT_TRUE(grid.reserve(0, 1, row(1)).has_value());
  EXPECT_TRUE(grid.reserve(0, 2, row(2)).has_value());
  EXPECT_FALSE(grid.reserve(0, 3, row(3)).has_value());
  // Other phase unaffected.
  EXPECT_TRUE(grid.reserve(1, 3, row(3)).has_value());
}

TEST(Reservation, DoubleReserveFails) {
  ReservationGrid grid(8, 10);
  EXPECT_TRUE(grid.reserve(0, 5, row(5)).has_value());
  EXPECT_FALSE(grid.reserve(1, 5, row(5)).has_value());
}

TEST(Reservation, ReleaseFreesSlot) {
  ReservationGrid grid(2, 1);
  EXPECT_TRUE(grid.reserve(0, 7, row(7)).has_value());
  EXPECT_FALSE(grid.reserve(0, 8, row(8)).has_value());
  grid.release(row(7));
  EXPECT_FALSE(grid.has_reservation(row(7)));
  EXPECT_TRUE(grid.reserve(0, 8, row(8)).has_value());
}

TEST(Reservation, ReleaseUnknownIsNoop) {
  ReservationGrid grid(2, 2);
  EXPECT_NO_THROW(grid.release(row(99)));
}

TEST(Reservation, DueInPhaseSlotOrder) {
  ReservationGrid grid(4, 5);
  grid.reserve(2, 10, row(10));
  grid.reserve(2, 11, row(11));
  grid.reserve(2, 12, row(12));
  grid.release(row(11));
  const auto owners = due(grid, 2);
  ASSERT_EQ(owners.size(), 2u);
  EXPECT_EQ(owners[0], 10);
  EXPECT_EQ(owners[1], 12);
  EXPECT_TRUE(due(grid, 0).empty());
}

TEST(Reservation, DueInPhaseClearsTheScratch) {
  ReservationGrid grid(2, 3);
  grid.reserve(1, 4, row(4));
  std::vector<common::UserId> out{99, 98};
  grid.due_in_phase(1, out);
  EXPECT_EQ(out, std::vector<common::UserId>{4});
  grid.due_in_phase(0, out);
  EXPECT_TRUE(out.empty());
}

TEST(Reservation, CellsHoldIdsKeyedByRow) {
  // A sparse engine's user 900 may live in row 3: the cell reports the id,
  // membership follows the row.
  ReservationGrid grid(2, 2);
  EXPECT_TRUE(grid.reserve_at(1, 1, 900, 3));
  EXPECT_EQ(grid.user_at(1, 1), 900);
  EXPECT_TRUE(grid.has_reservation(3));
  EXPECT_FALSE(grid.has_reservation(900));
  grid.release(3);
  EXPECT_EQ(grid.user_at(1, 1), common::kNoUser);
  EXPECT_EQ(grid.occupied_total(), 0);
}

TEST(Reservation, ReserveAtSpecificSlot) {
  ReservationGrid grid(8, 10);
  EXPECT_TRUE(grid.reserve_at(1, 7, 20, row(20)));
  EXPECT_EQ(grid.user_at(1, 7), 20);
  EXPECT_FALSE(grid.reserve_at(1, 7, 21, row(21)));  // occupied
  EXPECT_FALSE(grid.reserve_at(2, 3, 20, row(20)));  // user already holds one
}

TEST(Reservation, UserAtEmpty) {
  ReservationGrid grid(2, 2);
  EXPECT_EQ(grid.user_at(0, 0), common::kNoUser);
}

TEST(Reservation, OccupancyCounts) {
  ReservationGrid grid(4, 3);
  grid.reserve(0, 1, row(1));
  grid.reserve(0, 2, row(2));
  grid.reserve(1, 3, row(3));
  EXPECT_EQ(due(grid, 0).size(), 2u);
  EXPECT_EQ(grid.occupied_total(), 3);
}

TEST(Reservation, BoundsChecking) {
  ReservationGrid grid(4, 3);
  std::vector<common::UserId> out;
  EXPECT_THROW(grid.reserve(-1, 1, row(1)), std::out_of_range);
  EXPECT_THROW(grid.reserve(4, 1, row(1)), std::out_of_range);
  EXPECT_THROW(grid.due_in_phase(9, out), std::out_of_range);
  EXPECT_THROW(grid.user_at(0, 3), std::out_of_range);
  EXPECT_THROW(grid.reserve_at(0, -1, 1, row(1)), std::out_of_range);
}

TEST(Reservation, InvalidDimensions) {
  EXPECT_THROW(ReservationGrid(0, 5), std::invalid_argument);
  EXPECT_THROW(ReservationGrid(5, 0), std::invalid_argument);
}

TEST(Reservation, FullGridCapacity) {
  ReservationGrid grid(8, 10);
  int admitted = 0;
  for (int u = 0; u < 100; ++u) {
    if (grid.reserve(u % 8, u, row(u)).has_value()) ++admitted;
  }
  EXPECT_EQ(admitted, 80);  // phases * slots positions
  EXPECT_EQ(grid.occupied_total(), 80);
}

// Property: under random reserve / reserve_at / release — including a row
// reused by a different user after its release, as a sparse engine's free
// list does — has_reservation, occupied_total and due_in_phase agree with a
// scan of the cells.
TEST(ReservationProperty, FlatTablesAgreeWithACellScan) {
  constexpr int kPhases = 4;
  constexpr int kSlots = 3;
  constexpr int kRows = 20;
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    SCOPED_TRACE(seed);
    common::RngStream rng(seed);
    ReservationGrid grid(kPhases, kSlots);
    // The id living in each row; a release may hand the row to a new id.
    std::vector<common::UserId> id_of(kRows);
    for (int r = 0; r < kRows; ++r) id_of[static_cast<std::size_t>(r)] = r;
    common::UserId next_id = kRows;
    for (int step = 0; step < 300; ++step) {
      const int r = rng.uniform_int(kRows);
      const auto rr = static_cast<std::size_t>(r);
      const common::UserId id = id_of[static_cast<std::size_t>(r)];
      const int op = rng.uniform_int(3);
      const int phase = rng.uniform_int(kPhases);
      if (op == 0) {
        grid.reserve(phase, id, rr);
      } else if (op == 1) {
        grid.reserve_at(phase, rng.uniform_int(kSlots), id, rr);
      } else {
        grid.release(rr);
        if (rng.bernoulli(0.5)) {
          id_of[static_cast<std::size_t>(r)] = next_id++;  // row reused
        }
      }
      // The scan: which id holds each cell, and so which rows hold one.
      int occupied = 0;
      for (int p = 0; p < kPhases; ++p) {
        std::vector<common::UserId> scanned;
        for (int s = 0; s < kSlots; ++s) {
          const common::UserId owner = grid.user_at(p, s);
          if (owner != common::kNoUser) scanned.push_back(owner);
        }
        occupied += static_cast<int>(scanned.size());
        ASSERT_EQ(due(grid, p), scanned);
      }
      ASSERT_EQ(grid.occupied_total(), occupied);
      for (int q = 0; q < kRows; ++q) {
        const common::UserId holder = id_of[static_cast<std::size_t>(q)];
        bool in_cells = false;
        for (int p = 0; p < kPhases; ++p) {
          for (int s = 0; s < kSlots; ++s) {
            in_cells = in_cells || grid.user_at(p, s) == holder;
          }
        }
        ASSERT_EQ(grid.has_reservation(static_cast<std::size_t>(q)),
                  in_cells)
            << "row " << q << " step " << step;
      }
    }
  }
}

}  // namespace
}  // namespace charisma::mac
