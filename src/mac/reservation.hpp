// Voice reservation grid for the reservation-based baselines (D-TDMA/FR,
// D-TDMA/VR, RAMA, DRMA, PRMA): a reserved voice user owns one (phase,
// slot) position — one information slot in every
// `frames_per_voice_period`-th frame, matching "the user can use a time
// slot in each frame every 20 msec until the current talkspurt terminates"
// (§3.4). The grid capacity is phases x slots positions; a full phase
// blocks new reservations in frames of that phase even if other phases
// have room, which is the packing inefficiency the paper's FCFS baselines
// pay.
//
// Cells hold user ids (so a phase's owners come out in slot order). The
// reverse map — which cell a user holds — is a flat table indexed by the
// user's storage row (MobileUser::slot(), its ChannelBank row), sized by
// the highest row ever reserved: band rows, never population ids.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "common/units.hpp"

namespace charisma::mac {

class ReservationGrid {
 public:
  ReservationGrid(int phases, int slots_per_phase);

  /// Reserves the lowest free slot in `phase` for `user` (storage row
  /// `row`); nullopt when the phase is fully booked or the user already
  /// holds a reservation.
  std::optional<int> reserve(int phase, common::UserId user,
                             std::size_t row);

  /// Reserves the specific (phase, slot) position (used by DRMA and PRMA,
  /// where a voice winner is served in — and keeps — a particular slot).
  /// Returns false if the position is taken or the user already holds one.
  bool reserve_at(int phase, int slot, common::UserId user, std::size_t row);

  /// Releases the reservation held by the user at storage row `row`; no-op
  /// when none is held.
  void release(std::size_t row);

  bool has_reservation(std::size_t row) const {
    return row < cell_of_row_.size() && cell_of_row_[row] >= 0;
  }

  /// Fills `out` with the users whose reservation falls in `phase`, in
  /// slot order (`out` is caller scratch, cleared first).
  void due_in_phase(int phase, std::vector<common::UserId>& out) const;

  /// Occupant of a specific position (kNoUser when free).
  common::UserId user_at(int phase, int slot) const;

  int occupied_total() const { return occupied_; }

  int phases() const { return phases_; }
  int slots_per_phase() const { return slots_per_phase_; }

 private:
  /// Books flat cell `cell` for (user, row): the shared tail of reserve
  /// and reserve_at.
  void book(int cell, common::UserId user, std::size_t row);

  int phases_;
  int slots_per_phase_;
  int occupied_ = 0;
  std::vector<common::UserId> cells_;  ///< [phase * slots + slot] -> user
  std::vector<int> cell_of_row_;       ///< [row] -> flat cell, -1 = none
};

}  // namespace charisma::mac
