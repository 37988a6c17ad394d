#include "mac/reservation.hpp"

#include <stdexcept>

namespace charisma::mac {

ReservationGrid::ReservationGrid(int phases, int slots_per_phase)
    : phases_(phases), slots_per_phase_(slots_per_phase) {
  if (phases <= 0 || slots_per_phase <= 0) {
    throw std::invalid_argument("ReservationGrid: invalid dimensions");
  }
  cells_.assign(static_cast<std::size_t>(phases) *
                    static_cast<std::size_t>(slots_per_phase),
                common::kNoUser);
}

void ReservationGrid::book(int cell, common::UserId user, std::size_t row) {
  cells_[static_cast<std::size_t>(cell)] = user;
  if (row >= cell_of_row_.size()) cell_of_row_.resize(row + 1, -1);
  cell_of_row_[row] = cell;
  ++occupied_;
}

std::optional<int> ReservationGrid::reserve(int phase, common::UserId user,
                                            std::size_t row) {
  if (phase < 0 || phase >= phases_) {
    throw std::out_of_range("ReservationGrid::reserve: bad phase");
  }
  if (has_reservation(row)) return std::nullopt;
  const int base = phase * slots_per_phase_;
  for (int s = 0; s < slots_per_phase_; ++s) {
    if (cells_[static_cast<std::size_t>(base + s)] == common::kNoUser) {
      book(base + s, user, row);
      return s;
    }
  }
  return std::nullopt;
}

bool ReservationGrid::reserve_at(int phase, int slot, common::UserId user,
                                 std::size_t row) {
  if (phase < 0 || phase >= phases_ || slot < 0 || slot >= slots_per_phase_) {
    throw std::out_of_range("ReservationGrid::reserve_at: bad position");
  }
  if (has_reservation(row)) return false;
  const int cell = phase * slots_per_phase_ + slot;
  if (cells_[static_cast<std::size_t>(cell)] != common::kNoUser) return false;
  book(cell, user, row);
  return true;
}

void ReservationGrid::release(std::size_t row) {
  if (!has_reservation(row)) return;
  cells_[static_cast<std::size_t>(cell_of_row_[row])] = common::kNoUser;
  cell_of_row_[row] = -1;
  --occupied_;
}

void ReservationGrid::due_in_phase(int phase,
                                   std::vector<common::UserId>& out) const {
  if (phase < 0 || phase >= phases_) {
    throw std::out_of_range("ReservationGrid::due_in_phase: bad phase");
  }
  out.clear();
  const auto base = static_cast<std::size_t>(phase * slots_per_phase_);
  for (std::size_t s = 0; s < static_cast<std::size_t>(slots_per_phase_);
       ++s) {
    if (cells_[base + s] != common::kNoUser) out.push_back(cells_[base + s]);
  }
}

common::UserId ReservationGrid::user_at(int phase, int slot) const {
  if (phase < 0 || phase >= phases_ || slot < 0 || slot >= slots_per_phase_) {
    throw std::out_of_range("ReservationGrid::user_at: bad position");
  }
  return cells_[static_cast<std::size_t>(phase * slots_per_phase_ + slot)];
}

}  // namespace charisma::mac
