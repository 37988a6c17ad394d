#include "protocols/rama.hpp"

#include <cassert>

namespace charisma::protocols {

RamaProtocol::RamaProtocol(const mac::ScenarioParams& params,
                           RamaOptions options)
    : mac::ProtocolEngine(params),
      options_(options),
      grid_(params.geometry.frames_per_voice_period,
            params.geometry.num_info_slots) {}

void RamaProtocol::on_user_detached(common::UserId id) {
  grid_.release(user(id).slot());
}

void RamaProtocol::on_user_attached([[maybe_unused]] common::UserId id) {
  // A (re-)attaching user must arrive clean of earlier-stay reservations.
  assert(!grid_.has_reservation(user(id).slot()));
}

bool RamaProtocol::serve_request(const mac::PendingRequest& request, int phase,
                                 int& free_slots) {
  auto& u = user(request.user);
  if (request.type == mac::RequestType::kVoice) {
    if (!u.voice().has_packet()) return true;
    if (free_slots <= 0) return false;
    if (!grid_.reserve(phase, request.user, request.slot)) return false;
    transmit_voice_fixed(u);
    --free_slots;
    return true;
  }
  // A data auction win is worth one information slot per frame (§3.1).
  // With the request queue the request persists until the burst drains
  // (one slot each frame); without it the device re-enters the auction
  // for the rest of its burst.
  if (u.data().backlog() == 0) return true;
  if (free_slots <= 0) return false;
  transmit_data_fixed(u);
  --free_slots;
  return u.data().backlog() == 0 || !params_.request_queue;
}

common::Time RamaProtocol::process_frame() {
  release_finished_talkspurts(grid_);
  const int phase = voice_phase();
  offer_info_slots(geom_.num_info_slots);

  // This frame's dense read set: reservation holders transmit below; the
  // auction itself never reads the channel (ID digits arbitrate), so
  // winners and served requests materialize on read.
  grid_.due_in_phase(phase, due_);
  touch_channels(due_);
  for (common::UserId uid : due_) {
    transmit_voice_fixed(user(uid));
  }
  int free_slots = geom_.num_info_slots - static_cast<int>(due_.size());

  // The auction: every active device without a queued request
  // participates (no permission probability — the bidding process is the
  // arbitration, so the barring gate is the only admission control in
  // front of it). Each auction slot resolves one winner; voice IDs
  // dominate data IDs.
  // Room for every band member up front: the pools never grow while the
  // band does not.
  voice_contenders_.reserve(band_size());
  data_contenders_.reserve(band_size());
  voice_contenders_.clear();
  data_contenders_.clear();
  for (auto& u : users()) {
    assert(u.present());
    if (requests_.contains(u.slot())) continue;
    if (wants_access(u, grid_)) {
      (u.is_voice() ? voice_contenders_ : data_contenders_).push_back(u.id());
    }
  }

  winners_.clear();
  mac::ContentionTally tally;
  tally.minislots = options_.auction_slots;
  // An auction slot spans ~3 minislots of digit rounds; every remaining
  // contender transmits its ID digits in every auction slot.
  const double auction_symbols = 3.0 * geom_.minislot_symbols;
  for (int a = 0; a < options_.auction_slots; ++a) {
    std::vector<common::UserId>* pool =
        !voice_contenders_.empty() ? &voice_contenders_
        : !data_contenders_.empty() ? &data_contenders_
                                    : nullptr;
    if (pool == nullptr) {
      ++tally.idle;
      continue;
    }
    const int bidders = static_cast<int>(voice_contenders_.size() +
                                         data_contenders_.size());
    note_request_energy(bidders, auction_symbols, /*useful=*/1);
    tally.transmissions += bidders;
    if (options_.id_collision_prob > 0.0 &&
        bs_rng_.bernoulli(options_.id_collision_prob)) {
      ++tally.collisions;  // two devices drew identical IDs
      continue;
    }
    // IDs are random per auction slot: the winner is uniform over the
    // dominant class.
    const int pick = bs_rng_.uniform_int(static_cast<int>(pool->size()));
    const common::UserId winner = (*pool)[static_cast<std::size_t>(pick)];
    pool->erase(pool->begin() + pick);
    ++tally.successes;
    winners_.push_back(winner);
  }
  note_contention(tally);

  // Queued requests first (FCFS), then the auction winners; voice
  // outranks data (paper §1).
  serve_voice_first(winners_, [&](const mac::PendingRequest& request) {
    return serve_request(request, phase, free_slots);
  });
  return geom_.frame_duration;
}

}  // namespace charisma::protocols
