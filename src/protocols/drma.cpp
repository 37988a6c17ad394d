#include "protocols/drma.hpp"

#include <algorithm>
#include <cassert>

namespace charisma::protocols {

DrmaProtocol::DrmaProtocol(const mac::ScenarioParams& params,
                           DrmaOptions options)
    : mac::ProtocolEngine(params),
      options_(options),
      grid_(params.geometry.frames_per_voice_period, options.info_slots) {}

void DrmaProtocol::on_user_detached(common::UserId id) {
  grid_.release(user(id).slot());
}

void DrmaProtocol::on_user_attached([[maybe_unused]] common::UserId id) {
  // A (re-)attaching user must arrive clean of earlier-stay reservations.
  assert(!grid_.has_reservation(user(id).slot()));
}

bool DrmaProtocol::engaged(common::UserId id) const {
  return std::binary_search(engaged_.begin(), engaged_.end(), id);
}

void DrmaProtocol::engage(common::UserId id) {
  const auto it = std::lower_bound(engaged_.begin(), engaged_.end(), id);
  if (it == engaged_.end() || *it != id) engaged_.insert(it, id);
}

void DrmaProtocol::disengage(common::UserId id) {
  const auto it = std::lower_bound(engaged_.begin(), engaged_.end(), id);
  if (it != engaged_.end() && *it == id) engaged_.erase(it);
}

common::Time DrmaProtocol::process_frame() {
  release_finished_talkspurts(grid_);
  const int phase = voice_phase();
  offer_info_slots(options_.info_slots);

  // Requests awaiting service: yesterday's queue first (with-queue mode),
  // then winners of this frame's conversions as they happen.
  pending_.assign(requests_.entries().begin(), requests_.entries().end());
  requests_.clear();
  engaged_.clear();
  for (const auto& r : pending_) engage(r.user);

  // Touch set: reservation holders of this phase plus the queued users a
  // free slot may serve; conversion contenders are covered by
  // run_contention's own touch.
  touched_.clear();
  for (int slot = 0; slot < options_.info_slots; ++slot) {
    const common::UserId owner = grid_.user_at(phase, slot);
    if (owner != common::kNoUser) touched_.push_back(owner);
  }
  for (const auto& r : pending_) touched_.push_back(r.user);
  touch_channels(touched_);

  for (int slot = 0; slot < options_.info_slots; ++slot) {
    const common::UserId owner = grid_.user_at(phase, slot);
    if (owner != common::kNoUser) {
      // Reserved slot: its voice user transmits (or idles it away).
      transmit_voice_fixed(user(owner));
      continue;
    }

    // Drop dead pending entries (expired voice packet, drained burst).
    std::erase_if(pending_, [this](const mac::PendingRequest& r) {
      auto& u = user(r.user);
      const bool dead = r.type == mac::RequestType::kVoice
                            ? !u.voice().has_packet()
                            : u.data().backlog() == 0;
      if (dead) disengage(r.user);
      return dead;
    });

    if (!pending_.empty()) {
      // Serve the oldest pending request in this free slot, voice first
      // (voice outranks data in every protocol of the study).
      auto pick = pending_.begin();
      for (auto it = pending_.begin(); it != pending_.end(); ++it) {
        if (it->type == mac::RequestType::kVoice) {
          pick = it;
          break;
        }
      }
      auto request = *pick;
      pending_.erase(pick);
      auto& u = user(request.user);
      if (request.type == mac::RequestType::kVoice) {
        // The served slot position becomes the talkspurt's reservation.
        grid_.reserve_at(phase, slot, request.user, request.slot);
        transmit_voice_fixed(u);
        disengage(request.user);
      } else {
        // One information slot per successful data request (§3.3): the
        // device contends again for the rest of its burst. (Persisting data
        // requests in the queue would let a handful of data users occupy
        // every otherwise-free slot, which starves the conversions new
        // voice talkspurts need — the queue stores only requests that got
        // *no* slot, per §4.5.)
        transmit_data_fixed(u);
        disengage(request.user);
      }
      continue;
    }

    // Free slot with nothing to serve: convert it into N_x request
    // minislots.
    candidates_.reserve(band_size());  // never grows while the band does not
    candidates_.clear();
    for (auto& u : users()) {
      assert(u.present());
      if (engaged(u.id())) continue;
      if (wants_access(u, grid_)) candidates_.push_back(u.id());
    }
    if (candidates_.empty()) continue;  // slot stays idle

    const auto& outcome =
        run_contention(candidates_, options_.minislots_per_conversion);
    for (common::UserId uid : outcome.winners) {
      pending_.push_back(request_for(user(uid)));
      engage(uid);
    }
  }

  // Winners/queue entries that found no slot this frame.
  if (params_.request_queue) {
    for (auto& request : pending_) {
      ++request.frames_waited;
      requests_.push(request);
    }
  }
  return geom_.frame_duration;
}

}  // namespace charisma::protocols
