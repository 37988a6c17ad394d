#include "core/charisma.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>

namespace charisma::core {

namespace {
constexpr double kTimeEps = 1e-9;
}  // namespace

CharismaProtocol::CharismaProtocol(const mac::ScenarioParams& params,
                                   const CharismaOptions& options)
    : mac::ProtocolEngine(params),
      options_(options),
      poll_budget_(options.csi_poll_budget >= 0
                       ? options.csi_poll_budget
                       : params.geometry.num_pilot_slots) {}

common::Time CharismaProtocol::process_frame() {
  // Uplink frame (Fig. 4a): request subframe -> information subframe ->
  // pilot subframe; the matching downlink carries ACKs, the CSI poll, and
  // the allocation announcement. Per-frame phases in order (the engine
  // has already purged queued voice requests past their deadline):
  release_finished_talkspurts();
  generate_voice_auto_requests();
  run_contention_phase();
  refresh_backlog_csi();
  allocate_and_transmit();

  if (!params_.request_queue) {
    // Without the §4.5 request queue, unserved requests are discarded: a
    // data device (or a voice device whose first packet missed out) must
    // contend again; auto-generated reservation requests recur at the next
    // voice period.
    requests_.clear();
  } else {
    requests_.age_all();
  }
  return geom_.frame_duration;
}

void CharismaProtocol::release_finished_talkspurts() {
  for (auto it = reservations_.begin(); it != reservations_.end();) {
    auto& u = user(it->first);
    if (!u.voice().in_talkspurt() && !u.voice().has_packet()) {
      requests_.remove(u.slot());
      it = reservations_.erase(it);
    } else {
      ++it;
    }
  }
}

void CharismaProtocol::generate_voice_auto_requests() {
  // "Additional requests will be automatically generated by the base
  // station periodically at 20 msec time intervals" (§4.3) — one request
  // per voice packet, so the reserved device never re-enters contention
  // during the talkspurt.
  for (auto& [uid, reservation] : reservations_) {
    if (now() + kTimeEps < reservation.next_request_at) continue;
    auto& u = user(uid);
    if (!u.voice().has_packet()) continue;  // packet already expired
    const std::size_t slot = u.slot();
    if (requests_.contains(slot)) continue;  // previous request still queued
    mac::PendingRequest request = request_for(u);
    // The auto request carries no fresh pilots; it inherits the base
    // station's cached estimate and is a natural candidate for the §4.4
    // CSI poll.
    request.csi = cached_csi(slot);
    requests_.push(request);
    reservation.next_request_at = u.voice().next_packet_at();
    reservation.requested_packet_at = u.voice().packet().generated_at;
  }
}

void CharismaProtocol::on_user_detached(common::UserId id) {
  // The departing user's reservation and CSI history belong to this base
  // station (the engine drops its queued request); the target cell learns
  // the channel afresh.
  reservations_.erase(id);
  const std::size_t slot = user(id).slot();
  if (slot < csi_cache_.size()) csi_cache_[slot] = channel::CsiEstimate{};
}

void CharismaProtocol::on_user_attached([[maybe_unused]] common::UserId id) {
  // A (re-)attaching user must arrive clean: any reservation or CSI
  // history from an earlier stay — or from an earlier occupant of its
  // slot — was dropped on detach.
  assert(reservations_.find(id) == reservations_.end());
  assert(!cached_csi(user(id).slot()).valid());
}

void CharismaProtocol::cache_csi(std::size_t slot,
                                 const channel::CsiEstimate& estimate) {
  if (slot >= csi_cache_.size()) csi_cache_.resize(slot + 1);
  csi_cache_[slot] = estimate;
}

void CharismaProtocol::rank(std::vector<Ranked>& list) {
  // (priority desc, queue position asc) is a strict total order, so an
  // unstable sort yields exactly the stable sort's permutation.
  std::sort(list.begin(), list.end(), [](const Ranked& a, const Ranked& b) {
    return a.priority != b.priority ? a.priority > b.priority
                                    : a.pos < b.pos;
  });
}

void CharismaProtocol::run_contention_phase() {
  // Room for every band member up front: the list (and the request
  // phase's per-candidate scratch, sized to its capacity) then never
  // grows while the band does not.
  candidates_.reserve(band_size());
  candidates_.clear();
  for (auto& u : users()) {
    assert(u.present());
    if (requests_.contains(u.slot())) continue;
    if (u.is_voice()) {
      if (!u.voice().has_packet()) continue;
      const auto reservation = reservations_.find(u.id());
      if (reservation == reservations_.end()) {
        // New talkspurt: the first packet always goes through contention,
        // gated by the overload barring controller.
        if (u.voice().in_talkspurt() && !barring_blocks(u)) {
          candidates_.push_back(u.id());
        }
      } else if (reservation->second.requested_packet_at ==
                     u.voice().packet().generated_at &&
                 !barring_blocks(u)) {
        // The request for this packet was issued but is no longer pooled —
        // it was discarded unserved (no-queue mode). The device saw no
        // announcement and retries through the request slots.
        candidates_.push_back(u.id());
      }
    } else if (u.data().backlog() > 0 && !barring_blocks(u)) {
      candidates_.push_back(u.id());
    }
  }

  const auto& outcome = run_contention(candidates_, geom_.num_request_slots);

  for (common::UserId uid : outcome.winners) {
    auto& u = user(uid);
    // Request packets embed pilot symbols (Fig. 9a): the base station gets
    // a fresh CSI estimate with every successful request.
    const auto estimate = estimate_csi(u);
    cache_csi(u.slot(), estimate);

    mac::PendingRequest request = request_for(u);
    request.csi = estimate;
    if (u.is_voice()) {
      // The successful request establishes (or refreshes) the talkspurt's
      // reservation: follow-up requests are generated by the base station.
      auto& reservation = reservations_[uid];
      reservation.next_request_at = u.voice().next_packet_at();
      reservation.requested_packet_at = u.voice().packet().generated_at;
    }
    requests_.push(request);
  }
}

void CharismaProtocol::refresh_backlog_csi() {
  if (!options_.enable_csi_refresh || poll_budget_ <= 0) return;
  // Short-list the backlog requests whose CSI has expired, by priority
  // (§4.4), and poll the top N_b through the pilot-symbol subframe.
  auto& entries = requests_.entries();
  ranked_.clear();
  for (std::size_t i = 0; i < entries.size(); ++i) {
    if (entries[i].csi.expired(now(), csi_estimator_.validity())) {
      ranked_.push_back({priority_of(entries[i]),
                         static_cast<std::uint32_t>(i)});
    }
  }
  rank(ranked_);
  const auto polls = std::min<std::size_t>(
      ranked_.size(), static_cast<std::size_t>(poll_budget_));
  // The polled short-list is a dense read set (one pilot estimate each):
  // declare it to a lazy bank as one batch.
  polled_.clear();
  for (std::size_t i = 0; i < polls; ++i) {
    polled_.push_back(entries[ranked_[i].pos].user);
  }
  touch_channels(polled_);
  for (std::size_t i = 0; i < polls; ++i) {
    auto& request = entries[ranked_[i].pos];
    const auto estimate = estimate_csi(user(request.user));
    request.csi = estimate;
    cache_csi(request.slot, estimate);
    ++metrics_.csi_polls;
    note_pilot_energy();  // the polled device transmits pilot symbols
  }
}

double CharismaProtocol::throughput_estimate(
    const mac::PendingRequest& request) const {
  if (!request.csi.valid()) return 0.0;
  const auto mode = adaptive_phy_.select_mode(request.csi.snr_linear);
  const double raw = adaptive_phy_.normalized_throughput(mode);
  return fairness_.adjusted_throughput(request.user, raw, options_.fairness);
}

double CharismaProtocol::priority_of(const mac::PendingRequest& request) const {
  return request_priority(request, throughput_estimate(request), now(),
                          geom_.frame_duration, options_.priority);
}

void CharismaProtocol::allocate_and_transmit() {
  offer_info_slots(geom_.num_info_slots);

  // Rank the entire gathered pool (Fig. 8b) — this is the step no baseline
  // performs: slots go to the best (CSI, urgency) candidates rather than to
  // whoever happened to win contention first.
  auto& entries = requests_.entries();
  ranked_.clear();
  for (std::size_t i = 0; i < entries.size(); ++i) {
    ranked_.push_back({priority_of(entries[i]), static_cast<std::uint32_t>(i)});
  }
  rank(ranked_);

  int slots_left = geom_.num_info_slots;
  completed_.clear();
  // Each competitor's Ranked::granted records the throughput it was
  // actually granted this frame, for the proportional-fair tracker
  // (unserved competitors keep zero).
  for (auto& ranked : ranked_) {
    if (slots_left == 0) break;
    auto& request = entries[ranked.pos];
    if (!request.csi.valid()) continue;  // nothing to announce a mode from
    const auto mode = adaptive_phy_.select_mode(request.csi.snr_linear);
    if (!mode || adaptive_phy_.packets_per_slot(*mode) < 1) {
      // Outage or sub-packet mode: allocating would waste the slot
      // (§5.3.1); defer until the CSI improves or the deadline purges it.
      continue;
    }
    const bool stale = request.csi.expired(now(), csi_estimator_.validity());
    auto& u = user(request.user);
    if (request.type == mac::RequestType::kVoice) {
      if (!u.voice().has_packet()) {
        completed_.push_back(request.slot);
        continue;
      }
      if (stale) ++metrics_.csi_stale_allocations;
      transmit_voice_adaptive(u, *mode);
      ranked.granted = adaptive_phy_.normalized_throughput(*mode);
      --slots_left;
      completed_.push_back(request.slot);
    } else {
      const int per_slot = adaptive_phy_.packets_per_slot(*mode);
      int max_slots = slots_left;
      if (options_.max_slots_per_data_request > 0) {
        max_slots = std::min(max_slots, options_.max_slots_per_data_request);
      }
      const int needed = static_cast<int>(
          std::ceil(static_cast<double>(u.data().backlog()) / per_slot));
      const int grant = std::min(max_slots, needed);
      if (grant <= 0) {
        completed_.push_back(request.slot);
        continue;
      }
      if (stale) ++metrics_.csi_stale_allocations;
      for (int s = 0; s < grant; ++s) {
        transmit_data_adaptive(u, *mode, per_slot);
      }
      ranked.granted = adaptive_phy_.normalized_throughput(*mode);
      slots_left -= grant;
      request.packets_requested = u.data().backlog();
      if (u.data().backlog() == 0) completed_.push_back(request.slot);
    }
  }
  if (options_.fairness != FairnessMode::kNone) {
    // Proportional fair bookkeeping: every pooled competitor logs what it
    // actually got — the served their mode's rate, everyone else zero, so
    // a passed-over user's achieved average decays and its priority rises.
    for (const auto& ranked : ranked_) {
      fairness_.observe(entries[ranked.pos].user, ranked.granted);
    }
  }
  for (const std::size_t slot : completed_) requests_.remove(slot);
}

}  // namespace charisma::core
