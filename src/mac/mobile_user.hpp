// A mobile device: its service type, traffic source, radio channel and a
// private random stream for MAC-level draws (contention permissions,
// packet-error realizations). All per-user randomness is seeded from the
// scenario seed and the user id, so populations are reproducible and
// protocols see identical worlds.
//
// Sparse presence: a user object can be constructed as a band-resident
// *shell* — channel row live in the cell's bank (the attachment policy
// needs its pilot), traffic sources and MAC stream deferred until the user
// actually attaches (ensure_traffic). A shell is ~a hundred bytes; the
// mt19937_64-backed streams it defers are ~2.5 KB each, which is what
// makes band-local worlds with very large populations affordable. Under
// ScenarioParams::traffic_rng = kCompact the deferred streams themselves
// shrink to ~24 bytes (splitmix64 counters), so even *attached* users stay
// cheap — the remaining per-user cost is the channel row and the sources'
// queues. The traffic sources have one owner: a handoff moves them into
// the target cell's shell (adopt_service_state), so a shell the user has
// left keeps its channel row and MAC stream but no sources.
#pragma once

#include <algorithm>
#include <cassert>
#include <memory>
#include <optional>

#include "channel/channel_bank.hpp"
#include "common/rng.hpp"
#include "common/units.hpp"
#include "mac/scenario.hpp"
#include "traffic/data_source.hpp"
#include "traffic/voice_source.hpp"

namespace charisma::mac {

enum class ServiceType { kVoice, kData };

class MobileUser {
 public:
  /// Band-shell constructor (sparse presence): acquires a channel row in
  /// `bank` but defers the traffic sources and the MAC stream until
  /// ensure_traffic; the user starts absent. `visit` is the per-(user,
  /// cell) band-entry counter: visit 0 draws from the plain scenario seed
  /// (the dense population's seeding), visit v > 0 derives a
  /// fresh rebirth seed, so what a re-entering user's row draws depends
  /// only on (seed, id, visit) — never on the presence history of the rest
  /// of the population or on which bank slot the free-list handed back.
  MobileUser(common::UserId id, ServiceType service,
             const ScenarioParams& params, channel::ChannelBank& bank,
             std::uint32_t visit);

  common::UserId id() const { return id_; }
  ServiceType service() const { return service_; }
  bool is_voice() const { return service_ == ServiceType::kVoice; }
  bool is_data() const { return service_ == ServiceType::kData; }

  /// The user's channel row in the bank it was constructed against — the
  /// engine's storage index for band-resident users (slot == user id only
  /// in a full, never-released population).
  std::size_t slot() const { return slot_; }

  traffic::VoiceSource& voice() { return *voice_; }
  const traffic::VoiceSource& voice() const { return *voice_; }
  traffic::DataSource& data() { return *data_; }
  const traffic::DataSource& data() const { return *data_; }

  common::TrafficRng& rng() { return *rng_; }

  /// Materializes the deferred per-user state: the MAC stream always, the
  /// traffic source only when none exists yet (a handoff moves the
  /// source in from the previous cell first — that continuity wins over a
  /// fresh draw). Seeded from this user's visit-derived seed, so a first
  /// attach draws the plain scenario seed's streams. Idempotent.
  void ensure_traffic(const ScenarioParams& params);

  // ---- Multi-cell presence (CellularWorld) ----
  // A user holds engine state only in the cells whose band it occupies,
  // and is `present` only in the cell it is attached to. Absent users
  // generate no traffic and never contend — their channel keeps evolving
  // so the attachment policy can measure their pilot.

  bool present() const { return present_; }
  void set_present(bool present) { present_ = present; }

  /// Moves the user's service state into this cell's shell on handoff:
  /// traffic sources (talkspurt phase, pending packets, data backlog — the
  /// continuity a handoff must preserve) and the contention backoff scale.
  /// `other` is left without sources, so the user's one live copy follows
  /// its attachment. The channel is *not* carried: each cell's link fades
  /// independently.
  void adopt_service_state(MobileUser& other) {
    assert(!holds_sources() && "a user's sources live in one shell");
    voice_ = std::move(other.voice_);
    data_ = std::move(other.data_);
    backoff_scale_ = other.backoff_scale_;
  }

  /// True when this shell owns the user's traffic sources: in a world,
  /// exactly the shell of the cell the user is attached to.
  bool holds_sources() const { return voice_ != nullptr || data_ != nullptr; }

  /// Drops the in-flight voice packet, if any (lost in transit during a
  /// handoff). Returns the number of packets dropped (0 or 1).
  int drop_pending_voice() {
    if (!voice_ || !voice_->has_packet()) return 0;
    voice_->consume_packet();
    return 1;
  }

  // ---- Contention backoff stabilization ----
  // Slotted-ALOHA-style request phases are bistable: once the contender
  // population exceeds ~1/p, collisions starve everyone (thrashing). Real
  // PRMA deployments stabilize this with multiplicative backoff: a device
  // that transmitted a request and saw no acknowledgment halves its
  // permission scale; a success resets it. The scale multiplies the class
  // permission probability p_v/p_d.

  double backoff_scale() const { return backoff_scale_; }
  void note_contention_success() { backoff_scale_ = 1.0; }
  void note_contention_collision() {
    backoff_scale_ = std::max(backoff_scale_ * 0.5, 1.0 / 64.0);
  }

 private:
  double backoff_scale_ = 1.0;
  bool present_ = false;
  common::UserId id_;
  ServiceType service_;
  std::uint64_t seed_;  // visit-derived scenario seed (visit 0: the plain one)
  std::optional<common::TrafficRng> rng_;
  std::size_t slot_;  // channel row in the cell's ChannelBank
  std::unique_ptr<traffic::VoiceSource> voice_;
  std::unique_ptr<traffic::DataSource> data_;
};

}  // namespace charisma::mac
