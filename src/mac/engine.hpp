// ProtocolEngine: the "common simulation platform" (paper §5) every
// protocol runs on. It owns the world (users, channels, sources), the
// simulation clock, both physical layers, the CSI estimator and the
// metrics, and steps the frame loop itself: each frame starts where the
// previous one ended. It also owns the MAC duties the protocols share —
// the §4.5 base-station request queue (expiry purge, detach removal, the
// barring loop's queue-depth signal), talkspurt-end reservation release,
// the new-contender filter with its barring draw, request filing,
// voice-first FCFS service and the transmit bookkeeping — so a protocol
// differs from another only in its access-control rules. Subclasses
// implement process_frame() with those rules and return the frame
// duration they consumed — constant for the static-frame protocols,
// data-dependent for RMAV/DRMA.
#pragma once

#include <algorithm>
#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "channel/channel_bank.hpp"
#include "channel/csi.hpp"
#include "common/rng.hpp"
#include "common/units.hpp"
#include "mac/barring.hpp"
#include "mac/contention.hpp"
#include "mac/load_estimator.hpp"
#include "mac/metrics.hpp"
#include "mac/mobile_user.hpp"
#include "mac/request_queue.hpp"
#include "mac/reservation.hpp"
#include "mac/scenario.hpp"
#include "phy/adaptive_phy.hpp"
#include "phy/fixed_phy.hpp"

namespace charisma::mac {

/// One band-resident user of an engine: its id and the storage slot its
/// state occupies (== its ChannelBank row). The band is kept sorted by id,
/// so iterating it reproduces the historical ascending-id loops bit for
/// bit; the slot is where a reused free-list row actually lives.
struct BandMember {
  common::UserId id;
  std::uint32_t slot;
};

/// One entry of a cell's band-op list (ProtocolEngine::apply_band_ops):
/// admit `id` and write the slot it lands in through `slot_out`, or —
/// with a null `slot_out` — release it.
struct BandOp {
  common::UserId id;
  std::uint32_t* slot_out;
};

/// Slot-indexed user storage: the shell at a band member's slot, empty at
/// vacant slots. Users live in one contiguous array, so a slot-keyed read
/// is one indexed load, and an admit constructs its shell in place —
/// allocating only when the array grows. Growth moves the users, so no
/// MobileUser& may be held across an admit into the same engine.
using UserSlab = std::vector<std::optional<MobileUser>>;

/// Range view over an engine's attached users in ascending user-id order —
/// the sparse-presence replacement for the historical
/// `std::vector<MobileUser>&` that users() returned. Protocols range-for
/// it exactly as before; the indirection through slots is the only change.
class UserBand {
 public:
  class iterator {
   public:
    iterator(const BandMember* m, std::optional<MobileUser>* slots)
        : m_(m), slots_(slots) {}
    MobileUser& operator*() const { return *slots_[m_->slot]; }
    MobileUser* operator->() const { return &*slots_[m_->slot]; }
    iterator& operator++() {
      ++m_;
      return *this;
    }
    bool operator==(const iterator& o) const { return m_ == o.m_; }
    bool operator!=(const iterator& o) const { return m_ != o.m_; }

   private:
    const BandMember* m_;
    std::optional<MobileUser>* slots_;
  };

  UserBand(const std::vector<BandMember>& members, UserSlab& slots)
      : members_(&members), slots_(&slots) {}
  iterator begin() const { return {members_->data(), slots_->data()}; }
  iterator end() const {
    return {members_->data() + members_->size(), slots_->data()};
  }
  std::size_t size() const { return members_->size(); }
  bool empty() const { return members_->empty(); }

 private:
  const std::vector<BandMember>* members_;
  UserSlab* slots_;
};

class ProtocolEngine {
 public:
  explicit ProtocolEngine(const ScenarioParams& params);
  virtual ~ProtocolEngine() = default;
  ProtocolEngine(const ProtocolEngine&) = delete;
  ProtocolEngine& operator=(const ProtocolEngine&) = delete;

  virtual std::string name() const = 0;

  /// Runs `warmup` seconds (statistics discarded), then `measure` seconds,
  /// and returns the metrics collected during measurement. Both durations
  /// are relative to now(), so repeated calls are window-monotonic: each
  /// call continues the same simulation and measures its own fresh window.
  /// warmup must be >= 0 and measure > 0.
  const ProtocolMetrics& run(common::Time warmup, common::Time measure);

  /// Advances the simulation `duration` seconds past now() without touching
  /// the accumulated metrics — the building block CellularWorld uses to
  /// interleave frames with mobility/attachment epochs. Runs every frame
  /// starting at or before now() + duration (the first frame starts at
  /// t = 0; one starting exactly at the window end runs), then parks now()
  /// at exactly now() + duration. No-op when duration <= 0.
  void advance_by(common::Time duration);

  /// Discards everything measured so far (run() does this after warmup).
  /// Also re-baselines the bank's materialization counters, so warmup
  /// materializations never leak into the first measured frame's
  /// users_advanced/skipped accounting.
  void reset_metrics() {
    metrics_.reset();
    const auto stats = bank_.lazy_stats();
    lazy_events_seen_ = stats.jump_events;
    lazy_frames_seen_ = stats.jump_frames;
  }

  // ---- Sparse presence: band membership (CellularWorld) ----
  // A cell's engine holds state only for the users inside its pilot band.
  // The historical dense mode is the special case where the whole
  // population is admitted at construction and never released.

  /// Admits `id` into this engine's band: acquires a ChannelBank row
  /// (reusing a released slot when one matches) and constructs the user's
  /// shell there. With `materialize_traffic` the user is also made present
  /// with live traffic sources — the historical at-construction semantics,
  /// used for the dense population and by tests; the world instead admits
  /// shells and attaches separately. What the new row draws depends only
  /// on (scenario seed, id, per-(user,cell) visit count) — never on the
  /// presence history of the rest of the population or on which slot the
  /// free list handed back. Throws on a double admit or a bad id.
  MobileUser& band_admit(common::UserId id, bool materialize_traffic);

  /// Releases `id` from the band: destroys its shell and frees its bank
  /// row for reuse. The user must be detached first (throws logic_error
  /// otherwise); its next admit here draws a fresh rebirth seed.
  void band_release(common::UserId id);

  /// Reserves band storage — bank rows, user slab, band, roster and
  /// due-time table — for `rows` rows, so that admits up to that many
  /// rows allocate nothing.
  void reserve_band(std::size_t rows);

  /// Replays one cell's band ops in order: band_admit(id, false) writing
  /// the slot through slot_out, or band_release(id). A world builds the
  /// lists in ascending user id, the order its serial merge admits and
  /// releases in, so the free list — and every later draw — is the same
  /// whether the cells replay one after another or concurrently. An
  /// admit-only replay that reserve_band covers allocates nothing.
  void apply_band_ops(std::span<const BandOp> ops);

  /// First-time attachment during world construction: makes the user
  /// present with live traffic, *without* counting a handoff — the initial
  /// placement is not a hand-in (dense initialize_attachments never
  /// counted one either).
  void attach_user_initial(common::UserId id);

  /// Band membership, ascending by user id. slot is the user's storage /
  /// ChannelBank row index.
  const std::vector<BandMember>& band() const { return band_; }
  std::size_t band_size() const { return band_.size(); }
  bool band_resident(common::UserId id) const;

  // ---- Multi-cell attachment (CellularWorld) ----

  /// Removes the user from this cell's active population: the protocol
  /// releases any per-user state it holds (reservation, queued requests),
  /// the in-flight voice packet is dropped, and the user stops generating
  /// traffic or contending here. A hysteresis handoff (`outage` false)
  /// counts handoffs_out and voice_dropped_handoff; a forced removal
  /// because this cell went dark (`outage` true) counts outage_evictions
  /// and voice_dropped_outage instead. No-op when already detached.
  void detach_user(common::UserId id, bool outage);

  /// (Re-)admits the user to this cell's active population. The caller
  /// moves the user's service state in first
  /// (MobileUser::adopt_service_state): the shell must hold the sources.
  /// No-op when already attached.
  void attach_user(common::UserId id);

  /// Records one decision epoch of the world's inter-cell interference
  /// plane for this cell: the mean SINR penalty (dB) across the per-user
  /// plane just fed to the ChannelBank. Called by CellularWorld inside
  /// the (share-nothing) per-cell epoch task; single-cell runs never
  /// record a sample.
  void note_interference_epoch(double mean_penalty_db) {
    metrics_.interference_db.add(mean_penalty_db);
    last_interference_db_ = mean_penalty_db;
  }

  /// Current access-class admission factors (1.0 when barring is off or
  /// has not tightened) — bench/test visibility into the closed loop.
  double barring_voice_factor() const {
    return barring_ ? barring_->voice_factor() : 1.0;
  }
  double barring_data_factor() const {
    return barring_ ? barring_->data_factor() : 1.0;
  }

  /// Requests waiting in the base station's §4.5 queue (CHARISMA: its
  /// backlog pool) — tests/inspection.
  std::size_t queued_requests() const { return requests_.size(); }

  const ProtocolMetrics& metrics() const { return metrics_; }
  const ScenarioParams& params() const { return params_; }
  common::Time now() const { return now_; }
  common::FrameIndex frame_index() const { return frame_index_; }

  /// The attached users in ascending user-id order (historically: the
  /// whole population). Band rows held only for their pilots are not in
  /// it, so a frame walk costs O(attached), not O(band).
  UserBand users() { return {roster_, users_}; }
  MobileUser& user(common::UserId id);

  /// The shared SoA channel state; row MobileUser::slot() is that user's
  /// channel. Exposed for benchmarks and tests of the batched hot path.
  channel::ChannelBank& channel_bank() { return bank_; }
  const channel::ChannelBank& channel_bank() const { return bank_; }

 protected:
  /// One frame of protocol operation at sim time now(); returns the frame
  /// duration consumed (> 0).
  virtual common::Time process_frame() = 0;

  /// Protocol hook run by detach_user before the user goes absent: release
  /// every per-user structure the protocol holds (reservations, grants,
  /// CSI cache; the engine drops the user's queued request itself).
  /// Default: nothing to release.
  virtual void on_user_detached(common::UserId /*id*/) {}

  /// Twin hook run by attach_user / attach_user_initial after the user
  /// becomes present: construct (or debug-verify the absence of) per-user
  /// protocol state. Every stock protocol keys its state by user id and
  /// releases it in on_user_detached, so the default — and the overrides —
  /// do no release-mode work; overrides assert no stale residue survived a
  /// detach/release cycle. Never fired for the dense at-construction
  /// population (protocol constructors run after admission).
  virtual void on_user_attached(common::UserId /*id*/) {}

  // ---- World helpers ----

  /// Advances channels and sources to the current frame boundary and
  /// accounts packet generation/expiry. With params.lazy_channel the
  /// channel side is an O(1) clock move (bank_.set_time); per-user state
  /// materializes when the frame touches or reads it.
  void advance_world();

  /// Declares the users this frame is about to read (slot owners, due
  /// lists, contention candidates, grant queues): a lazy bank
  /// materializes them as one batch instead of paying scattered on-read
  /// jumps; an eager bank (the default) needs nothing. The touch set is an
  /// optimization, not an obligation — any user read without being
  /// declared still materializes transparently, so protocol hooks only
  /// need to cover their hot sets. materialize_users takes bank slots, so
  /// each id is mapped to its slot through user(id) first.
  void touch_channels(std::span<const common::UserId> users);

  /// This user's permission probability (paper §2, p_v / p_d).
  double permission_prob(const MobileUser& u) const;

  /// Access-class barring gate at contention entry: true when the user is
  /// barred from contending this frame. With barring disabled, or the
  /// user's class factor at 1, returns false without drawing RNG — the
  /// legacy bit-for-bit path. Protocols call this exactly where a user
  /// would become a NEW contention candidate (never on users already
  /// holding a reservation or a queued request).
  bool barring_blocks(MobileUser& u);

  // ---- Shared MAC duties ----

  /// This frame's phase of the voice period: the ReservationGrid row whose
  /// owners transmit now.
  int voice_phase() const {
    return static_cast<int>(frame_index_ % geom_.frames_per_voice_period);
  }

  /// Releases the grid reservation of every voice user whose talkspurt has
  /// ended with no packet left to send.
  void release_finished_talkspurts(ReservationGrid& grid);

  /// The new-contender filter for a present user not already holding a
  /// queued request (callers check both first): voice needs a pending
  /// talkspurt packet and no reservation, data a backlog. The barring
  /// draw comes last, so only would-be contenders consume it.
  bool wants_access(MobileUser& u, const ReservationGrid& grid) {
    const bool active = u.is_voice()
                            ? !grid.has_reservation(u.slot()) &&
                                  u.voice().in_talkspurt() &&
                                  u.voice().has_packet()
                            : u.data().backlog() > 0;
    return active && !barring_blocks(u);
  }

  /// The request a contention winner files now: one packet by its
  /// deadline for voice, the whole backlog (no deadline) for data.
  PendingRequest request_for(MobileUser& u) const;

  /// FCFS service with voice outranking data (paper §1): the queued
  /// requests (oldest first), then this frame's `winners` (in win order),
  /// all voice before any data. `serve(request)` returns true when the
  /// request is finished (served or dead); an unfinished one waits in the
  /// queue in the with-queue configuration (§4.5) and dies otherwise. The
  /// partition is built class by class in reused member scratch, so the
  /// steady-state serve path allocates nothing.
  template <class Serve>
  void serve_voice_first(std::span<const common::UserId> winners,
                         Serve&& serve) {
    winner_scratch_.clear();
    for (const common::UserId id : winners) {
      winner_scratch_.push_back(request_for(user(id)));
    }
    serve_scratch_.clear();
    for (const auto type : {RequestType::kVoice, RequestType::kData}) {
      for (const auto& request : requests_.entries()) {
        if (request.type == type) serve_scratch_.push_back(request);
      }
      for (const auto& request : winner_scratch_) {
        if (request.type == type) serve_scratch_.push_back(request);
      }
    }
    requests_.clear();
    for (auto& request : serve_scratch_) {
      if (!serve(request) && params_.request_queue) {
        ++request.frames_waited;
        requests_.push(request);
      }
    }
  }

  /// Runs a contention phase over `candidates` with the class permission
  /// probabilities scaled by each device's backoff state, records the
  /// tally, charges request energy, injects downlink-ACK loss, and updates
  /// backoff (winners reset, collided losers halve; a winner whose ACK was
  /// lost behaves like a collided loser and is dropped from the winners).
  /// `symbols_per_request` defaults to a request minislot; RMAV's
  /// full-slot competitive requests pass the slot size. The outcome lives
  /// in engine scratch: it is valid until the next run_contention call.
  const ContentionOutcome& run_contention(
      const std::vector<common::UserId>& candidates, int minislots,
      int symbols_per_request = -1);

  // ---- Energy accounting (paper §1, motivation 2) ----

  /// Joules for an uplink burst of `symbols` at this geometry's rate.
  double burst_energy(double symbols) const;
  /// Charges request-phase energy: `bursts` transmissions of
  /// `symbols_each`, of which `useful` carried a winning request.
  void note_request_energy(int bursts, double symbols_each, int useful);
  /// Charges a pilot response to a CSI poll.
  void note_pilot_energy();

  /// Pilot-based CSI estimate of the user's current channel.
  channel::CsiEstimate estimate_csi(MobileUser& u);

  /// The D-TDMA/VR path: per-transmission mode choice from a fresh CSI
  /// estimate fed back by the receiver (no MAC interaction).
  std::optional<int> fresh_mode_estimate(MobileUser& u);

  // ---- Transmissions (update metrics; caller owns slot assignment) ----

  /// Voice packet over the fixed-throughput PHY. Consumes the packet;
  /// counts delivery or channel-error loss.
  void transmit_voice_fixed(MobileUser& u);

  /// Voice packet over the adaptive PHY in the announced `mode`. A mode
  /// carrying less than one packet per slot ships nothing (wasted slot;
  /// packet stays pending until its deadline).
  void transmit_voice_adaptive(MobileUser& u, int mode);

  /// Data packets over the fixed PHY (one per slot). Returns delivered
  /// count (0 or 1); failures stay queued for ARQ retransmission.
  int transmit_data_fixed(MobileUser& u) { return send_data(u, {}, 1); }

  /// Data packets over the adaptive PHY: up to min(packets_per_slot(mode),
  /// max_packets) head-of-line packets in one slot. Returns delivered
  /// count.
  int transmit_data_adaptive(MobileUser& u, int mode, int max_packets) {
    return send_data(u, mode,
                     std::min(adaptive_phy_.packets_per_slot(mode),
                              max_packets));
  }

  // ---- Accounting helpers ----
  void note_contention(const ContentionTally& tally);
  /// Credits delivered packets to the user's fairness ledger.
  void note_user_delivery(common::UserId id, int packets);
  void offer_info_slots(int n) { metrics_.info_slots_offered += n; }
  void note_assigned_slot() { ++metrics_.info_slots_assigned; }
  void note_wasted_slot() { ++metrics_.info_slots_wasted; }

  ScenarioParams params_;
  FrameGeometry geom_;
  channel::ChannelBank bank_;  // row u.slot() is user u's channel
  // Slot-indexed storage mirroring the bank's rows one-for-one (empty at
  // vacant slots), plus the ascending-id membership index over it. In the
  // dense population slot == id and band_ is the identity.
  UserSlab users_;
  std::vector<BandMember> band_;
  ProtocolMetrics metrics_;
  phy::FixedPhy fixed_phy_;
  phy::AdaptivePhy adaptive_phy_;
  channel::CsiEstimator csi_estimator_;
  common::RngStream bs_rng_;
  common::FrameIndex frame_index_ = 0;
  /// The §4.5 base-station request queue (CHARISMA's backlog pool). The
  /// engine purges expired voice entries just before each process_frame
  /// and drops a leaving user's entry; protocols file and serve the rest.
  RequestQueue requests_;

 private:
  /// One occupied slot's voice booking after the PHY decided `ok`: the
  /// packet is consumed, the burst energy charged, and delivery or
  /// channel-error loss counted.
  void book_voice(MobileUser& u, bool ok);
  /// One slot's data burst: up to `cap` head-of-line packets over the
  /// adaptive PHY in `mode`, or over the fixed PHY when `mode` is empty.
  /// Failures return to the head of the queue for ARQ. Returns delivered.
  int send_data(MobileUser& u, std::optional<int> mode, int cap);

  /// Slot-indexed due time of each attached user's traffic tick: the
  /// source's own next_event_at() / next_burst_at() after its last
  /// on_frame, or -inf for a user (re-)attached since (its first tick is
  /// due at once); other slots are never read. advance_world walks the
  /// roster and ticks only the users due at the frame start. Exact
  /// because between ticks a due time only ever moves later:
  /// consume_packet, drop_pending_voice and the ARQ push_front drop or
  /// requeue packets, set_rate_scale affects future draws only, and a
  /// hand-in's sources move in before the attach that marks -inf.
  std::vector<common::Time> next_due_;
  /// The attached band members, ascending by id: mark_present inserts,
  /// detach_user erases. band_admit keeps its capacity at least the
  /// band's, so neither ever allocates.
  std::vector<BandMember> roster_;
  /// Where `id` sits, or would be inserted, in the roster.
  std::vector<BandMember>::iterator roster_position(common::UserId id);
  /// Marks `u` present (the attach paths): enrolled in the roster, and its
  /// traffic tick due on the next frame.
  void mark_present(MobileUser& u);
  /// run_contention's outcome, reused across frames.
  ContentionOutcome contention_;
  /// Failed-arrival scratch for send_data, reused across frames so
  /// steady-state ARQ retransmissions stay allocation-free.
  std::vector<common::Time> retx_scratch_;
  /// serve_voice_first's winner requests and serve order, reused across
  /// frames.
  std::vector<PendingRequest> winner_scratch_;
  std::vector<PendingRequest> serve_scratch_;
  /// One frame at now(): advance the world, run the protocol frame, and
  /// return the consumed duration (the offset of the next frame).
  common::Time frame_tick();
  /// Closes one barring control window: freeze the raw load signals, fold
  /// them into the estimator, step the controller, sample the factors.
  void barring_control_step();
  /// Slot scratch for touch_channels, reused across frames so the lazy
  /// frame loop stays allocation-free.
  std::vector<common::UserId> touch_slots_;
  /// Simulation clock, and the start time of the next frame to run.
  common::Time now_ = 0.0;
  common::Time next_frame_ = 0.0;

  /// True while slot == id for every band member with no vacancies — the
  /// dense population's invariant, letting user(id) skip the binary
  /// search. Cleared (permanently) by the first out-of-order admit or any
  /// release.
  bool identity_ = true;
  /// Per-user count of completed band visits *here*: how many times the
  /// user has been released from this cell's band. Seeds the rebirth
  /// stream on re-admission. Empty for the dense population.
  std::unordered_map<common::UserId, std::uint32_t> rebirths_;

  // Closed-loop barring state (engaged only when params.barring.enabled;
  // the estimator/controller live inside this cell's engine, so the
  // parallel world's share-nothing guarantee is untouched).
  std::optional<LoadEstimator> load_estimator_;
  std::optional<BarringController> barring_;
  double last_interference_db_ = 0.0;
  // Bank-counter snapshot already attributed to metrics_ (frame_tick
  // scrapes deltas; reset_metrics re-baselines).
  std::int64_t lazy_events_seen_ = 0;
  std::int64_t lazy_frames_seen_ = 0;
  std::int64_t barr_win_minislots_ = 0;
  std::int64_t barr_win_collisions_ = 0;
  std::int64_t barr_win_user_frames_ = 0;
  int barr_win_frames_ = 0;
};

}  // namespace charisma::mac
