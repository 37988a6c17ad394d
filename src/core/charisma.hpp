// CHARISMA — CHannel Adaptive Reservation-based ISochronous Multiple Access
// (paper §4). The distinctive feature over the D-TDMA baselines: contention
// winners are *gathered* rather than served first-come-first-served; after
// the request phase the base station ranks the whole candidate pool (new
// winners, backlog, and auto-generated voice reservation requests) by the
// CSI/urgency priority metric (Eq. 2) and packs the N_i information slots
// with the users who can use the channel most efficiently, announcing a
// transmission mode per allocation. Backlogged requests with expired CSI
// are refreshed through the pilot-symbol polling subframe (§4.4, N_b polls
// per frame).
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/recycling_allocator.hpp"
#include "core/fairness.hpp"
#include "core/priority.hpp"
#include "mac/engine.hpp"

namespace charisma::core {

struct CharismaOptions {
  PriorityWeights priority{};

  /// Pilot/poll slots per frame; -1 = use geometry.num_pilot_slots.
  int csi_poll_budget = -1;

  /// Disable to measure the value of the §4.4 refresh mechanism
  /// (bench_ablation_csi_refresh).
  bool enable_csi_refresh = true;

  /// Cap on information slots one data request may take per frame
  /// (<= 0 = no cap beyond the frame itself).
  int max_slots_per_data_request = 0;

  /// Future-work extension (§6 / [22]).
  FairnessMode fairness = FairnessMode::kNone;
};

class CharismaProtocol : public mac::ProtocolEngine {
 public:
  explicit CharismaProtocol(const mac::ScenarioParams& params,
                            const CharismaOptions& options = {});

  std::string name() const override { return "CHARISMA"; }

  std::size_t reservations_held() const { return reservations_.size(); }

 protected:
  common::Time process_frame() override;
  void on_user_detached(common::UserId id) override;
  void on_user_attached(common::UserId id) override;

 private:
  struct Reservation {
    /// When the base station auto-generates the next request (one voice
    /// period after the previous packet's request).
    common::Time next_request_at = 0.0;
    /// generated_at of the packet whose request (auto or contention-won)
    /// has already been issued. In the no-queue configuration an unserved
    /// request is discarded at frame end; the device notices the missing
    /// announcement and re-enters contention for the same packet — this
    /// field is what makes that re-entry detectable.
    common::Time requested_packet_at = -1.0;
  };

  /// One pooled request in a frame's ranking: its Eq. (2) priority,
  /// evaluated once, and its queue position, which breaks ties (the order
  /// a stable sort by priority alone would keep). `granted` is the
  /// throughput the request was served at this frame (0 = passed over),
  /// for the proportional-fair tracker.
  struct Ranked {
    double priority = 0.0;
    std::uint32_t pos = 0;
    double granted = 0.0;
  };

  void release_finished_talkspurts();
  void generate_voice_auto_requests();
  void run_contention_phase();
  void refresh_backlog_csi();
  void allocate_and_transmit();

  /// f(CSI) for a request: normalized throughput of the mode its current
  /// estimate supports, fairness-adjusted when the extension is active.
  double throughput_estimate(const mac::PendingRequest& request) const;
  double priority_of(const mac::PendingRequest& request) const;
  /// Sorts `list` by priority, highest first, ties in queue order.
  static void rank(std::vector<Ranked>& list);

  /// The base station's cached estimate for the user at storage slot
  /// `slot`; a default (invalid) estimate when it has none.
  channel::CsiEstimate cached_csi(std::size_t slot) const {
    return slot < csi_cache_.size() ? csi_cache_[slot]
                                    : channel::CsiEstimate{};
  }
  void cache_csi(std::size_t slot, const channel::CsiEstimate& estimate);

  CharismaOptions options_;
  int poll_budget_;
  /// Reservations by user id. Walked in bucket order by the auto-request
  /// pass, which decides results; the recycling allocator leaves that
  /// order alone and keeps talkspurt churn off the heap.
  std::unordered_map<
      common::UserId, Reservation, std::hash<common::UserId>,
      std::equal_to<common::UserId>,
      common::RecyclingAllocator<std::pair<const common::UserId, Reservation>>>
      reservations_;
  /// Base station's CSI cache (last pilot observation), indexed by storage
  /// slot; a default CsiEstimate means "none".
  std::vector<channel::CsiEstimate> csi_cache_;
  FairnessTracker fairness_;
  // Per-frame scratch, reused across frames so the steady-state frame loop
  // stays allocation-free.
  std::vector<common::UserId> candidates_;  ///< this frame's contenders
  std::vector<Ranked> ranked_;              ///< stale short-list, then pool
  std::vector<common::UserId> polled_;      ///< CSI polls' touch set
  std::vector<std::size_t> completed_;      ///< slots whose request is done
};

}  // namespace charisma::core
