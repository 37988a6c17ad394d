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

#include <optional>
#include <string>
#include <unordered_map>

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

  void release_finished_talkspurts();
  void generate_voice_auto_requests();
  void run_contention_phase();
  void refresh_backlog_csi();
  void allocate_and_transmit();

  /// f(CSI) for a request: normalized throughput of the mode its current
  /// estimate supports, fairness-adjusted when the extension is active.
  double throughput_estimate(const mac::PendingRequest& request) const;
  double priority_of(const mac::PendingRequest& request) const;

  CharismaOptions options_;
  int poll_budget_;
  std::unordered_map<common::UserId, Reservation> reservations_;
  /// Base station's per-user CSI cache (last pilot observation).
  std::unordered_map<common::UserId, channel::CsiEstimate> csi_cache_;
  FairnessTracker fairness_;
};

}  // namespace charisma::core
