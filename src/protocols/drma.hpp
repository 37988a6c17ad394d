// DRMA — Dynamic Reservation Multiple Access (Qiu & Li [19], paper §3.3):
// the frame carries only information slots; before each slot the base
// station announces whether it is assigned. An unassigned slot is
// "converted" into N_x request minislots on the fly, and each successful
// request is served in a later free slot of the same frame (voice winners
// keep that slot position as their reservation). Because conversions only
// happen when slots are idle, the request load is automatically throttled
// at high load — DRMA's built-in stability ("distributed requests
// queueing", §5.1). The fixed-throughput PHY is used.
#pragma once

#include <string>
#include <vector>

#include "mac/engine.hpp"
#include "mac/reservation.hpp"

namespace charisma::protocols {

struct DrmaOptions {
  /// Information slots per frame (N_k). The DRMA frame has no dedicated
  /// request subframe, so the shared symbol budget fits one more slot than
  /// the CHARISMA layout.
  int info_slots = 11;
  /// Request minislots one converted slot yields (N_x).
  int minislots_per_conversion = 8;
};

class DrmaProtocol : public mac::ProtocolEngine {
 public:
  DrmaProtocol(const mac::ScenarioParams& params, DrmaOptions options = {});

  std::string name() const override { return "DRMA"; }

  int reservations_held() const { return grid_.occupied_total(); }

 protected:
  common::Time process_frame() override;
  void on_user_detached(common::UserId id) override;
  void on_user_attached(common::UserId id) override;

 private:
  /// Set operations on engaged_, kept sorted so membership is a binary
  /// search.
  bool engaged(common::UserId id) const;
  void engage(common::UserId id);
  void disengage(common::UserId id);

  DrmaOptions options_;
  mac::ReservationGrid grid_;
  // Per-frame scratch, reused across frames so the steady-state frame loop
  // stays allocation-free.
  std::vector<mac::PendingRequest> pending_;   ///< requests awaiting a slot
  std::vector<common::UserId> engaged_;        ///< queued or won this frame
  std::vector<common::UserId> touched_;        ///< this frame's touch set
  std::vector<common::UserId> candidates_;     ///< one conversion's contenders
};

}  // namespace charisma::protocols
