// The base-station request queue (paper §4.5): requests that survive
// contention but fail to get information slots wait here instead of being
// discarded. Baselines serve it first-come-first-served; CHARISMA treats
// its entries as backlog requests ranked by the priority metric. Voice
// entries whose packet deadline has passed are purged (the packet is
// dropped at the device).
//
// Membership is keyed by the requester's storage slot (its engine /
// ChannelBank row), so contains() is one array load and remove() returns
// at once for a user with no entry. The per-slot table grows to the
// highest slot ever queued — band rows, never population ids.
#pragma once

#include <cstdint>
#include <vector>

#include "channel/csi.hpp"
#include "common/units.hpp"

namespace charisma::mac {

enum class RequestType { kVoice, kData };

struct PendingRequest {
  common::UserId user = common::kNoUser;
  /// The requester's storage slot (MobileUser::slot()): the queue's
  /// membership key.
  std::size_t slot = 0;
  RequestType type = RequestType::kVoice;
  /// Packets the device asked to transmit (1 for voice; burst backlog for
  /// data, updated as slots are granted).
  int packets_requested = 1;
  common::Time acked_at = 0.0;            ///< when contention succeeded
  common::Time deadline = 0.0;            ///< voice-packet deadline; data: +inf
  channel::CsiEstimate csi{};             ///< last pilot-based estimate
  /// Frames spent waiting since the ACK (the T_w of Eq. (2)).
  int frames_waited = 0;
};

class RequestQueue {
 public:
  void push(const PendingRequest& request);

  bool empty() const { return entries_.empty(); }
  std::size_t size() const { return entries_.size(); }

  /// Entries oldest first. Callers may update an entry's CSI, backlog and
  /// waiting count in place, never its user or slot (the membership key).
  std::vector<PendingRequest>& entries() { return entries_; }
  const std::vector<PendingRequest>& entries() const { return entries_; }

  /// True when the user at storage slot `slot` has an entry queued.
  bool contains(std::size_t slot) const {
    return slot < queued_.size() && queued_[slot] != 0;
  }

  /// Removes the entry of the user at `slot` (after full service or
  /// expiry); no-op when it has none.
  void remove(std::size_t slot);

  /// Purges voice requests whose deadline passed. Returns how many were
  /// purged (their packets are accounted as deadline drops by the source).
  int purge_expired_voice(common::Time now);

  /// Increments every entry's waiting-frame counter (call once per frame).
  void age_all();

  void clear();

 private:
  std::vector<PendingRequest> entries_;
  /// Entries queued per storage slot (0 or 1 in every protocol's use).
  std::vector<std::uint32_t> queued_;
};

}  // namespace charisma::mac
