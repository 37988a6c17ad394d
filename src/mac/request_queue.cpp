#include "mac/request_queue.hpp"

#include <algorithm>

namespace charisma::mac {

namespace {
constexpr double kTimeEps = 1e-9;
}

void RequestQueue::push(const PendingRequest& request) {
  if (request.slot >= queued_.size()) queued_.resize(request.slot + 1, 0);
  ++queued_[request.slot];
  entries_.push_back(request);
}

void RequestQueue::remove(std::size_t slot) {
  if (!contains(slot)) return;
  std::erase_if(entries_,
                [slot](const PendingRequest& r) { return r.slot == slot; });
  queued_[slot] = 0;
}

int RequestQueue::purge_expired_voice(common::Time now) {
  const auto before = entries_.size();
  std::erase_if(entries_, [this, now](const PendingRequest& r) {
    if (r.type != RequestType::kVoice || now + kTimeEps < r.deadline) {
      return false;
    }
    --queued_[r.slot];
    return true;
  });
  return static_cast<int>(before - entries_.size());
}

void RequestQueue::age_all() {
  for (auto& r : entries_) ++r.frames_waited;
}

void RequestQueue::clear() {
  for (const auto& r : entries_) queued_[r.slot] = 0;
  entries_.clear();
}

}  // namespace charisma::mac
