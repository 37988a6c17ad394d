// Per-user uplink channel: combined long-term shadowing and short-term
// diversity fading around a mean link SNR, stepped lazily on the frame
// grid. Each mobile device owns one UserChannel seeded independently, so
// users fade independently — the property CHARISMA's selection diversity
// exploits (paper §5.3.2).
//
// UserChannel is a thin per-user view over one ChannelBank row (the SoA
// batched hot path). Inside a ProtocolEngine all users share the engine's
// bank — one radio configuration, per-row means — and are advanced
// together; constructed standalone (tests, traces, handoff studies) it
// owns a private single-row bank under its own configuration, so the API
// and statistics are identical either way.
#pragma once

#include <cstddef>
#include <memory>

#include "channel/channel_bank.hpp"
#include "common/rng.hpp"
#include "common/units.hpp"

namespace charisma::channel {

class UserChannel {
 public:
  /// Standalone channel backed by a private single-user bank.
  UserChannel(const ChannelConfig& config, common::RngStream rng);

  /// View of user `index` in an existing bank (not owned; the bank must
  /// outlive the view).
  UserChannel(ChannelBank& bank, std::size_t index);

  UserChannel(UserChannel&&) = default;
  UserChannel& operator=(UserChannel&&) = default;

  /// Advances the channel state to (the grid point at or before) `t`.
  /// Must be called with non-decreasing times.
  void advance_to(common::Time t) { bank_->advance_user_to(index_, t); }

  /// Instantaneous effective SNR (linear) at the current state.
  double snr_linear() const { return bank_->snr_linear(index_); }
  double snr_db() const { return bank_->snr_db(index_); }

  /// Re-anchors the link-budget mean (dB) without disturbing the
  /// fading/shadowing state or RNG draw order (mobility path loss).
  void set_mean_snr_db(double db) { bank_->set_mean_snr_db(index_, db); }
  double mean_snr_db() const { return bank_->mean_snr_db(index_); }

  /// Components, exposed for tracing and tests.
  double fading_power() const { return bank_->fading_power(index_); }
  double shadow_db() const { return bank_->shadow_db(index_); }

  /// The bank slot this view addresses — the engine's storage index for
  /// band-resident users (slot == user id only in a full, never-released
  /// population).
  std::size_t index() const { return index_; }

 private:
  std::unique_ptr<ChannelBank> owned_;  // null when viewing a shared bank
  ChannelBank* bank_;
  std::size_t index_;
};

}  // namespace charisma::channel
