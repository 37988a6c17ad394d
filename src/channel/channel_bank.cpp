#include "channel/channel_bank.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <numeric>
#include <stdexcept>
#include <string>

#include "channel/fading.hpp"
#include "common/math.hpp"

namespace charisma::channel {

namespace {
constexpr double kHalfPower = 0.7071067811865476;  // sqrt(1/2)

// Memoizing every distinct stride is safe: protocols use a handful of frame
// lengths, so the table stays tiny. The cap only guards against a
// pathological caller advancing by a never-repeating stride sequence.
constexpr std::size_t kMaxCachedStrides = 64;

const ChannelConfig& validated(const ChannelConfig& config) {
  if (config.diversity_branches < 1) {
    throw std::invalid_argument("ChannelBank: need >= 1 diversity branch");
  }
  if (config.shadow_sigma_db < 0.0) {
    throw std::invalid_argument("ChannelBank: shadow_sigma_db must be >= 0");
  }
  if (config.shadow_tau <= 0.0 || config.sample_interval <= 0.0) {
    throw std::invalid_argument(
        "ChannelBank: shadow_tau and sample_interval must be > 0");
  }
  return config;
}
}  // namespace

common::Hertz ChannelConfig::doppler_for_speed(common::Speed speed,
                                               common::Hertz carrier_hz) {
  if (speed < 0.0 || carrier_hz <= 0.0) {
    throw std::invalid_argument("doppler_for_speed: invalid arguments");
  }
  return speed * carrier_hz / common::kSpeedOfLight;
}

ChannelBank::ChannelBank(const ChannelConfig& config)
    : config_(validated(config)),
      branches_(static_cast<std::size_t>(config.diversity_branches)),
      inv_branches_(1.0 / static_cast<double>(config.diversity_branches)),
      seed_mean_linear_(common::from_db(config.mean_snr_db)),
      fade_rho_(ar_rho_for(config.doppler_hz, config.sample_interval)),
      shadow_rho_(std::exp(-config.sample_interval / config.shadow_tau)) {}

void ChannelBank::reserve(std::size_t users) {
  rng_.reserve(users);
  fade_re_.reserve(users * branches_);
  fade_im_.reserve(users * branches_);
  mean_snr_linear_.reserve(users);
  mean_snr_db_.reserve(users);
  interference_db_.reserve(users);
  interference_linear_.reserve(users);
  step_.reserve(users);
  fading_power_.reserve(users);
  shadow_db_.reserve(users);
  shadow_linear_.reserve(users);
  vacant_.reserve(users);
}

std::size_t ChannelBank::acquire_user(std::uint64_t seed) {
  const std::size_t user = next_slot();
  if (user == step_.size()) {
    // Append an empty row; seed_row below fills it exactly as it re-seeds
    // a recycled one.
    rng_.push_back(common::SplitMix64(0));
    fade_re_.resize(fade_re_.size() + branches_);
    fade_im_.resize(fade_im_.size() + branches_);
    mean_snr_linear_.push_back(0.0);
    mean_snr_db_.push_back(0.0);
    interference_db_.push_back(0.0);
    interference_linear_.push_back(0.0);
    step_.push_back(0);
    fading_power_.push_back(0.0);
    shadow_db_.push_back(0.0);
    shadow_linear_.push_back(0.0);
    vacant_.push_back(0);
  } else {
    free_slots_.pop_back();
    vacant_[user] = 0;
    --vacant_count_;
  }
  seed_row(user, seed);
  return user;
}

void ChannelBank::seed_row(std::size_t user, std::uint64_t seed) {
  mean_snr_linear_[user] = seed_mean_linear_;
  mean_snr_db_[user] = config_.mean_snr_db;
  interference_db_[user] = 0.0;
  interference_linear_[user] = 1.0;
  // A row seeded mid-run starts stationary *now* — at the clock's current
  // step — not at step 0 (which would turn its first touch into one giant
  // catch-up jump). At construction time both are step 0, so the
  // historical sequences are unchanged.
  step_[user] = target_step_;

  common::SplitMix64 fast(seed);
  const auto& zig = common::detail::ziggurat_tables();

  // Stationary start: per branch an I then a Q component, then the
  // shadowing value.
  const std::size_t begin = user * branches_;
  double power = 0.0;
  for (std::size_t b = begin; b < begin + branches_; ++b) {
    const double re = kHalfPower * fast.normal(zig);
    const double im = kHalfPower * fast.normal(zig);
    fade_re_[b] = re;
    fade_im_[b] = im;
    power += re * re + im * im;
  }
  fading_power_[user] =
      power / static_cast<double>(config_.diversity_branches);
  const double shadow = config_.shadow_sigma_db * fast.normal(zig);
  shadow_db_[user] = shadow;
  // Converted now, not marked stale: the stale path's exp(ln10/10 · dB)
  // differs from from_db's pow in the last bit on about a quarter of
  // inputs, and a row read before its first jump (an engine's first
  // frame, a sub-step RMAV frame) must see the historical value.
  shadow_linear_[user] = common::from_db(shadow);
  rng_[user] = fast;
  active_dirty_ = true;
}

void ChannelBank::release_user(std::size_t slot) {
  if (slot >= step_.size()) {
    throw std::out_of_range("ChannelBank::release_user: bad slot");
  }
  if (vacant_[slot]) {
    throw std::logic_error("ChannelBank::release_user: slot already vacant");
  }
  vacant_[slot] = 1;
  ++vacant_count_;
  free_slots_.push_back(static_cast<std::uint32_t>(slot));
  active_dirty_ = true;
}

void ChannelBank::refresh_active() const {
  const std::size_t n = step_.size();
  if (!active_dirty_ && scratch_ids_.size() == n - vacant_count_) return;
  scratch_ids_.clear();
  scratch_ids_.reserve(n - vacant_count_);
  if (vacant_count_ == 0) {
    scratch_ids_.resize(n);
    std::iota(scratch_ids_.begin(), scratch_ids_.end(), 0u);
  } else {
    for (std::size_t u = 0; u < n; ++u) {
      if (!vacant_[u]) scratch_ids_.push_back(static_cast<std::uint32_t>(u));
    }
  }
  active_dirty_ = false;
}

const ChannelBank::JumpCoeffs& ChannelBank::coeffs(std::int64_t k) {
  for (const auto& entry : strides_) {
    if (entry.first == k) return entry.second;
  }
  const double fade_rho_k = std::pow(fade_rho_, static_cast<double>(k));
  const double shadow_rho_k = std::pow(shadow_rho_, static_cast<double>(k));
  JumpCoeffs c;
  c.fade_rho_k = fade_rho_k;
  c.fade_component_scale = std::sqrt((1.0 - fade_rho_k * fade_rho_k) * 0.5);
  c.shadow_rho_k = shadow_rho_k;
  c.shadow_unit_scale = std::sqrt(1.0 - shadow_rho_k * shadow_rho_k);
  if (strides_.size() >= kMaxCachedStrides) strides_.clear();
  strides_.emplace_back(k, c);
  return strides_.back().second;
}

void ChannelBank::jump_user(std::size_t user, const JumpCoeffs& c) {
  auto& rng = rng_[user];
  const auto& zig = common::detail::ziggurat_tables();
  const std::size_t begin = user * branches_;
  const std::size_t end = begin + branches_;
  double* const re = fade_re_.data();
  double* const im = fade_im_.data();
  double power = 0.0;
  for (std::size_t b = begin; b < end; ++b) {
    double wr, wi;
    rng.normal_pair(zig, wr, wi);
    const double r = c.fade_rho_k * re[b] + c.fade_component_scale * wr;
    const double i = c.fade_rho_k * im[b] + c.fade_component_scale * wi;
    re[b] = r;
    im[b] = i;
    power += r * r + i * i;
  }
  fading_power_[user] = power * inv_branches_;
  shadow_db_[user] = c.shadow_rho_k * shadow_db_[user] +
                     config_.shadow_sigma_db * c.shadow_unit_scale *
                         rng.normal(zig);
  shadow_linear_[user] = kStaleLinear;  // recomputed on first SNR read
}

void ChannelBank::set_time(common::Time t) {
  // O(1) in the population: one floor(). Identical boundary expression to
  // the historical advance_all_to loop, so eager advance_all_to (= set_time
  // + materialize_all) lands on the same target steps bit for bit.
  const auto target = static_cast<std::int64_t>(
      std::floor(t / config_.sample_interval + 1e-9));
  if (target < target_step_) {
    throw std::logic_error("ChannelBank::set_time: time went backwards");
  }
  target_step_ = target;
}

// No row is ever ahead of the bank clock: a row is seeded at the clock's
// step, only ever jumps to it, and the clock only moves forward
// (set_time). Every k below is therefore >= 0.

void ChannelBank::materialize_user(std::size_t user) {
  const std::int64_t k = target_step_ - step_[user];
  assert(k >= 0);
  if (k == 0) return;
  jump_user(user, coeffs(k));
  step_[user] = target_step_;
  ++jump_events_;
  jump_frames_ += k;
}

template <typename Index>
void ChannelBank::materialize_batch(const Index* ids, std::size_t n) {
  // The memoized jump loop (bit-identical to the historical advance_all_to
  // body when ids is the full population). In the common case every user
  // sits at the same step, so the coefficient lookup is hoisted out of the
  // loop by the memo of the previous iteration.
  const std::int64_t target = target_step_;
  std::int64_t last_k = -1;
  const JumpCoeffs* c = nullptr;
  for (std::size_t i = 0; i < n; ++i) {
    const auto user = static_cast<std::size_t>(ids[i]);
    const std::int64_t k = target - step_[user];
    assert(k >= 0);
    if (k == 0) continue;
    if (k != last_k) {
      last_k = k;
      c = &coeffs(k);
    }
    jump_user(user, *c);
    step_[user] = target;
    ++jump_events_;
    jump_frames_ += k;
  }
}

void ChannelBank::materialize_all() {
  // Nothing to do while the clock has not moved since the last full pass:
  // every row then sits at the clock (rows are seeded there and never run
  // ahead of it). A variable-frame engine's sub-step frames take this exit.
  if (all_at_step_ == target_step_) return;
  // "All" means all *active* rows: vacant rows must never advance (their
  // next acquire re-seeds them) nor count toward the jump accounting. With
  // no vacancies the batch is the historical full iota, bit for bit.
  refresh_active();
  materialize_batch(scratch_ids_.data(), scratch_ids_.size());
  all_at_step_ = target_step_;
}

void ChannelBank::materialize_users(std::span<const common::UserId> slots) {
  for (const common::UserId slot : slots) {
    if (slot < 0 || static_cast<std::size_t>(slot) >= step_.size()) {
      throw std::out_of_range("ChannelBank::materialize_users: bad slot " +
                              std::to_string(slot));
    }
    if (vacant_[static_cast<std::size_t>(slot)]) {
      throw std::logic_error("ChannelBank::materialize_users: slot " +
                             std::to_string(slot) + " is vacant");
    }
  }
  materialize_batch(slots.data(), slots.size());
}

void ChannelBank::advance_all_to(common::Time t) {
  set_time(t);
  materialize_all();
}

void ChannelBank::set_mean_snr_db(std::size_t user, double db) {
  if (user >= step_.size()) {
    throw std::out_of_range("ChannelBank::set_mean_snr_db: bad user");
  }
  mean_snr_db_[user] = db;
  mean_snr_linear_[user] = common::from_db(db);
}

void ChannelBank::set_mean_snr_db_all(std::span<const double> db) {
  const std::size_t n = step_.size();
  if (db.size() < n) {
    throw std::invalid_argument("ChannelBank::set_mean_snr_db_all: short span");
  }
  // dB only: the linear factor is marked stale and converted by the first
  // snr_linear read — a frame reads the SNR of a handful of candidates,
  // not of every row fed here.
  if (vacant_count_ != 0) {
    // Sparse bank: db[slot] is defined only for active slots; vacant rows
    // keep whatever they held (re-seeded on acquire, never read).
    refresh_active();
    for (const std::uint32_t u : scratch_ids_) {
      mean_snr_db_[u] = db[u];
      mean_snr_linear_[u] = kStaleLinear;
    }
    return;
  }
  std::copy_n(db.begin(), n, mean_snr_db_.begin());
  std::fill(mean_snr_linear_.begin(), mean_snr_linear_.end(), kStaleLinear);
}

void ChannelBank::set_interference_db_all(std::span<const double> db) {
  const std::size_t n = step_.size();
  if (db.size() < n) {
    throw std::invalid_argument(
        "ChannelBank::set_interference_db_all: short span");
  }
  if (vacant_count_ != 0) {
    refresh_active();
    for (const std::uint32_t u : scratch_ids_) {
      interference_db_[u] = db[u];
      interference_linear_[u] = kStaleLinear;
    }
    return;
  }
  std::copy_n(db.begin(), n, interference_db_.begin());
  std::fill(interference_linear_.begin(), interference_linear_.end(),
            kStaleLinear);
}

double ChannelBank::snr_db(std::size_t user) const {
  return common::to_db(snr_linear(user));
}

void ChannelBank::snr_db_all(std::span<double> out) const {
  const std::size_t n = step_.size();
  if (out.size() < n) {
    throw std::invalid_argument("ChannelBank::snr_db_all: short span");
  }
  // The pilot plane reads everyone, so a lazy bank re-anchors the whole
  // population here — this is what bounds a mobile world's idle gaps at
  // one epoch. Same logical-constness note as ensure_user.
  if (lazy_) const_cast<ChannelBank*>(this)->materialize_all();
  constexpr double kTenOverLn10 = 4.342944819032518;  // 10 / ln(10)
  const double* mean_db = mean_snr_db_.data();
  const double* shadow = shadow_db_.data();
  const double* fade = fading_power_.data();
  const double* interf = interference_db_.data();
  double* dst = out.data();
  if (vacant_count_ != 0) {
    // Vacant rows keep whatever out[slot] already held — the caller owns
    // the slot-indexed buffer and only reads active entries.
    refresh_active();
    for (const std::uint32_t u : scratch_ids_) {
      dst[u] = mean_db[u] + shadow[u] + kTenOverLn10 * std::log(fade[u]) -
               interf[u];
    }
    return;
  }
  for (std::size_t u = 0; u < n; ++u) {
    // Subtracting the interference penalty last keeps the interference-free
    // value (penalty 0.0) bit-identical to the pre-SINR pilot plane.
    dst[u] = mean_db[u] + shadow[u] + kTenOverLn10 * std::log(fade[u]) -
             interf[u];
  }
}

}  // namespace charisma::channel
