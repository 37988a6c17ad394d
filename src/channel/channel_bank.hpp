// Batched structure-of-arrays channel evolution — the simulator's hottest
// loop, rebuilt for population scale.
//
// A bank holds one radio configuration (ChannelConfig: Doppler, diversity
// order, shadowing process, sample interval) shared by all of its rows —
// the paper's common platform gives every user of a cell the same radio
// environment, and only the link budget differs per user. A row therefore
// keeps just what really differs: its mean SNR, its interference penalty,
// its step, its diversity-branch I/Q state, its shadowing value and its
// private innovation engine. Every row's branch states live in contiguous
// parallel arrays (row u at [u*B, u*B + B)), and one pass advances all rows
// to a frame boundary. The per-sample AR(1) walk is replaced by its
// closed-form k-step jump:
//
//     h[n+k] = rho^k * h[n] + sqrt(1 - rho^(2k)) * w,   w ~ CN(0, 1)
//
// (exact, because the AR(1) recursion composes into the same Gauss-Markov
// form at any stride), and the matching Ornstein–Uhlenbeck jump for the
// log-normal shadowing dB process. Variable-length frames (RMAV/DRMA) and
// long idle gaps therefore cost O(1) per user instead of O(k); the bank
// memoizes the rho^k / sqrt(1-rho^2k) coefficients per stride, so the
// common frame strides hit a precomputed table.
//
// A row is the simulator's only channel handle: an engine's user holds its
// bank slot, and a standalone trace (one device, Figs. 5 and 7, the fading
// explorer) is row 0 of a one-row bank. Each row keeps its own innovation
// engine, seeded from the first draw of the user's stream (scenario seed
// and user id), so a row's realization is independent of population size:
// row u of a populated bank equals a one-row bank given the same seed, bit
// for bit. A population with differing radio environments uses one bank
// per environment, as a world keeps one bank per cell.
//
// One clock per bank: every row is advanced to the bank clock and never
// past it, so no row can run ahead of the others' time base.
//
// Lazy mode (set_lazy(true), opt-in): the bank separates the frame clock
// from materialization. set_time(t) moves the clock in O(1); per-user state
// is materialized on demand — by the frame's declared touch set
// (materialize_users) or transparently by the first read of an untouched
// user — via the same closed-form jump, so a user idle for
// k frames pays one jump (one table lookup) instead of k. Because every
// user owns a private innovation stream, a lazy bank's realization is
// independent of *who* triggers materialization and of the order users
// materialize in; it is NOT samplewise identical to the eager schedule (a
// k-jump consumes one innovation set where k unit steps consume k — the
// two are equal in distribution, not in realization), which is why eager
// remains the default and reproduces the historical sequences bit for bit.
#pragma once

#include <cmath>
#include <cstdint>
#include <span>
#include <vector>

#include "common/math.hpp"
#include "common/rng.hpp"
#include "common/units.hpp"

namespace charisma::channel {

/// Static description of the radio environment shared by all rows of a bank.
struct ChannelConfig {
  double mean_snr_db = 16.0;      ///< link-budget mean SNR at the receiver
  double shadow_sigma_db = 3.0;   ///< log-normal shadowing std-dev
  common::Time shadow_tau = 1.0;  ///< shadowing decorrelation time, s
  common::Hertz doppler_hz = 100.0;  ///< Doppler spread (50 km/h default)
  int diversity_branches = 4;     ///< effective-SNR diversity order
  common::Time sample_interval = 2.5e-3;  ///< grid step (one TDMA frame)

  /// Doppler spread for a device moving at `speed` with carrier wavelength
  /// implied by `carrier_hz`: fd = v * fc / c.
  static common::Hertz doppler_for_speed(common::Speed speed,
                                         common::Hertz carrier_hz);
};

/// SoA bank of per-user fading + shadowing processes under one radio
/// configuration, stepped on the configuration's sample grid. Rows are
/// acquired (appended, or recycled through the release free-list for
/// sparse presence) and addressed by the returned slot index.
class ChannelBank {
 public:
  /// Validates `config` (>= 1 diversity branch, shadow_sigma_db >= 0,
  /// positive Doppler, shadow_tau and sample_interval); throws
  /// std::invalid_argument otherwise.
  explicit ChannelBank(const ChannelConfig& config);

  void reserve(std::size_t users);

  /// Starts a user in the stationary channel state at the configured mean
  /// SNR, no interference, at the bank clock's current step, and returns
  /// its slot: next_slot(). `seed` seeds this user's private innovation
  /// generator — by convention the first draw of the user's per-row
  /// stream, `RngStream(s).engine()()` (common::mt19937_64_first(s)
  /// computes it without building the engine) — so what a row
  /// materializes depends only on that seed and on when it was acquired,
  /// never on the population around it or on which slot the free-list
  /// happened to hand back. Allocates nothing while size() < the reserved
  /// row count.
  std::size_t acquire_user(std::uint64_t seed);

  /// The slot the next acquire_user returns: the most recently released
  /// row (LIFO over the free-list, so serial and parallel worlds that
  /// release in the same order reuse the same slots), else size().
  std::size_t next_slot() const {
    return free_slots_.empty() ? step_.size() : free_slots_.back();
  }

  /// Returns `slot` to the free-list. The row's state stays in place but
  /// is excluded from every whole-bank operation (materialize_all,
  /// set_*_all, snr_db_all), so vacant rows never advance, draw, or count
  /// toward materialization accounting. Double release throws.
  void release_user(std::size_t slot);

  /// Slots currently backing a live user (size() minus the free-list).
  std::size_t active_count() const { return step_.size() - vacant_count_; }

  /// True when `slot` is on the free-list.
  bool vacant(std::size_t slot) const { return vacant_[slot] != 0; }

  std::size_t size() const { return step_.size(); }

  /// Advances every user to (the grid point at or before) `t` in one pass:
  /// set_time(t) + materialize_all(). In the default eager mode this
  /// reproduces the historical per-frame schedule bit for bit.
  void advance_all_to(common::Time t);

  // ---- Lazy on-demand materialization (opt-in; see file comment) ----

  /// Switches the bank to (or from) lazy demand-driven materialization.
  /// Call before the first advance; reads of a lazy bank transparently
  /// materialize the addressed user up to the bank clock.
  void set_lazy(bool lazy) { lazy_ = lazy; }
  bool lazy() const { return lazy_; }

  /// O(1) frame-clock move: records `t` (non-decreasing; an earlier time
  /// throws std::logic_error) as the boundary every subsequent read/touch
  /// materializes to. No per-user work.
  void set_time(common::Time t);

  /// Materializes the given bank slots up to the bank clock in one batch
  /// (the frame's declared touch set: transmitters, contenders, polled
  /// rows). Entries are slots, not user ids — they coincide only in a
  /// full, never-released population, so a sparse engine maps ids through
  /// its band first. Slots out of [0, size()) throw std::out_of_range and
  /// vacant slots (released rows: a stale id/slot mapping) throw
  /// std::logic_error, both before any row advances; duplicates are fine
  /// (a second materialization at the same clock is a no-op).
  void materialize_users(std::span<const common::UserId> slots);

  /// Materializes every user up to the bank clock (epoch pilot planes).
  void materialize_all();

  /// Materialization accounting since construction: `jump_events` counts
  /// executed jumps (user-frames where work was done), `jump_frames` the
  /// user-frames covered (sum of jump strides). Eager banks report a
  /// stride of exactly 1 (events == frames); the gap between the two is
  /// the work lazy mode avoided.
  struct LazyStats {
    std::int64_t jump_events = 0;
    std::int64_t jump_frames = 0;
  };
  LazyStats lazy_stats() const { return {jump_events_, jump_frames_}; }

  /// Re-anchors the user's link-budget mean SNR (dB) — the mobility fast
  /// path: path loss moves the mean while the fading/shadowing processes
  /// (and the user's RNG draw order) are left completely undisturbed, so a
  /// mobile run stays replayable against a static one draw for draw.
  void set_mean_snr_db(std::size_t user, double db);

  /// Bulk set_mean_snr_db: re-anchors every user's mean from db[u] in one
  /// pass (same no-RNG / no-fading-state guarantee). The mobility layer
  /// feeds a whole cell's path-loss plane through here each epoch instead
  /// of total_users scalar calls. Only the dB value is stored; the linear
  /// factor is marked stale and converted by the row's first snr_linear
  /// read (see there), so rows the MAC never reads pay no pow().
  void set_mean_snr_db_all(std::span<const double> db);

  /// Bulk co-channel interference plane: db[u] is the SINR penalty
  /// (10·log10(1 + I/N), >= 0) subtracted from every subsequent SNR read,
  /// so snr_db()/snr_db_all()/snr_linear() report SINR. Like
  /// set_mean_snr_db_all this touches neither the fading/shadowing state
  /// nor the per-user RNG draw order, and a penalty of exactly 0 leaves
  /// every read bit-identical to a bank that never saw interference —
  /// both guarantees are pinned by tests/channel/channel_bank_test.cpp.
  /// Like the mean, the linear factor is converted on first read.
  void set_interference_db_all(std::span<const double> db);

  /// Current SINR penalty (dB) applied to `user`'s reads; 0 by default.
  double interference_db(std::size_t user) const {
    return interference_db_[user];
  }

  /// Current link-budget mean SNR (dB) of `user`.
  double mean_snr_db(std::size_t user) const { return mean_snr_db_[user]; }

  /// Instantaneous effective SNR (linear) of `user` at its current state,
  /// after the interference penalty (SINR when an interference plane is
  /// set; the default penalty factor is exactly 1). All three dB→linear
  /// conversions are lazy: an advance marks the shadowing factor stale,
  /// set_mean_snr_db_all / set_interference_db_all mark the mean and
  /// penalty factors stale, and the first read pays the conversion (from_db
  /// of the stored dB value, so the product does not depend on when the
  /// read comes) — protocol frames read the SNR of a handful of
  /// candidates, not of the whole population.
  double snr_linear(std::size_t user) const {
    if (lazy_) ensure_user(user);
    return mean_linear(user) * fading_power_[user] * shadow_linear(user) *
           interference_linear(user);
  }
  double snr_db(std::size_t user) const;

  /// Bulk pilot read: writes every user's instantaneous SNR (dB) to out[u].
  /// Works in the dB domain — mean dB + shadowing dB + 10·log10(fading
  /// power) — so it pays one log per user where the scalar snr_db() pays an
  /// exp (lazy shadowing) *and* a log10 through the linear domain. Same
  /// quantity, different operation order: values agree with snr_db() to
  /// floating-point rounding.
  void snr_db_all(std::span<double> out) const;

  /// Components, exposed for tracing and tests.
  double fading_power(std::size_t user) const {
    if (lazy_) ensure_user(user);
    return fading_power_[user];
  }
  double shadow_db(std::size_t user) const {
    if (lazy_) ensure_user(user);
    return shadow_db_[user];
  }

  /// Per-branch I/Q state and the private innovation-engine cursor,
  /// exposed for the jump-vs-step equivalence tests (which pin that k
  /// deferred clock moves + one materialization equals one k-jump bitwise,
  /// RNG cursor included). Branch reads do NOT materialize lazily.
  double fade_re(std::size_t user, int branch) const {
    return fade_re_[user * branches_ + static_cast<std::size_t>(branch)];
  }
  double fade_im(std::size_t user, int branch) const {
    return fade_im_[user * branches_ + static_cast<std::size_t>(branch)];
  }
  std::uint64_t rng_cursor(std::size_t user) const {
    return rng_[user].raw_state();
  }

  /// The radio configuration every row shares.
  const ChannelConfig& config() const { return config_; }
  std::int64_t current_step(std::size_t user) const { return step_[user]; }

 private:
  /// Jump coefficients at stride k. The innovation scales are for a
  /// *unit-variance* target: the fading per-component scale folds in the
  /// CN(0,1) half-power; the shadowing scale is multiplied by sigma_db at
  /// the use site.
  struct JumpCoeffs {
    double fade_rho_k;
    double fade_component_scale;   // sqrt((1 - rho^2k) / 2)
    double shadow_rho_k;
    double shadow_unit_scale;      // sqrt(1 - rho_s^2k)
  };

  /// Memoized stride coefficients: repeated frame strides cost one table
  /// lookup instead of two pow() calls per user.
  const JumpCoeffs& coeffs(std::int64_t k);
  void jump_user(std::size_t user, const JumpCoeffs& c);

  /// Writes row `user`'s configured mean, zero interference, the bank
  /// clock's step and a stationary I/Q + shadowing start drawn from a
  /// SplitMix64 seeded with `seed` (acquire_user's seeding of a new or
  /// recycled row).
  void seed_row(std::size_t user, std::uint64_t seed);

  /// Materializes one user up to the bank clock (lazy read path).
  void materialize_user(std::size_t user);
  /// Logical-constness escape for lazy reads: the observable value is "the
  /// state at the bank clock"; whether it is physically materialized is an
  /// implementation detail (banks are externally synchronized per cell, so
  /// no concurrent-read hazard is introduced).
  void ensure_user(std::size_t user) const {
    if (step_[user] != target_step_) {
      const_cast<ChannelBank*>(this)->materialize_user(user);
    }
  }

  /// Jumps each of `ids` (bank slots) to the bank clock, reusing the
  /// previous iteration's coefficients while the stride repeats.
  template <typename Index>
  void materialize_batch(const Index* ids, std::size_t n);

  /// Marks a cached linear factor as stale (every real factor is > 0).
  static constexpr double kStaleLinear = -1.0;

  double shadow_linear(std::size_t user) const {
    double linear = shadow_linear_[user];
    if (linear < 0.0) {  // stale since the last advance
      // exp(ln10/10 * dB) — same value as from_db, cheaper than pow.
      linear = std::exp(0.23025850929940457 * shadow_db_[user]);
      shadow_linear_[user] = linear;
    }
    return linear;
  }
  double mean_linear(std::size_t user) const {
    double linear = mean_snr_linear_[user];
    if (linear < 0.0) {  // stale since the last set_mean_snr_db_all
      linear = common::from_db(mean_snr_db_[user]);
      mean_snr_linear_[user] = linear;
    }
    return linear;
  }
  double interference_linear(std::size_t user) const {
    double linear = interference_linear_[user];
    if (linear < 0.0) {  // stale since the last set_interference_db_all
      linear = common::from_db(-interference_db_[user]);
      interference_linear_[user] = linear;
    }
    return linear;
  }

  ChannelConfig config_;
  std::size_t branches_;        // config_.diversity_branches
  double inv_branches_;         // 1 / branches_
  double seed_mean_linear_;     // from_db(config_.mean_snr_db), every seed
  double fade_rho_;             // per-step AR(1) fading correlation
  double shadow_rho_;           // per-step shadowing correlation
  std::vector<std::pair<std::int64_t, JumpCoeffs>> strides_;

  // 8-byte per-user engines: with mt19937_64's ~2.5 KB state the RNG alone
  // would stream tens of MB through the cache per frame at 10k+ users.
  std::vector<common::SplitMix64> rng_;

  // ---- SoA state ----
  // Branch I/Q states for all users, contiguous; user u owns
  // [u * branches_, (u + 1) * branches_).
  std::vector<double> fade_re_;
  std::vector<double> fade_im_;

  // Mean SNR and interference penalty in both domains: the dB values are
  // what the setters write (snr_db_all adds the mean and subtracts the
  // penalty); the linear factors 10^(dB/10) and 10^(-dB/10) multiplied by
  // snr_linear are caches, kStaleLinear until the first read after a bulk
  // set. 0 dB / 1.0 penalty until set_interference_db_all is called.
  mutable std::vector<double> mean_snr_linear_;
  std::vector<double> mean_snr_db_;
  std::vector<double> interference_db_;
  mutable std::vector<double> interference_linear_;
  std::vector<std::int64_t> step_;

  // Cached outputs of the last advance (what the MAC layer actually reads);
  // shadow_linear_ == kStaleLinear marks an entry recomputed on first read.
  std::vector<double> fading_power_;
  std::vector<double> shadow_db_;
  mutable std::vector<double> shadow_linear_;

  // ---- Lazy clock ----
  // The frame boundary as a step on the bank's sample grid: set_time
  // computes one floor() and ensure_user is one array load + a compare.
  bool lazy_ = false;
  std::int64_t target_step_ = 0;
  // The clock step of the last completed materialize_all: while it equals
  // target_step_, every active row is already at the clock.
  std::int64_t all_at_step_ = 0;
  // Ascending active-slot list fed to the batch loop and the bulk
  // loops. With no vacancies it is the iota over all slots (the historical
  // materialize_all batch, bit for bit); rebuilt lazily after any
  // acquire/release. Mutable: refreshing it from a const read path is
  // the same logical-constness escape as ensure_user.
  mutable std::vector<std::uint32_t> scratch_ids_;
  mutable bool active_dirty_ = false;
  void refresh_active() const;

  // ---- Row lifecycle (sparse presence) ----
  std::vector<std::uint32_t> free_slots_;  // LIFO
  std::vector<char> vacant_;               // 1 = on the free-list
  std::size_t vacant_count_ = 0;

  // Materialization accounting (see lazy_stats).
  std::int64_t jump_events_ = 0;
  std::int64_t jump_frames_ = 0;
};

}  // namespace charisma::channel
