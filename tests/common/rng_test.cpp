#include "common/rng.hpp"

#include <bit>
#include <cmath>
#include <cstdint>
#include <random>
#include <tuple>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

namespace charisma::common {
namespace {

TEST(RngSeed, SameInputsSameSeed) {
  EXPECT_EQ(derive_seed(42, 7), derive_seed(42, 7));
}

TEST(RngSeed, DifferentStreamsDiffer) {
  EXPECT_NE(derive_seed(42, 7), derive_seed(42, 8));
  EXPECT_NE(derive_seed(42, 7), derive_seed(43, 7));
}

TEST(RngStream, Deterministic) {
  RngStream a(123), b(123);
  for (int i = 0; i < 100; ++i) {
    EXPECT_DOUBLE_EQ(a.uniform(), b.uniform());
  }
}

TEST(RngStream, DifferentSeedsDiverge) {
  RngStream a(1), b(2);
  int equal = 0;
  for (int i = 0; i < 100; ++i) {
    if (a.uniform() == b.uniform()) ++equal;
  }
  EXPECT_LT(equal, 3);
}

TEST(RngStream, UniformBounds) {
  RngStream rng(7);
  for (int i = 0; i < 10000; ++i) {
    const double u = rng.uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(RngStream, UniformRangeMean) {
  RngStream rng(7);
  double sum = 0.0;
  const int n = 50000;
  for (int i = 0; i < n; ++i) sum += rng.uniform(2.0, 6.0);
  EXPECT_NEAR(sum / n, 4.0, 0.05);
}

TEST(RngStream, UniformIntCoversRange) {
  RngStream rng(11);
  std::vector<int> counts(5, 0);
  for (int i = 0; i < 5000; ++i) ++counts[static_cast<std::size_t>(rng.uniform_int(5))];
  for (int c : counts) EXPECT_GT(c, 800);
  EXPECT_THROW(rng.uniform_int(0), std::domain_error);
}

TEST(RngStream, BernoulliEdges) {
  RngStream rng(3);
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(rng.bernoulli(0.0));
    EXPECT_TRUE(rng.bernoulli(1.0));
  }
}

TEST(RngStream, BernoulliRate) {
  RngStream rng(5);
  int hits = 0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) hits += rng.bernoulli(0.3);
  EXPECT_NEAR(static_cast<double>(hits) / n, 0.3, 0.01);
}

TEST(RngStream, ExponentialMoments) {
  RngStream rng(17);
  double sum = 0.0, sum2 = 0.0;
  const int n = 200000;
  for (int i = 0; i < n; ++i) {
    const double x = rng.exponential(1.35);
    sum += x;
    sum2 += x * x;
  }
  const double mean = sum / n;
  const double var = sum2 / n - mean * mean;
  EXPECT_NEAR(mean, 1.35, 0.02);
  EXPECT_NEAR(var, 1.35 * 1.35, 0.08);
  EXPECT_THROW(rng.exponential(0.0), std::domain_error);
}

TEST(RngStream, NormalMoments) {
  RngStream rng(19);
  double sum = 0.0, sum2 = 0.0;
  const int n = 200000;
  for (int i = 0; i < n; ++i) {
    const double x = rng.normal(3.0, 2.0);
    sum += x;
    sum2 += x * x;
  }
  const double mean = sum / n;
  EXPECT_NEAR(mean, 3.0, 0.03);
  EXPECT_NEAR(std::sqrt(sum2 / n - mean * mean), 2.0, 0.03);
}

// ---- Seed-pinned regression sequences ----
// The distribution layer is implemented in-house precisely so these exact
// sequences cannot change under a stdlib upgrade. If an edit to rng.cpp is
// *meant* to change results, regenerate these constants and say so in the
// commit — a silent change here invalidates every recorded benchmark.

TEST(RngStreamPinned, UniformSequence) {
  RngStream rng(12345);
  const double expected[] = {
      0.35762972288842587, 0.40044261704406114, 0.68938331700276845,
      0.55973557064111557, 0.57445129399171091, 0.2076905268617546,
  };
  for (double e : expected) EXPECT_DOUBLE_EQ(rng.uniform(), e);
}

TEST(RngStreamPinned, NormalSequence) {
  RngStream rng(12345);
  const double expected[] = {
      -1.162514705917397,   0.83968672813474454, -0.8024637068257271,
      -0.31617660920967344, 0.27662613610176873, 1.0159517267301623,
  };
  // Box-Muller goes through libm (log/sqrt/sin/cos), so allow a few ulp of
  // cross-platform slack while still pinning the realization.
  for (double e : expected) EXPECT_NEAR(rng.normal(), e, 1e-12);
}

TEST(RngStreamPinned, UniformIntSequence) {
  RngStream rng(12345);
  const int expected[] = {34, 38, 66, 54, 55, 20, 2, 66};
  for (int e : expected) EXPECT_EQ(rng.uniform_int(97), e);
}

TEST(RngStreamPinned, ExponentialSequence) {
  RngStream rng(12345);
  const double expected[] = {
      2.0565142428798442, 1.8303696020620406,
      0.74391564898381302, 1.1605816041119292,
  };
  for (double e : expected) EXPECT_NEAR(rng.exponential(2.0), e, 1e-12);
}

// ---- Statistical checks of the in-house algorithm branches ----

TEST(RngStream, UniformIntLargeRangeUnbiased) {
  RngStream rng(41);
  const int n = 200000;
  double sum = 0.0;
  int lo_hits = 0, hi_hits = 0;
  for (int i = 0; i < n; ++i) {
    const int v = rng.uniform_int(1000);
    ASSERT_GE(v, 0);
    ASSERT_LT(v, 1000);
    sum += v;
    if (v < 100) ++lo_hits;
    if (v >= 900) ++hi_hits;
  }
  EXPECT_NEAR(sum / n, 499.5, 2.5);
  EXPECT_NEAR(static_cast<double>(lo_hits) / n, 0.1, 0.005);
  EXPECT_NEAR(static_cast<double>(hi_hits) / n, 0.1, 0.005);
}

TEST(RngStream, NormalSpareKeepsMomentsUnderInterleaving) {
  // Interleaving other draws between normal() calls must not corrupt the
  // cached Box-Muller spare.
  RngStream rng(43);
  double sum = 0.0, sum2 = 0.0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) {
    const double x = rng.normal();
    (void)rng.uniform();  // perturb the engine between pair halves
    sum += x;
    sum2 += x * x;
  }
  EXPECT_NEAR(sum / n, 0.0, 0.02);
  EXPECT_NEAR(sum2 / n, 1.0, 0.02);
}

TEST(RngStream, TwoArgConstructorMatchesDerivedSeed) {
  RngStream a(derive_seed(10, 20));
  RngStream b(10, 20);
  for (int i = 0; i < 10; ++i) EXPECT_DOUBLE_EQ(a.uniform(), b.uniform());
}

// ---- RngStream::engine() spare invalidation (regression) ----
// engine() hands out the raw mt19937_64; any external draw moves the
// cursor, so a cached Box-Muller spare (computed from *earlier* cursor
// positions) must be dropped or the next normal() silently returns a
// variate that no replay of the raw stream can reproduce.

TEST(RngStream, EngineAccessInvalidatesBoxMullerSpare) {
  RngStream a(77);
  (void)a.normal();    // consumes 2 draws, caches the sin-variate spare
  (void)a.engine()();  // external draw: cursor moves, spare must die
  const double after_external = a.normal();

  // Reference stream replaying the identical raw-draw history with no
  // spare ever cached: 2 draws (the pair above) + 1 external draw, then a
  // fresh Box-Muller pair from the same cursor position.
  RngStream ref(77);
  (void)ref.engine()();
  (void)ref.engine()();
  (void)ref.engine()();
  EXPECT_DOUBLE_EQ(after_external, ref.normal());
}

TEST(RngStream, EngineAccessAloneDoesNotPerturbSequence) {
  // Touching engine() without drawing must not change what comes next
  // beyond dropping the spare: interleave accesses that draw nothing.
  RngStream a(78), b(78);
  (void)a.engine();  // no draw, no spare yet: a no-op
  for (int i = 0; i < 8; ++i) EXPECT_DOUBLE_EQ(a.uniform(), b.uniform());
}

TEST(RngStream, InterleavedEngineDrawsAndNormalsStayReproducible) {
  // The full interleaving: every normal() between engine() draws must be
  // derivable from the raw stream alone (count the draws), for several
  // rounds. Two identical streams run the same interleaving and a third
  // checks the draw accounting: 3 raw draws per round (1 external + 2
  // Box-Muller).
  RngStream a(79), b(79), raw(79);
  for (int round = 0; round < 5; ++round) {
    EXPECT_EQ(a.engine()(), b.engine()());
    EXPECT_DOUBLE_EQ(a.normal(), b.normal());
    for (int d = 0; d < 3; ++d) (void)raw.engine()();
  }
  // After 5 rounds all three cursors agree.
  EXPECT_EQ(a.engine()(), raw.engine()());
}

// ---- First outputs without the engine (bank-row seeding) ----
// mt19937_64_first(s) must be std::mt19937_64(s)() for every seed: the
// standard fixes the engine's sequence, so any disagreement — a twist mask
// off by one bit, a recurrence that drops its "+ i" — is a bug, and over
// 100k seeds it shows on most of them.

/// The checked seeds: the edges, then a splitmix64 walk over the full
/// 64-bit range interleaved with the small consecutive seeds tests use.
std::vector<std::uint64_t> first_output_seeds() {
  std::vector<std::uint64_t> seeds = {0,
                                      1,
                                      2,
                                      5489,  // the engine's default seed
                                      std::uint64_t{1} << 63,
                                      (std::uint64_t{1} << 63) - 1,
                                      ~std::uint64_t{0},
                                      ~std::uint64_t{0} - 1};
  std::uint64_t walk = 0x0123456789ABCDEFULL;
  for (std::uint64_t i = 0; i < 50'000; ++i) {
    seeds.push_back(i + 3);
    walk += detail::kSplitMixGamma;
    seeds.push_back(detail::splitmix64_mix(walk));
  }
  return seeds;
}

TEST(MtFirstOutput, EqualsEngineFirstDrawForEverySeed) {
  const auto seeds = first_output_seeds();
  ASSERT_GE(seeds.size(), 100'000u);
  std::size_t mismatches = 0;
  for (const std::uint64_t s : seeds) {
    if (mt19937_64_first(s) != std::mt19937_64(s)()) {
      if (++mismatches <= 5) ADD_FAILURE() << "seed " << s;
    }
  }
  EXPECT_EQ(mismatches, 0u);
}

TEST(MtFirstOutput, TwoOutputFormEqualsEngineFirstTwoDraws) {
  const auto seeds = first_output_seeds();
  std::size_t mismatches = 0;
  for (const std::uint64_t s : seeds) {
    std::mt19937_64 engine(s);
    const std::uint64_t first = engine();
    const std::uint64_t second = engine();
    const auto head = mt19937_64_first_two(s);
    if (head[0] != first || head[1] != second) {
      if (++mismatches <= 5) ADD_FAILURE() << "seed " << s;
    }
  }
  EXPECT_EQ(mismatches, 0u);
}

TEST(MtFirstOutput, FirstNormalEqualsStreamFirstNormal) {
  // The link-budget offset path: RngStream(s).normal() rebuilt from the
  // two head outputs must agree bit for bit, u1 == 0 guard included.
  const auto seeds = first_output_seeds();
  std::size_t mismatches = 0;
  for (std::size_t i = 0; i < seeds.size(); i += 7) {
    const std::uint64_t s = seeds[i];
    const double expected = RngStream(s).normal();
    const double got = RngStream::first_normal(s);
    if (std::bit_cast<std::uint64_t>(expected) !=
        std::bit_cast<std::uint64_t>(got)) {
      if (++mismatches <= 5) ADD_FAILURE() << "seed " << s;
    }
  }
  EXPECT_EQ(mismatches, 0u);
}

// ---- CompactRngStream ----

TEST(CompactRngStream, Deterministic) {
  CompactRngStream a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_DOUBLE_EQ(a.uniform(), b.uniform());
}

TEST(CompactRngStream, TwoArgConstructorMatchesDerivedSeed) {
  CompactRngStream a(derive_seed(10, 20));
  CompactRngStream b(10, 20);
  for (int i = 0; i < 10; ++i) EXPECT_DOUBLE_EQ(a.uniform(), b.uniform());
}

TEST(CompactRngStream, MatchesSplitMix64RawStream) {
  // The raw bit source is exactly the repo's SplitMix64 (the ChannelBank
  // lane kernel advances the same chain in flat arrays).
  CompactRngStream a(9001);
  SplitMix64 b(9001);
  for (int i = 0; i < 64; ++i) EXPECT_EQ(a.next(), b.next());
}

TEST(CompactRngStream, UniformAdvancesCounterByOneGamma) {
  CompactRngStream rng(5);
  const std::uint64_t before = rng.raw_state();
  (void)rng.uniform();
  EXPECT_EQ(rng.raw_state(), before + detail::kSplitMixGamma);
}

// Seed-pinned compact sequences, locked the same way RngStreamPinned locks
// the mt19937_64 realizations: these exact values cannot change without a
// deliberate regeneration (which invalidates every compact-mode benchmark
// recorded so far).

TEST(CompactRngStreamPinned, RawSequence) {
  CompactRngStream rng(12345);
  const std::uint64_t expected[] = {
      2454886589211414944ULL,
      3778200017661327597ULL,
      2205171434679333405ULL,
      3248800117070709450ULL,
  };
  for (std::uint64_t e : expected) EXPECT_EQ(rng.next(), e);
}

TEST(CompactRngStreamPinned, UniformSequence) {
  CompactRngStream rng(12345);
  const double expected[] = {
      0.13307966866142729, 0.20481663336165912, 0.11954258300911547,
      0.17611780724496118, 0.50688021550745599, 0.33703454463939386,
  };
  for (double e : expected) EXPECT_DOUBLE_EQ(rng.uniform(), e);
}

TEST(CompactRngStreamPinned, NormalSequence) {
  CompactRngStream rng(12345);
  const double expected[] = {
      0.56254351858757046, 1.9279936267801183,  0.9228021975298103,
      1.8429870753916224,  -0.60619054616879076, 0.99573799314816358,
  };
  // Box-Muller goes through libm (log/sqrt/sin/cos), so allow a few ulp of
  // cross-platform slack while still pinning the realization.
  for (double e : expected) EXPECT_NEAR(rng.normal(), e, 1e-12);
}

TEST(CompactRngStreamPinned, UniformIntSequence) {
  CompactRngStream rng(12345);
  const int expected[] = {12, 19, 11, 17, 49, 32, 11, 41};
  for (int e : expected) EXPECT_EQ(rng.uniform_int(97), e);
}

TEST(CompactRngStreamPinned, ExponentialSequence) {
  CompactRngStream rng(12345);
  const double expected[] = {
      4.0336146352096369, 3.1712803430570555,
      4.2481652558264136, 3.4732042970373307,
  };
  for (double e : expected) EXPECT_NEAR(rng.exponential(2.0), e, 1e-12);
}

// Seed-pinned ziggurat sequences: the ChannelBank innovations, which the
// world goldens otherwise pin only indirectly. The seeds are chosen so the
// window walks every branch of the sampler — negative draws (the sign
// bit), a wedge accept, a wedge rejection that draws a fresh candidate,
// and a tail draw (|x| > r = 3.4426) — and the final counter pins how many
// engine draws each branch consumed. Compared exactly: the fast path is
// integer-to-double times a table entry, and only the accept *decision*
// of the wedge and the tail value go through libm (exp/log).

TEST(SplitMix64Pinned, ZigguratNormalSequence) {
  const auto& zig = detail::ziggurat_tables();
  SplitMix64 rng(1363);
  const double expected[] = {
      0x1.0bdec05b9ea8cp+0,  0x1.ca75785db2581p+0,  -0x1.52d6ecc00e367p+0,
      0x1.57e6678b1cd07p+0,  0x1.4df349c8af6a2p+0,  -0x1.1cf4fa132587ep+1,
      0x1.5835549ae3cfap-2,   // wedge accept
      0x1.c76420f6b1d5ap+1,   // tail
      -0x1.1003b28866228p-1,  // after a wedge rejection
      0x1.a1a93e526fb3ep+0,  -0x1.e3aba4d3d28fp+0,  -0x1.3a783e74fca8dp-2,
  };
  for (double e : expected) EXPECT_EQ(rng.normal(zig), e);
  EXPECT_EQ(rng.raw_state(), 13699396756335704802ULL);
}

TEST(SplitMix64Pinned, NormalPairSequence) {
  // normal_pair mixes both candidates before either is resolved, so a
  // slow-path `a` draws its extra uniforms *after* b's candidate — an
  // order this pins along with the values.
  const auto& zig = detail::ziggurat_tables();
  SplitMix64 rng(20657);
  const double expected[][2] = {
      {-0x1.289ae5abb4ec2p-6, -0x1.93ad9bc433cc4p+1},  // wedge accept
      {-0x1.65a93ef40826bp-5, -0x1.06bf32a9c3fe2p+1},
      {-0x1.6fb95eace26f8p-2, 0x1.642a9ed1ee634p+0},
      {-0x1.e4d430ceb0b1p-7, -0x1.fb338b3f55809p+0},  // wedge rejection
      {0x1.d97437a7b8aa4p+1, 0x1.264b5ecb763c2p-4},   // tail in a
      {-0x1.fe6e76cc843e7p-1, 0x1.946de9c642c87p-1},
  };
  for (const auto& e : expected) {
    double a = 0.0, b = 0.0;
    rng.normal_pair(zig, a, b);
    EXPECT_EQ(a, e[0]);
    EXPECT_EQ(b, e[1]);
  }
  EXPECT_EQ(rng.raw_state(), 2298681937012525611ULL);
}

// ---- Distribution equivalence: CompactRngStream vs RngStream ----
// Both generators run the *same* distribution algorithms (rng.cpp
// instantiates one template layer for both); only the raw bit source
// differs. Moments at fixed N must therefore agree within sampling error
// — computed on both streams and compared to each other as well as to the
// analytic values.

struct Moments {
  double mean = 0.0;
  double var = 0.0;
};

template <typename Rng, typename Draw>
Moments moments_of(Rng& rng, int n, Draw draw) {
  double sum = 0.0, sum2 = 0.0;
  for (int i = 0; i < n; ++i) {
    const double x = draw(rng);
    sum += x;
    sum2 += x * x;
  }
  const double mean = sum / n;
  return {mean, sum2 / n - mean * mean};
}

TEST(CompactVsMt, UniformMoments) {
  constexpr int kN = 400000;
  RngStream mt(101);
  CompactRngStream compact(101);
  const auto draw = [](auto& r) { return r.uniform(); };
  const Moments a = moments_of(mt, kN, draw);
  const Moments b = moments_of(compact, kN, draw);
  EXPECT_NEAR(a.mean, 0.5, 0.002);
  EXPECT_NEAR(b.mean, 0.5, 0.002);
  EXPECT_NEAR(a.var, 1.0 / 12.0, 0.001);
  EXPECT_NEAR(b.var, 1.0 / 12.0, 0.001);
  EXPECT_NEAR(a.mean, b.mean, 0.004);
}

TEST(CompactVsMt, ExponentialMoments) {
  constexpr int kN = 400000;
  RngStream mt(103);
  CompactRngStream compact(103);
  const auto draw = [](auto& r) { return r.exponential(1.35); };
  const Moments a = moments_of(mt, kN, draw);
  const Moments b = moments_of(compact, kN, draw);
  EXPECT_NEAR(a.mean, 1.35, 0.01);
  EXPECT_NEAR(b.mean, 1.35, 0.01);
  EXPECT_NEAR(a.var, 1.35 * 1.35, 0.05);
  EXPECT_NEAR(b.var, 1.35 * 1.35, 0.05);
}

TEST(CompactVsMt, NormalMomentsAndTails) {
  constexpr int kN = 1000000;
  RngStream mt(107);
  CompactRngStream compact(107);
  const auto tails = [](auto& rng) {
    double sum = 0.0, sum2 = 0.0;
    int beyond_2 = 0;
    for (int i = 0; i < kN; ++i) {
      const double x = rng.normal();
      sum += x;
      sum2 += x * x;
      if (std::fabs(x) > 2.0) ++beyond_2;
    }
    return std::tuple{sum / kN, sum2 / kN, beyond_2 / static_cast<double>(kN)};
  };
  const auto [m_mean, m_m2, m_tail] = tails(mt);
  const auto [c_mean, c_m2, c_tail] = tails(compact);
  EXPECT_NEAR(m_mean, 0.0, 0.005);
  EXPECT_NEAR(c_mean, 0.0, 0.005);
  EXPECT_NEAR(m_m2, 1.0, 0.01);
  EXPECT_NEAR(c_m2, 1.0, 0.01);
  EXPECT_NEAR(m_tail, 0.0455, 0.002);
  EXPECT_NEAR(c_tail, 0.0455, 0.002);
}

TEST(CompactVsMt, BernoulliRate) {
  constexpr int kN = 200000;
  RngStream mt(113);
  CompactRngStream compact(113);
  int a = 0, b = 0;
  for (int i = 0; i < kN; ++i) {
    a += mt.bernoulli(0.3);
    b += compact.bernoulli(0.3);
  }
  EXPECT_NEAR(a / static_cast<double>(kN), 0.3, 0.005);
  EXPECT_NEAR(b / static_cast<double>(kN), 0.3, 0.005);
}

TEST(CompactVsMt, UniformIntMeanAndCoverage) {
  constexpr int kN = 200000;
  RngStream mt(127);
  CompactRngStream compact(127);
  const auto stats = [](auto& rng) {
    double sum = 0.0;
    int lo = 0;
    for (int i = 0; i < kN; ++i) {
      const int v = rng.uniform_int(1000);
      sum += v;
      if (v < 100) ++lo;
    }
    return std::pair{sum / kN, lo / static_cast<double>(kN)};
  };
  const auto [m_mean, m_lo] = stats(mt);
  const auto [c_mean, c_lo] = stats(compact);
  EXPECT_NEAR(m_mean, 499.5, 2.5);
  EXPECT_NEAR(c_mean, 499.5, 2.5);
  EXPECT_NEAR(m_lo, 0.1, 0.005);
  EXPECT_NEAR(c_lo, 0.1, 0.005);
}

TEST(CompactRngStream, DomainErrorsMatchRngStream) {
  CompactRngStream rng(7);
  EXPECT_THROW(rng.uniform_int(0), std::domain_error);
  EXPECT_THROW(rng.exponential(0.0), std::domain_error);
  EXPECT_FALSE(rng.bernoulli(0.0));
  EXPECT_TRUE(rng.bernoulli(1.0));
}

// ---- TrafficRng: the per-user stream-kind dispatcher ----

TEST(TrafficRng, MtKindReproducesRngStreamBitForBit) {
  TrafficRng t(RngKind::kMt, 42, 7);
  RngStream ref(42, 7);
  EXPECT_EQ(t.kind(), RngKind::kMt);
  for (int i = 0; i < 16; ++i) EXPECT_DOUBLE_EQ(t.uniform(), ref.uniform());
  EXPECT_EQ(t.uniform_int(97), ref.uniform_int(97));
  EXPECT_NEAR(t.normal(), ref.normal(), 0.0);
  EXPECT_NEAR(t.exponential(4.2), ref.exponential(4.2), 0.0);
  EXPECT_NEAR(t.exponential(2.0), ref.exponential(2.0), 0.0);
}

TEST(TrafficRng, CompactKindReproducesCompactStreamBitForBit) {
  TrafficRng t(RngKind::kCompact, 42, 7);
  CompactRngStream ref(42, 7);
  EXPECT_EQ(t.kind(), RngKind::kCompact);
  for (int i = 0; i < 16; ++i) EXPECT_DOUBLE_EQ(t.uniform(), ref.uniform());
  EXPECT_EQ(t.uniform_int(97), ref.uniform_int(97));
  EXPECT_NEAR(t.normal(), ref.normal(), 0.0);
  EXPECT_NEAR(t.exponential(4.2), ref.exponential(4.2), 0.0);
}

TEST(TrafficRng, ImplicitConversionFromStreams) {
  // The historical call shape — passing an RngStream by value — must keep
  // compiling and draw the same sequence.
  TrafficRng from_mt = RngStream(555);
  RngStream mt_ref(555);
  EXPECT_EQ(from_mt.kind(), RngKind::kMt);
  for (int i = 0; i < 8; ++i) {
    EXPECT_DOUBLE_EQ(from_mt.uniform(), mt_ref.uniform());
  }

  TrafficRng from_compact = CompactRngStream(555);
  CompactRngStream c_ref(555);
  EXPECT_EQ(from_compact.kind(), RngKind::kCompact);
  for (int i = 0; i < 8; ++i) {
    EXPECT_DOUBLE_EQ(from_compact.uniform(), c_ref.uniform());
  }
}

TEST(TrafficRng, CompactFootprintStaysSmall) {
  // The entire point: a compact-mode TrafficRng is a counter + spare +
  // flag + an (empty) mt pointer — two orders of magnitude below the
  // ~2.5 KB mt19937_64 state it replaces.
  static_assert(sizeof(CompactRngStream) <= 24);
  static_assert(sizeof(TrafficRng) <= 40);
  EXPECT_GE(sizeof(RngStream), 2500u);
}

}  // namespace
}  // namespace charisma::common
