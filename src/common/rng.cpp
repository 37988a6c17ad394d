#include "common/rng.hpp"

#include <cmath>
#include <numbers>
#include <stdexcept>

namespace charisma::common {

namespace {

// Adapts the mt19937_64 engine to the shared distribution templates'
// Source concept (next() -> uint64).
struct Mt19937Source {
  std::mt19937_64& engine;
  std::uint64_t next() { return engine(); }
};

// Replays a fixed run of raw draws (RngStream::first_normal's two engine
// outputs) through the same concept. The templates take their source by
// value, so the cursor is held by reference, like the engine above.
struct DrawListSource {
  const std::uint64_t*& cursor;
  std::uint64_t next() { return *cursor++; }
};

// Adapts CompactRngStream's splitmix64 counter to the same concept. The
// stream object itself already satisfies it, but taking the raw state by
// reference keeps the adapter symmetric with Mt19937Source and avoids
// aliasing the partially-updated spare fields during a draw.
struct SplitMixCounterSource {
  std::uint64_t& state;
  std::uint64_t next() {
    return detail::splitmix64_mix(state += detail::kSplitMixGamma);
  }
};

// ---- Distribution algorithms, shared by RngStream and CompactRngStream.
// Templated over the raw bit source so both generators run the *same*
// algorithm with the same draw pattern: the mt instantiation reproduces
// the historical RngStream sequences bit for bit (Mt19937Source::next()
// is exactly what the member functions used to call), and the compact
// instantiation inherits every numerical property for free.

// The first N (<= 156) outputs of std::mt19937_64(seed), per the
// standard's definition of the engine ([rand.eng.mt]: w 64, n 312, m 156,
// r 31, a 0xB5026F5AA96619E9, u 29, d 0x5555555555555555, s 17,
// b 0x71D67FFFEDA60000, t 37, c 0xFFF7EEE000000000, l 43, f
// 6364136223846793005). The first twist rewrites word k from x[k],
// x[k+1] and x[k+156], all still seed-recurrence values for k < 156, so
// the recurrence need only run to x[155 + N].
template <std::size_t N>
std::array<std::uint64_t, N> mt19937_64_head(std::uint64_t seed) {
  static_assert(N >= 1 && N <= 156);
  constexpr std::size_t kShift = 156;
  constexpr std::uint64_t kLowerMask = (std::uint64_t{1} << 31) - 1;
  constexpr std::uint64_t kUpperMask = ~kLowerMask;
  std::uint64_t low[N + 1];  // x[0 .. N]
  std::uint64_t high[N];     // x[156 .. 155 + N]
  std::uint64_t x = seed;
  low[0] = x;
  for (std::uint64_t i = 1; i < kShift + N; ++i) {
    x = 6364136223846793005ULL * (x ^ (x >> 62)) + i;
    if (i <= N) low[i] = x;
    if (i >= kShift) high[i - kShift] = x;
  }
  std::array<std::uint64_t, N> out;
  for (std::size_t k = 0; k < N; ++k) {
    const std::uint64_t y = (low[k] & kUpperMask) | (low[k + 1] & kLowerMask);
    std::uint64_t z =
        high[k] ^ (y >> 1) ^ ((y & 1) != 0 ? 0xB5026F5AA96619E9ULL : 0);
    z ^= (z >> 29) & 0x5555555555555555ULL;
    z ^= (z << 17) & 0x71D67FFFEDA60000ULL;
    z ^= (z << 37) & 0xFFF7EEE000000000ULL;
    z ^= z >> 43;
    out[k] = z;
  }
  return out;
}

template <typename Source>
double uniform_from(Source src) {
  // 53-bit mantissa-exact uniform in [0, 1).
  return static_cast<double>(src.next() >> 11) * 0x1.0p-53;
}

template <typename Source>
int uniform_int_from(Source src, int n) {
  if (n <= 0) throw std::domain_error("uniform_int: n must be positive");
  // Lemire's multiply-shift: map a 64-bit draw onto [0, n) via the high
  // word of a 128-bit product, rejecting the sliver that would bias the
  // result. One multiply on the accept path; rejection probability < n/2^64.
  const auto range = static_cast<std::uint64_t>(n);
  unsigned __int128 product =
      static_cast<unsigned __int128>(src.next()) * range;
  auto low = static_cast<std::uint64_t>(product);
  if (low < range) {
    const std::uint64_t threshold = (0ULL - range) % range;
    while (low < threshold) {
      product = static_cast<unsigned __int128>(src.next()) * range;
      low = static_cast<std::uint64_t>(product);
    }
  }
  return static_cast<int>(static_cast<std::uint64_t>(product >> 64));
}

template <typename Source>
bool bernoulli_from(Source src, double p) {
  if (p <= 0.0) return false;
  if (p >= 1.0) return true;
  return uniform_from(src) < p;
}

template <typename Source>
double exponential_from(Source src, double mean) {
  if (mean <= 0.0) throw std::domain_error("exponential: mean must be positive");
  double u = uniform_from(src);
  // Guard the log against u == 0.
  if (u <= 0.0) u = 0x1.0p-53;
  return -mean * std::log(u);
}

template <typename Source>
double normal_from(Source src, double& spare, bool& has_spare) {
  if (has_spare) {
    has_spare = false;
    return spare;
  }
  // Box–Muller: exactly two uniforms per pair of variates, so the draw
  // count per call is deterministic (unlike polar rejection) and the spare
  // costs nothing to cache.
  double u1 = uniform_from(src);
  if (u1 <= 0.0) u1 = 0x1.0p-53;
  const double radius = std::sqrt(-2.0 * std::log(u1));
  const double theta = 2.0 * std::numbers::pi * uniform_from(src);
  spare = radius * std::sin(theta);
  has_spare = true;
  return radius * std::cos(theta);
}

detail::ZigguratTables build_ziggurat_tables() {
  // Marsaglia & Tsang 2000, "The ziggurat method for generating random
  // variables": 128 rectangular layers of equal area vn under the standard
  // normal density, tail split at r = 3.4426..., scaled for 53-bit draws.
  detail::ZigguratTables t;
  constexpr double m = 9007199254740992.0;  // 2^53
  constexpr double vn = 9.91256303526217e-3;
  double dn = 3.442619855899;
  double tn = dn;
  const double q = vn / std::exp(-0.5 * dn * dn);
  t.k[0] = static_cast<std::uint64_t>((dn / q) * m);
  t.k[1] = 0;
  t.w[0] = q / m;
  t.w[127] = dn / m;
  t.f[0] = 1.0;
  t.f[127] = std::exp(-0.5 * dn * dn);
  for (int i = 126; i >= 1; --i) {
    dn = std::sqrt(-2.0 * std::log(vn / dn + std::exp(-0.5 * dn * dn)));
    t.k[i + 1] = static_cast<std::uint64_t>((dn / tn) * m);
    tn = dn;
    t.f[i] = std::exp(-0.5 * dn * dn);
    t.w[i] = dn / m;
  }
  return t;
}

}  // namespace

namespace detail {
const ZigguratTables& ziggurat_tables() {
  static const ZigguratTables tables = build_ziggurat_tables();
  return tables;
}
}  // namespace detail

std::uint64_t derive_seed(std::uint64_t root, std::uint64_t stream) {
  // splitmix64 finalizer over a mixed input; distinct (root, stream) pairs
  // map to well-decorrelated outputs.
  std::uint64_t z = root + 0x9E3779B97F4A7C15ULL * (stream + 1);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

std::uint64_t mt19937_64_first(std::uint64_t seed) {
  return mt19937_64_head<1>(seed)[0];
}

std::array<std::uint64_t, 2> mt19937_64_first_two(std::uint64_t seed) {
  return mt19937_64_head<2>(seed);
}

// ---- RngStream (mt19937_64-backed) ----

double RngStream::first_normal(std::uint64_t seed) {
  const auto draws = mt19937_64_first_two(seed);
  const std::uint64_t* cursor = draws.data();
  double spare = 0.0;
  bool has_spare = false;
  return normal_from(DrawListSource{cursor}, spare, has_spare);
}

double RngStream::uniform() { return uniform_from(Mt19937Source{engine_}); }

double RngStream::uniform(double lo, double hi) {
  return lo + (hi - lo) * uniform();
}

int RngStream::uniform_int(int n) {
  return uniform_int_from(Mt19937Source{engine_}, n);
}

bool RngStream::bernoulli(double p) {
  return bernoulli_from(Mt19937Source{engine_}, p);
}

double RngStream::exponential(double mean) {
  return exponential_from(Mt19937Source{engine_}, mean);
}

double RngStream::normal() {
  return normal_from(Mt19937Source{engine_}, spare_normal_, has_spare_normal_);
}

double RngStream::normal(double mean, double stddev) {
  return mean + stddev * normal();
}

// ---- CompactRngStream (splitmix64-counter-backed) ----

double CompactRngStream::uniform() {
  return uniform_from(SplitMixCounterSource{state_});
}

double CompactRngStream::uniform(double lo, double hi) {
  return lo + (hi - lo) * uniform();
}

int CompactRngStream::uniform_int(int n) {
  return uniform_int_from(SplitMixCounterSource{state_}, n);
}

bool CompactRngStream::bernoulli(double p) {
  return bernoulli_from(SplitMixCounterSource{state_}, p);
}

double CompactRngStream::exponential(double mean) {
  return exponential_from(SplitMixCounterSource{state_}, mean);
}

double CompactRngStream::normal() {
  return normal_from(SplitMixCounterSource{state_}, spare_normal_,
                     has_spare_normal_);
}

double CompactRngStream::normal(double mean, double stddev) {
  return mean + stddev * normal();
}

}  // namespace charisma::common
