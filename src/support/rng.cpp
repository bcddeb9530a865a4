#include "support/rng.hpp"

#include <algorithm>
#include <cmath>
#include <iterator>
#include <unordered_set>

#include "support/error.hpp"

namespace gnav {
namespace {

std::uint64_t splitmix64(std::uint64_t& x) {
  x += 0x9E3779B97F4A7C15ULL;
  std::uint64_t z = x;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

std::uint64_t rotl(std::uint64_t x, int k) {
  return (x << k) | (x >> (64 - k));
}

/// One xoshiro256** step: returns the output for state `s` and advances it.
inline std::uint64_t xoshiro_next(std::uint64_t (&s)[4]) {
  const std::uint64_t result = rotl(s[1] * 5, 7) * 9;
  const std::uint64_t t = s[1] << 17;
  s[2] ^= s[0];
  s[3] ^= s[1];
  s[1] ^= s[2];
  s[0] ^= s[3];
  s[2] ^= t;
  s[3] = rotl(s[3], 45);
  return result;
}

}  // namespace

Rng::Rng(std::uint64_t seed) {
  std::uint64_t sm = seed;
  for (auto& s : s_) s = splitmix64(sm);
  // xoshiro must not start from the all-zero state.
  if ((s_[0] | s_[1] | s_[2] | s_[3]) == 0) s_[0] = 1;
}

std::uint64_t Rng::next_u64() { return xoshiro_next(s_); }

void Rng::fill_u64(std::span<std::uint64_t> out) {
  std::uint64_t s[4] = {s_[0], s_[1], s_[2], s_[3]};
  for (std::uint64_t& x : out) x = xoshiro_next(s);
  std::copy(std::begin(s), std::end(s), std::begin(s_));
}

double Rng::uniform() {
  // Use the top 53 bits for a uniform double in [0, 1).
  return static_cast<double>(next_u64() >> 11) * 0x1.0p-53;
}

double Rng::uniform(double lo, double hi) { return lo + (hi - lo) * uniform(); }

std::uint64_t Rng::uniform_index(std::uint64_t n) {
  GNAV_CHECK(n > 0, "uniform_index requires n > 0");
  // Lemire's nearly-divisionless bounded sampling with rejection.
  std::uint64_t x = next_u64();
  __uint128_t m = static_cast<__uint128_t>(x) * n;
  auto l = static_cast<std::uint64_t>(m);
  if (l < n) {
    const std::uint64_t t = (0 - n) % n;
    while (l < t) {
      x = next_u64();
      m = static_cast<__uint128_t>(x) * n;
      l = static_cast<std::uint64_t>(m);
    }
  }
  return static_cast<std::uint64_t>(m >> 64);
}

std::int64_t Rng::uniform_int(std::int64_t lo, std::int64_t hi) {
  GNAV_CHECK(lo <= hi, "uniform_int requires lo <= hi");
  const auto span = static_cast<std::uint64_t>(hi - lo) + 1;
  return lo + static_cast<std::int64_t>(uniform_index(span));
}

double Rng::normal() {
  if (has_spare_) {
    has_spare_ = false;
    return spare_normal_;
  }
  double u1 = 0.0;
  do {
    u1 = uniform();
  } while (u1 <= 1e-300);
  const double u2 = uniform();
  const double mag = std::sqrt(-2.0 * std::log(u1));
  constexpr double kTwoPi = 6.283185307179586;
  spare_normal_ = mag * std::sin(kTwoPi * u2);
  has_spare_ = true;
  return mag * std::cos(kTwoPi * u2);
}

double Rng::normal(double mean, double stddev) {
  return mean + stddev * normal();
}

bool Rng::bernoulli(double p) { return uniform() < p; }

std::vector<std::int64_t> Rng::sample_without_replacement(std::int64_t n,
                                                          std::int64_t k) {
  GNAV_CHECK(n >= 0 && k >= 0, "negative arguments");
  std::vector<std::int64_t> out;
  if (k >= n) {
    out.resize(static_cast<std::size_t>(n));
    for (std::int64_t i = 0; i < n; ++i) out[static_cast<std::size_t>(i)] = i;
    return out;
  }
  // Robert Floyd's sampling algorithm: k iterations, O(k) memory.
  std::unordered_set<std::int64_t> chosen;
  chosen.reserve(static_cast<std::size_t>(k) * 2);
  for (std::int64_t j = n - k; j < n; ++j) {
    const auto t = static_cast<std::int64_t>(
        uniform_index(static_cast<std::uint64_t>(j) + 1));
    if (chosen.contains(t)) {
      chosen.insert(j);
      out.push_back(j);
    } else {
      chosen.insert(t);
      out.push_back(t);
    }
  }
  return out;
}

std::size_t Rng::sample_cumulative(const std::vector<double>& cumulative) {
  GNAV_CHECK(!cumulative.empty(), "empty cumulative weights");
  const double total = cumulative.back();
  // Explicit zero-mass guard (also rejects NaN totals): with every weight
  // zero there is no distribution to draw from; callers that want a
  // uniform fallback should use AliasTable / TwoGroupDraw instead.
  GNAV_CHECK(total > 0.0,
             "sample_cumulative: zero total mass (all weights zero?)");
  const double x = uniform() * total;
  // Binary search for the first cumulative value exceeding x.
  std::size_t lo = 0;
  std::size_t hi = cumulative.size() - 1;
  while (lo < hi) {
    const std::size_t mid = (lo + hi) / 2;
    if (cumulative[mid] > x) {
      hi = mid;
    } else {
      lo = mid + 1;
    }
  }
  return lo;
}

}  // namespace gnav
