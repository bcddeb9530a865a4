// Deterministic random number generation.
//
// Every stochastic component in GNNavigator (graph generators, samplers,
// weight init, dropout, the DSE explorer) draws from a `gnav::Rng` that is
// seeded explicitly, so whole experiments replay bit-identically. The
// engine is xoshiro256**, seeded through splitmix64 as its authors
// recommend; it is much faster than std::mt19937_64 and has no measurable
// bias for our use cases.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

namespace gnav {

/// Counter-free xoshiro256** PRNG with convenience sampling helpers.
class Rng {
 public:
  explicit Rng(std::uint64_t seed = 0x9E3779B97F4A7C15ULL);

  /// Raw 64 random bits.
  std::uint64_t next_u64();

  /// Fills `out` with the next out.size() next_u64() values, in order,
  /// and leaves the state where that many next_u64() calls would: the
  /// same stream, drawn in bulk. The loop steps a local copy of the
  /// state, which can stay in registers because a store through `out`
  /// cannot alias it (tensor::dropout's AVX2 path draws its blocks here).
  void fill_u64(std::span<std::uint64_t> out);

  /// Uniform double in [0, 1).
  double uniform();

  /// Uniform double in [lo, hi).
  double uniform(double lo, double hi);

  /// Uniform integer in [0, n). Requires n > 0.
  std::uint64_t uniform_index(std::uint64_t n);

  /// Uniform integer in [lo, hi] inclusive. Requires lo <= hi.
  std::int64_t uniform_int(std::int64_t lo, std::int64_t hi);

  /// Standard normal via Box–Muller (cached spare value).
  double normal();

  /// Normal with the given mean / stddev.
  double normal(double mean, double stddev);

  /// Bernoulli trial with success probability p.
  bool bernoulli(double p);

  /// Sample `k` distinct indices from [0, n) (Floyd's algorithm).
  /// If k >= n returns the full range [0, n).
  std::vector<std::int64_t> sample_without_replacement(std::int64_t n,
                                                       std::int64_t k);

  /// Fisher–Yates shuffle of an index vector.
  template <typename T>
  void shuffle(std::vector<T>& v) {
    for (std::size_t i = v.size(); i > 1; --i) {
      std::size_t j = static_cast<std::size_t>(uniform_index(i));
      std::swap(v[i - 1], v[j]);
    }
  }

  /// Draw from a discrete distribution given cumulative weights
  /// (strictly increasing, last element is the total mass).
  std::size_t sample_cumulative(const std::vector<double>& cumulative);

 private:
  std::uint64_t s_[4];
  double spare_normal_ = 0.0;
  bool has_spare_ = false;
};

}  // namespace gnav
