// Deterministic pseudo-random number generation.
//
// tvmbo experiments must be reproducible bit-for-bit across runs and
// platforms, so every stochastic component (tuners, surrogates, the
// simulated device's measurement noise) draws from an explicitly seeded
// Rng rather than std::random_device / std::mt19937 defaults.
//
// The generator is xoshiro256** (Blackman & Vigna), seeded through
// splitmix64. It satisfies the C++ UniformRandomBitGenerator concept, so it
// can also drive <random> distributions where convenient.
#pragma once

#include <cstdint>
#include <limits>
#include <span>
#include <vector>

#include "common/logging.h"

namespace tvmbo {

/// splitmix64 step; used for seeding and for stateless hash-noise.
std::uint64_t splitmix64(std::uint64_t& state);

/// Stateless mix of one 64-bit value into a well-distributed 64-bit value.
std::uint64_t hash64(std::uint64_t value);

/// Combines a hash state with another value (boost::hash_combine style,
/// but 64-bit and based on splitmix64 finalization).
std::uint64_t hash_combine(std::uint64_t seed, std::uint64_t value);

class Rng {
 public:
  using result_type = std::uint64_t;

  explicit Rng(std::uint64_t seed = 0x9E3779B97F4A7C15ull);

  static constexpr result_type min() { return 0; }
  static constexpr result_type max() {
    return std::numeric_limits<result_type>::max();
  }

  /// Next raw 64-bit value.
  result_type operator()();

  /// Uniform double in [0, 1).
  double uniform();
  /// Uniform double in [lo, hi).
  double uniform(double lo, double hi);
  /// Uniform integer in [0, n). Requires n > 0.
  std::int64_t uniform_int(std::int64_t n);
  /// Uniform integer in [lo, hi] inclusive. Requires lo <= hi.
  std::int64_t uniform_int(std::int64_t lo, std::int64_t hi);
  /// Standard normal via Box-Muller (cached second value).
  double normal();
  /// Normal with the given mean and standard deviation.
  double normal(double mean, double stddev);
  /// True with probability p.
  bool bernoulli(double p);

  /// Fisher-Yates shuffle.
  template <typename T>
  void shuffle(std::vector<T>& values) {
    shuffle(std::span<T>(values));
  }
  template <typename T>
  void shuffle(std::span<T> values) {
    for (std::size_t i = values.size(); i > 1; --i) {
      std::size_t j = static_cast<std::size_t>(uniform_int(
          static_cast<std::int64_t>(i)));
      std::swap(values[i - 1], values[j]);
    }
  }

  /// k distinct indices drawn uniformly from [0, n) in random order.
  std::vector<std::size_t> sample_without_replacement(std::size_t n,
                                                      std::size_t k);

  /// Derives an independent child generator (for per-thread / per-component
  /// streams) without correlating with this generator's future output.
  Rng split();

 private:
  std::uint64_t state_[4];
  double cached_normal_ = 0.0;
  bool has_cached_normal_ = false;
};

}  // namespace tvmbo
