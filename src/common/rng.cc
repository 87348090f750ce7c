#include "common/rng.h"

#include <cmath>
#include <numbers>

namespace tvmbo {

std::uint64_t splitmix64(std::uint64_t& state) {
  std::uint64_t z = (state += 0x9E3779B97F4A7C15ull);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

std::uint64_t hash64(std::uint64_t value) {
  std::uint64_t state = value;
  return splitmix64(state);
}

std::uint64_t hash_combine(std::uint64_t seed, std::uint64_t value) {
  return hash64(seed ^ (value + 0x9E3779B97F4A7C15ull + (seed << 6) +
                        (seed >> 2)));
}

namespace {
inline std::uint64_t rotl(std::uint64_t x, int k) {
  return (x << k) | (x >> (64 - k));
}
}  // namespace

Rng::Rng(std::uint64_t seed) {
  std::uint64_t sm = seed;
  for (auto& s : state_) s = splitmix64(sm);
}

Rng::result_type Rng::operator()() {
  const std::uint64_t result = rotl(state_[1] * 5, 7) * 9;
  const std::uint64_t t = state_[1] << 17;
  state_[2] ^= state_[0];
  state_[3] ^= state_[1];
  state_[1] ^= state_[2];
  state_[0] ^= state_[3];
  state_[2] ^= t;
  state_[3] = rotl(state_[3], 45);
  return result;
}

double Rng::uniform() {
  // 53 top bits -> double in [0, 1).
  return static_cast<double>((*this)() >> 11) * 0x1.0p-53;
}

double Rng::uniform(double lo, double hi) {
  TVMBO_CHECK_LE(lo, hi) << "invalid uniform range";
  return lo + (hi - lo) * uniform();
}

std::int64_t Rng::uniform_int(std::int64_t n) {
  TVMBO_CHECK_GT(n, 0) << "uniform_int requires positive bound";
  // Rejection sampling to avoid modulo bias. The limit is at least
  // max() - bound + 1, so a draw at or below max() - bound is accepted
  // without computing it (one 64-bit division saved on almost every call).
  const std::uint64_t bound = static_cast<std::uint64_t>(n);
  std::uint64_t draw = (*this)();
  if (draw > max() - bound) {
    const std::uint64_t limit = max() - max() % bound;
    while (draw >= limit) draw = (*this)();
  }
  return static_cast<std::int64_t>(draw % bound);
}

std::int64_t Rng::uniform_int(std::int64_t lo, std::int64_t hi) {
  TVMBO_CHECK_LE(lo, hi) << "invalid uniform_int range";
  return lo + uniform_int(hi - lo + 1);
}

double Rng::normal() {
  if (has_cached_normal_) {
    has_cached_normal_ = false;
    return cached_normal_;
  }
  double u1 = 0.0;
  do {
    u1 = uniform();
  } while (u1 <= 0.0);
  const double u2 = uniform();
  const double radius = std::sqrt(-2.0 * std::log(u1));
  const double angle = 2.0 * std::numbers::pi * u2;
  cached_normal_ = radius * std::sin(angle);
  has_cached_normal_ = true;
  return radius * std::cos(angle);
}

double Rng::normal(double mean, double stddev) {
  return mean + stddev * normal();
}

bool Rng::bernoulli(double p) { return uniform() < p; }

std::vector<std::size_t> Rng::sample_without_replacement(std::size_t n,
                                                         std::size_t k) {
  TVMBO_CHECK_LE(k, n) << "cannot sample " << k << " distinct from " << n;
  std::vector<std::size_t> indices(n);
  for (std::size_t i = 0; i < n; ++i) indices[i] = i;
  // Partial Fisher-Yates: only the first k positions need to be randomized.
  for (std::size_t i = 0; i < k; ++i) {
    std::size_t j = i + static_cast<std::size_t>(uniform_int(
                            static_cast<std::int64_t>(n - i)));
    std::swap(indices[i], indices[j]);
  }
  indices.resize(k);
  return indices;
}

Rng Rng::split() { return Rng((*this)() ^ 0xA3C59AC2B7F4E01Dull); }

}  // namespace tvmbo
