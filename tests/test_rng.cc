#include "common/rng.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <limits>
#include <set>

namespace tvmbo {
namespace {

TEST(Rng, DeterministicForSameSeed) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a(), b());
}

TEST(Rng, DifferentSeedsDiverge) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    if (a() == b()) ++same;
  }
  EXPECT_EQ(same, 0);
}

TEST(Rng, UniformInUnitInterval) {
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    const double u = rng.uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(Rng, UniformMeanIsHalf) {
  Rng rng(11);
  double sum = 0.0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) sum += rng.uniform();
  EXPECT_NEAR(sum / n, 0.5, 0.01);
}

TEST(Rng, UniformIntInRangeAndCoversAllValues) {
  Rng rng(13);
  std::set<std::int64_t> seen;
  for (int i = 0; i < 1000; ++i) {
    const std::int64_t v = rng.uniform_int(7);
    ASSERT_GE(v, 0);
    ASSERT_LT(v, 7);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 7u);
}

TEST(Rng, UniformIntTwoSidedInclusive) {
  Rng rng(17);
  std::set<std::int64_t> seen;
  for (int i = 0; i < 500; ++i) seen.insert(rng.uniform_int(-2, 2));
  EXPECT_EQ(seen.size(), 5u);
  EXPECT_TRUE(seen.contains(-2));
  EXPECT_TRUE(seen.contains(2));
}

TEST(Rng, UniformIntMatchesPlainRejectionSampling) {
  // uniform_int skips computing the rejection limit for draws far below
  // it; the results must equal plain rejection sampling draw for draw,
  // including bounds large enough that draws are rejected.
  for (const std::int64_t n :
       {std::int64_t{1}, std::int64_t{7}, std::int64_t{100},
        std::int64_t{1} << 40, (std::int64_t{3} << 61) + 5,
        std::numeric_limits<std::int64_t>::max()}) {
    Rng rng(42), reference(42);
    const auto bound = static_cast<std::uint64_t>(n);
    const std::uint64_t limit = Rng::max() - Rng::max() % bound;
    for (int i = 0; i < 2000; ++i) {
      std::uint64_t draw;
      do {
        draw = reference();
      } while (draw >= limit);
      ASSERT_EQ(rng.uniform_int(n), static_cast<std::int64_t>(draw % bound))
          << "bound " << n << " draw " << i;
    }
  }
}

TEST(Rng, UniformIntRejectsNonPositiveBound) {
  Rng rng(1);
  EXPECT_THROW(rng.uniform_int(0), CheckError);
}

TEST(Rng, NormalMomentsApproximatelyStandard) {
  Rng rng(19);
  const int n = 200000;
  double sum = 0.0, sum_sq = 0.0;
  for (int i = 0; i < n; ++i) {
    const double x = rng.normal();
    sum += x;
    sum_sq += x * x;
  }
  EXPECT_NEAR(sum / n, 0.0, 0.02);
  EXPECT_NEAR(sum_sq / n, 1.0, 0.03);
}

TEST(Rng, BernoulliFrequencyTracksP) {
  Rng rng(23);
  int hits = 0;
  const int n = 50000;
  for (int i = 0; i < n; ++i) hits += rng.bernoulli(0.3) ? 1 : 0;
  EXPECT_NEAR(static_cast<double>(hits) / n, 0.3, 0.02);
}

TEST(Rng, ShufflePreservesElements) {
  Rng rng(29);
  std::vector<int> values{1, 2, 3, 4, 5, 6, 7, 8};
  std::vector<int> shuffled = values;
  rng.shuffle(shuffled);
  std::sort(shuffled.begin(), shuffled.end());
  EXPECT_EQ(shuffled, values);
}

TEST(Rng, SampleWithoutReplacementDistinct) {
  Rng rng(31);
  const auto sample = rng.sample_without_replacement(100, 30);
  EXPECT_EQ(sample.size(), 30u);
  std::set<std::size_t> unique(sample.begin(), sample.end());
  EXPECT_EQ(unique.size(), 30u);
  for (std::size_t index : sample) EXPECT_LT(index, 100u);
}

TEST(Rng, SampleWholeRangeIsPermutation) {
  Rng rng(37);
  const auto sample = rng.sample_without_replacement(16, 16);
  std::set<std::size_t> unique(sample.begin(), sample.end());
  EXPECT_EQ(unique.size(), 16u);
}

TEST(Rng, SampleTooManyThrows) {
  Rng rng(41);
  EXPECT_THROW(rng.sample_without_replacement(4, 5), CheckError);
}

TEST(Rng, SplitStreamsAreIndependent) {
  Rng parent(43);
  Rng child = parent.split();
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    if (parent() == child()) ++same;
  }
  EXPECT_EQ(same, 0);
}

TEST(Rng, Hash64IsDeterministicAndMixing) {
  EXPECT_EQ(hash64(42), hash64(42));
  EXPECT_NE(hash64(42), hash64(43));
  // Low bits of input should affect high bits of output.
  const std::uint64_t a = hash64(0);
  const std::uint64_t b = hash64(1);
  EXPECT_NE(a >> 32, b >> 32);
}

TEST(Rng, HashCombineOrderMatters) {
  const std::uint64_t ab = hash_combine(hash64(1), 2);
  const std::uint64_t ba = hash_combine(hash64(2), 1);
  EXPECT_NE(ab, ba);
}

}  // namespace
}  // namespace tvmbo
