#include "common/random.h"

#include <algorithm>
#include <cmath>
#include <set>

#include <gtest/gtest.h>

namespace crowdfusion::common {
namespace {

TEST(RngTest, DeterministicForSameSeed) {
  Rng a(123);
  Rng b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.NextUint64(), b.NextUint64());
}

TEST(RngTest, DifferentSeedsDiffer) {
  Rng a(1);
  Rng b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.NextUint64() == b.NextUint64()) ++same;
  }
  EXPECT_LT(same, 2);
}

TEST(RngTest, NextDoubleInUnitInterval) {
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    const double x = rng.NextDouble();
    EXPECT_GE(x, 0.0);
    EXPECT_LT(x, 1.0);
  }
}

TEST(RngTest, NextDoubleMeanIsHalf) {
  Rng rng(11);
  double sum = 0.0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) sum += rng.NextDouble();
  EXPECT_NEAR(sum / n, 0.5, 0.01);
}

TEST(RngTest, NextBoundedStaysInBound) {
  Rng rng(5);
  for (int i = 0; i < 10000; ++i) {
    EXPECT_LT(rng.NextBounded(17), 17u);
  }
}

TEST(RngTest, NextBoundedCoversAllValues) {
  Rng rng(5);
  std::set<uint64_t> seen;
  for (int i = 0; i < 1000; ++i) seen.insert(rng.NextBounded(7));
  EXPECT_EQ(seen.size(), 7u);
}

TEST(RngTest, NextIntInclusiveRange) {
  Rng rng(5);
  std::set<int64_t> seen;
  for (int i = 0; i < 1000; ++i) {
    const int64_t v = rng.NextInt(-2, 2);
    EXPECT_GE(v, -2);
    EXPECT_LE(v, 2);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 5u);
}

TEST(RngTest, BernoulliExtremes) {
  Rng rng(5);
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(rng.NextBernoulli(0.0));
    EXPECT_TRUE(rng.NextBernoulli(1.0));
  }
}

TEST(RngTest, BernoulliFrequencyMatchesP) {
  Rng rng(13);
  int hits = 0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) hits += rng.NextBernoulli(0.3) ? 1 : 0;
  EXPECT_NEAR(static_cast<double>(hits) / n, 0.3, 0.01);
}

TEST(RngTest, GaussianMoments) {
  Rng rng(17);
  double sum = 0.0;
  double sum_sq = 0.0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) {
    const double g = rng.NextGaussian();
    sum += g;
    sum_sq += g * g;
  }
  EXPECT_NEAR(sum / n, 0.0, 0.02);
  EXPECT_NEAR(sum_sq / n, 1.0, 0.03);
}

TEST(RngTest, SampleWithoutReplacementProperties) {
  Rng rng(19);
  for (int trial = 0; trial < 50; ++trial) {
    const std::vector<int> sample = rng.SampleWithoutReplacement(10, 4);
    ASSERT_EQ(sample.size(), 4u);
    EXPECT_TRUE(std::is_sorted(sample.begin(), sample.end()));
    const std::set<int> unique(sample.begin(), sample.end());
    EXPECT_EQ(unique.size(), 4u);
    for (int v : sample) {
      EXPECT_GE(v, 0);
      EXPECT_LT(v, 10);
    }
  }
}

TEST(RngTest, SampleWithoutReplacementFullAndEmpty) {
  Rng rng(19);
  EXPECT_TRUE(rng.SampleWithoutReplacement(5, 0).empty());
  const std::vector<int> all = rng.SampleWithoutReplacement(5, 5);
  EXPECT_EQ(all, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(RngTest, SampleDiscreteRespectsWeights) {
  Rng rng(23);
  std::vector<int> counts(3, 0);
  const int n = 60000;
  for (int i = 0; i < n; ++i) {
    const int idx = rng.SampleDiscrete({1.0, 2.0, 3.0});
    ASSERT_GE(idx, 0);
    ASSERT_LT(idx, 3);
    ++counts[static_cast<size_t>(idx)];
  }
  EXPECT_NEAR(counts[0] / static_cast<double>(n), 1.0 / 6, 0.01);
  EXPECT_NEAR(counts[1] / static_cast<double>(n), 2.0 / 6, 0.01);
  EXPECT_NEAR(counts[2] / static_cast<double>(n), 3.0 / 6, 0.01);
}

TEST(RngTest, SampleDiscreteAllZeroReturnsMinusOne) {
  Rng rng(29);
  EXPECT_EQ(rng.SampleDiscrete({0.0, 0.0}), -1);
  EXPECT_EQ(rng.SampleDiscrete({}), -1);
}

TEST(RngTest, SampleDiscreteSkipsZeroWeights) {
  Rng rng(31);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_EQ(rng.SampleDiscrete({0.0, 1.0, 0.0}), 1);
  }
}

TEST(RngTest, ShufflePreservesElements) {
  Rng rng(37);
  std::vector<int> items = {1, 2, 3, 4, 5, 6, 7};
  std::vector<int> shuffled = items;
  rng.Shuffle(shuffled);
  std::sort(shuffled.begin(), shuffled.end());
  EXPECT_EQ(shuffled, items);
}

}  // namespace
}  // namespace crowdfusion::common
