#include "common/math_util.h"

#include <cmath>
#include <limits>

#include <gtest/gtest.h>

#include "support/oracles.h"

namespace crowdfusion::common {
namespace {

TEST(MathUtilTest, XLog2XConvention) {
  EXPECT_EQ(XLog2X(0.0), 0.0);
  EXPECT_DOUBLE_EQ(XLog2X(1.0), 0.0);
  EXPECT_DOUBLE_EQ(XLog2X(0.5), -0.5);
  EXPECT_DOUBLE_EQ(XLog2X(2.0), 2.0);
}

TEST(MathUtilTest, BinaryEntropyEndpointsAndPeak) {
  EXPECT_EQ(BinaryEntropy(0.0), 0.0);
  EXPECT_EQ(BinaryEntropy(1.0), 0.0);
  EXPECT_DOUBLE_EQ(BinaryEntropy(0.5), 1.0);
  // Symmetry.
  EXPECT_DOUBLE_EQ(BinaryEntropy(0.2), BinaryEntropy(0.8));
}

TEST(MathUtilTest, BinaryEntropyKnownValue) {
  // h(0.8) = 0.721928...
  EXPECT_NEAR(BinaryEntropy(0.8), 0.7219280948873623, 1e-12);
}

TEST(MathUtilTest, EntropyUniform) {
  const std::vector<double> uniform(8, 1.0 / 8);
  EXPECT_NEAR(Entropy(uniform), 3.0, 1e-12);
}

TEST(MathUtilTest, EntropyPointMassIsZero) {
  const std::vector<double> point = {0.0, 1.0, 0.0};
  EXPECT_EQ(Entropy(point), 0.0);
}

TEST(MathUtilTest, NormalizeScalesToOne) {
  std::vector<double> v = {1.0, 3.0};
  const double total = Normalize(v);
  EXPECT_DOUBLE_EQ(total, 4.0);
  EXPECT_DOUBLE_EQ(v[0], 0.25);
  EXPECT_DOUBLE_EQ(v[1], 0.75);
}

TEST(MathUtilTest, NormalizeAllZerosUntouched) {
  std::vector<double> v = {0.0, 0.0};
  EXPECT_EQ(Normalize(v), 0.0);
  EXPECT_EQ(v[0], 0.0);
}

TEST(MathUtilTest, BinomialCoefficients) {
  EXPECT_EQ(BinomialCoefficient(0, 0), 1u);
  EXPECT_EQ(BinomialCoefficient(5, 0), 1u);
  EXPECT_EQ(BinomialCoefficient(5, 5), 1u);
  EXPECT_EQ(BinomialCoefficient(5, 2), 10u);
  EXPECT_EQ(BinomialCoefficient(5, 6), 0u);
  EXPECT_EQ(BinomialCoefficient(40, 20), 137846528820ULL);
}

TEST(MathUtilTest, ClampAndNear) {
  EXPECT_EQ(Clamp(5.0, 0.0, 1.0), 1.0);
  EXPECT_EQ(Clamp(-5.0, 0.0, 1.0), 0.0);
  EXPECT_EQ(Clamp(0.5, 0.0, 1.0), 0.5);
  EXPECT_TRUE(Near(1.0, 1.0 + 1e-12));
  EXPECT_FALSE(Near(1.0, 1.1));
}

class EntropyBoundTest : public ::testing::TestWithParam<int> {};

TEST_P(EntropyBoundTest, EntropyBoundedByLogSupport) {
  const int n = GetParam();
  // A deterministic "random-ish" distribution.
  std::vector<double> probs(static_cast<size_t>(n));
  for (int i = 0; i < n; ++i) {
    probs[static_cast<size_t>(i)] = 1.0 + std::sin(i * 1.7) * 0.9;
  }
  Normalize(probs);
  const double h = Entropy(probs);
  EXPECT_GE(h, 0.0);
  EXPECT_LE(h, std::log2(static_cast<double>(n)) + 1e-9);
}

INSTANTIATE_TEST_SUITE_P(Sizes, EntropyBoundTest,
                         ::testing::Values(1, 2, 3, 4, 8, 17, 64, 255));

}  // namespace
}  // namespace crowdfusion::common
