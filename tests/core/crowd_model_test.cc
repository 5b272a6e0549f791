#include "core/crowd_model.h"

#include <cmath>

#include <gtest/gtest.h>

#include "common/math_util.h"
#include "support/oracles.h"

namespace crowdfusion::core {
namespace {

TEST(CrowdModelTest, RejectsOutOfRangePc) {
  EXPECT_FALSE(CrowdModel::Create(0.49).ok());
  EXPECT_FALSE(CrowdModel::Create(1.01).ok());
  EXPECT_FALSE(CrowdModel::Create(-1.0).ok());
  EXPECT_FALSE(CrowdModel::Create(std::nan("")).ok());
  EXPECT_TRUE(CrowdModel::Create(0.5).ok());
  EXPECT_TRUE(CrowdModel::Create(1.0).ok());
}

TEST(CrowdModelTest, EntropyMatchesEquation1) {
  // H(Crowd) = -Pc log Pc - (1-Pc) log (1-Pc).
  auto crowd = CrowdModel::Create(0.8);
  ASSERT_TRUE(crowd.ok());
  EXPECT_NEAR(crowd->EntropyBits(), 0.7219280948873623, 1e-12);
  EXPECT_NEAR(CrowdModel::Create(0.5)->EntropyBits(), 1.0, 1e-12);
  EXPECT_NEAR(CrowdModel::Create(1.0)->EntropyBits(), 0.0, 1e-12);
}

TEST(CrowdModelTest, AnswerLikelihoodCountsSameAndDiff) {
  auto crowd = CrowdModel::Create(0.8);
  ASSERT_TRUE(crowd.ok());
  // 4 asked facts, truth 0b0000 vs answer 0b0000: all same.
  EXPECT_NEAR(crowd->AnswerLikelihood(0b0000, 0b0000, 4), std::pow(0.8, 4),
              1e-12);
  // one diff: 0.8^3 * 0.2 (the worked example's o1 term: 0.03 * this).
  EXPECT_NEAR(crowd->AnswerLikelihood(0b0001, 0b0000, 4),
              std::pow(0.8, 3) * 0.2, 1e-12);
  // all diff.
  EXPECT_NEAR(crowd->AnswerLikelihood(0b1111, 0b0000, 4), std::pow(0.2, 4),
              1e-12);
}

TEST(CrowdModelTest, AnswerLikelihoodIgnoresBitsBeyondK) {
  auto crowd = CrowdModel::Create(0.9);
  ASSERT_TRUE(crowd.ok());
  EXPECT_DOUBLE_EQ(crowd->AnswerLikelihood(0b100, 0b000, 2),
                   crowd->AnswerLikelihood(0b000, 0b000, 2));
}

TEST(CrowdModelTest, ChannelPreservesMass) {
  auto crowd = CrowdModel::Create(0.7);
  ASSERT_TRUE(crowd.ok());
  std::vector<double> dist = {0.1, 0.2, 0.3, 0.4};
  crowd->PushThroughChannel(dist, 2);
  EXPECT_NEAR(common::Sum(dist), 1.0, 1e-12);
}

TEST(CrowdModelTest, PerfectCrowdChannelIsIdentity) {
  auto crowd = CrowdModel::Create(1.0);
  ASSERT_TRUE(crowd.ok());
  std::vector<double> dist = {0.1, 0.2, 0.3, 0.4};
  const std::vector<double> original = dist;
  crowd->PushThroughChannel(dist, 2);
  EXPECT_EQ(dist, original);
}

TEST(CrowdModelTest, CoinFlipCrowdChannelIsUniform) {
  auto crowd = CrowdModel::Create(0.5);
  ASSERT_TRUE(crowd.ok());
  std::vector<double> dist = {1.0, 0.0, 0.0, 0.0};
  crowd->PushThroughChannel(dist, 2);
  for (double p : dist) EXPECT_NEAR(p, 0.25, 1e-12);
}

TEST(CrowdModelTest, SingleFactChannelMatchesClosedForm) {
  auto crowd = CrowdModel::Create(0.8);
  ASSERT_TRUE(crowd.ok());
  // P(f)=0.63 -> P(ans true) = 0.8*0.63 + 0.2*0.37 = 0.578.
  std::vector<double> dist = {0.37, 0.63};
  crowd->PushThroughChannel(dist, 1);
  EXPECT_NEAR(dist[1], 0.578, 1e-12);
  EXPECT_NEAR(dist[0], 0.422, 1e-12);
}

TEST(CrowdModelTest, ChannelMatchesExplicitLikelihoodSum) {
  auto crowd = CrowdModel::Create(0.75);
  ASSERT_TRUE(crowd.ok());
  std::vector<double> truth = {0.05, 0.15, 0.25, 0.55};
  std::vector<double> pushed = truth;
  crowd->PushThroughChannel(pushed, 2);
  for (uint64_t a = 0; a < 4; ++a) {
    double expected = 0.0;
    for (uint64_t t = 0; t < 4; ++t) {
      expected += truth[t] * crowd->AnswerLikelihood(t, a, 2);
    }
    EXPECT_NEAR(pushed[a], expected, 1e-12);
  }
}

TEST(CrowdModelTest, PartialCoordsChannelLeavesLatentBitsAlone) {
  auto crowd = CrowdModel::Create(0.6);
  ASSERT_TRUE(crowd.ok());
  // Noise only on coordinate 1; coordinate 0 stays deterministic.
  std::vector<double> dist = {1.0, 0.0, 0.0, 0.0};
  crowd->PushThroughChannelOnCoords(dist, 2, 0b10);
  EXPECT_NEAR(dist[0], 0.6, 1e-12);
  EXPECT_NEAR(dist[2], 0.4, 1e-12);
  EXPECT_EQ(dist[1], 0.0);
  EXPECT_EQ(dist[3], 0.0);
}

class ChannelMassTest : public ::testing::TestWithParam<double> {};

TEST_P(ChannelMassTest, MassPreservedForAllPc) {
  auto crowd = CrowdModel::Create(GetParam());
  ASSERT_TRUE(crowd.ok());
  std::vector<double> dist(16, 0.0);
  for (size_t i = 0; i < dist.size(); ++i) {
    dist[i] = static_cast<double>((i * 7 + 3) % 11);
  }
  const double before = common::Sum(dist);
  crowd->PushThroughChannel(dist, 4);
  EXPECT_NEAR(common::Sum(dist), before, 1e-9);
}

INSTANTIATE_TEST_SUITE_P(PcSweep, ChannelMassTest,
                         ::testing::Values(0.5, 0.6, 0.7, 0.8, 0.9, 0.99,
                                           1.0));

}  // namespace
}  // namespace crowdfusion::core
