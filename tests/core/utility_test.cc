#include "core/utility.h"

#include <gtest/gtest.h>

#include "common/math_util.h"
#include "common/random.h"
#include "core/running_example.h"
#include "support/oracles.h"

namespace crowdfusion::core {
namespace {

JointDistribution RandomJoint(int n, uint64_t seed) {
  common::Rng rng(seed);
  std::vector<double> dense(1ULL << n);
  for (double& p : dense) p = rng.NextDouble() + 1e-3;
  common::Normalize(dense);
  auto joint = JointDistribution::FromDense(n, dense);
  EXPECT_TRUE(joint.ok());
  return std::move(joint).value();
}

CrowdModel MakeCrowd(double pc) {
  auto crowd = CrowdModel::Create(pc);
  EXPECT_TRUE(crowd.ok());
  return std::move(crowd).value();
}

TEST(UtilityTest, QualityIsNegativeEntropy) {
  const JointDistribution joint = RunningExample::Joint();
  EXPECT_DOUBLE_EQ(QualityBits(joint), -joint.EntropyBits());
  auto point = PointMass(3, 5);
  ASSERT_TRUE(point.ok());
  EXPECT_EQ(QualityBits(*point), 0.0);  // certainty = maximal quality
}

TEST(UtilityTest, ExpectedQualityGainFormula) {
  // ΔQ = H(T) - k * H(Crowd).
  const JointDistribution joint = RunningExample::Joint();
  const CrowdModel crowd = MakeCrowd(0.8);
  const std::vector<int> tasks = {0, 3};
  const double expected = TaskEntropyBits(joint, tasks, crowd) -
                          2.0 * crowd.EntropyBits();
  EXPECT_NEAR(ExpectedQualityGain(joint, tasks, crowd), expected, 1e-12);
}

TEST(UtilityTest, GainPositiveWhileUncertaintyRemains) {
  // Theorem 2: utility improves whenever an uncertain fact can be asked.
  const JointDistribution joint = RunningExample::Joint();
  const CrowdModel crowd = MakeCrowd(0.8);
  const std::vector<int> empty;
  for (int f = 0; f < 4; ++f) {
    EXPECT_GT(MarginalGain(joint, empty, f, crowd), 0.0);
  }
}

TEST(UtilityTest, GainZeroForCertainFactWithPerfectCrowd) {
  // A fact with marginal 1 asked via a perfect crowd adds no entropy.
  auto joint = JointDistribution::FromEntries(2, {{1, 0.5}, {3, 0.5}});
  ASSERT_TRUE(joint.ok());  // fact 0 certainly true, fact 1 uncertain
  const CrowdModel perfect = MakeCrowd(1.0);
  const std::vector<int> empty;
  EXPECT_NEAR(MarginalGain(*joint, empty, 0, perfect), 0.0, 1e-12);
  EXPECT_GT(MarginalGain(*joint, empty, 1, perfect), 0.9);
}

class SubmodularityTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(SubmodularityTest, MarginalGainsDiminish) {
  // ρ_j(T) >= ρ_j(T') for T ⊆ T' — the property Algorithm 1's (1 - 1/e)
  // guarantee rests on.
  const JointDistribution joint = RandomJoint(5, GetParam());
  const CrowdModel crowd = MakeCrowd(0.75);
  const std::vector<int> small = {0};
  const std::vector<int> large = {0, 1, 2};
  for (int candidate : {3, 4}) {
    EXPECT_GE(MarginalGain(joint, small, candidate, crowd),
              MarginalGain(joint, large, candidate, crowd) - 1e-9)
        << "candidate " << candidate << " seed " << GetParam();
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SubmodularityTest,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8, 9, 10));

TEST(QueryUtilityTest, FoiTableIsADistribution) {
  const JointDistribution joint = RunningExample::Joint();
  const CrowdModel crowd = MakeCrowd(0.8);
  const std::vector<int> foi = {1, 2};
  const std::vector<int> tasks = {0, 3};
  auto table = FoiAnswerJointTable(joint, foi, tasks, crowd);
  ASSERT_TRUE(table.ok());
  EXPECT_EQ(table->size(), 16u);
  EXPECT_NEAR(common::Sum(*table), 1.0, 1e-9);
}

TEST(QueryUtilityTest, EmptyTasksGiveNegativeFoiEntropy) {
  // Q(I|∅) = -H(I).
  const JointDistribution joint = RunningExample::Joint();
  const CrowdModel crowd = MakeCrowd(0.8);
  const std::vector<int> foi = {0, 1};
  const std::vector<int> none;
  auto q = QueryBasedUtility(joint, foi, none, crowd);
  ASSERT_TRUE(q.ok());
  const double h_foi = common::Entropy(joint.MarginalizeOnto(foi));
  EXPECT_NEAR(q.value(), -h_foi, 1e-9);
}

TEST(QueryUtilityTest, UtilityMonotoneInTasks) {
  // Conditioning on more answers cannot increase H(I | Ans).
  const JointDistribution joint = RunningExample::Joint();
  const CrowdModel crowd = MakeCrowd(0.8);
  const std::vector<int> foi = {1};
  double previous = -1e300;
  std::vector<int> tasks;
  for (int t : {0, 2, 3}) {
    tasks.push_back(t);
    auto q = QueryBasedUtility(joint, foi, tasks, crowd);
    ASSERT_TRUE(q.ok());
    EXPECT_GE(q.value(), previous - 1e-9);
    previous = q.value();
  }
}

TEST(QueryUtilityTest, AskingFoiDirectlyWithPerfectCrowdMaximizes) {
  // With Pc = 1, asking I itself removes all FOI uncertainty: Q -> 0.
  const JointDistribution joint = RunningExample::Joint();
  const CrowdModel perfect = MakeCrowd(1.0);
  const std::vector<int> foi = {0, 1};
  auto q = QueryBasedUtility(joint, foi, foi, perfect);
  ASSERT_TRUE(q.ok());
  EXPECT_NEAR(q.value(), 0.0, 1e-9);
}

TEST(QueryUtilityTest, CorrelatedNonFoiTaskHelps) {
  // Two perfectly correlated facts: asking the other one informs the FOI.
  auto joint = JointDistribution::FromEntries(2, {{0, 0.5}, {3, 0.5}});
  ASSERT_TRUE(joint.ok());
  const CrowdModel crowd = MakeCrowd(0.9);
  const std::vector<int> foi = {0};
  const std::vector<int> other = {1};
  const std::vector<int> none;
  auto baseline = QueryBasedUtility(*joint, foi, none, crowd);
  auto informed = QueryBasedUtility(*joint, foi, other, crowd);
  ASSERT_TRUE(baseline.ok());
  ASSERT_TRUE(informed.ok());
  EXPECT_GT(informed.value(), baseline.value() + 0.3);
}

TEST(QueryUtilityTest, ValidationErrors) {
  const JointDistribution joint = RunningExample::Joint();
  const CrowdModel crowd = MakeCrowd(0.8);
  const std::vector<int> bad_foi = {7};
  const std::vector<int> tasks = {0};
  EXPECT_FALSE(FoiAnswerJointTable(joint, bad_foi, tasks, crowd).ok());
  const std::vector<int> foi = {0};
  const std::vector<int> bad_tasks = {-1};
  EXPECT_FALSE(FoiAnswerJointTable(joint, foi, bad_tasks, crowd).ok());
}

}  // namespace
}  // namespace crowdfusion::core
