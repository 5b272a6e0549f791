#include "core/answer_model.h"

#include <cmath>

#include <gtest/gtest.h>

#include "common/math_util.h"
#include "common/random.h"
#include "core/running_example.h"
#include "core/sparse_refiner.h"
#include "support/oracles.h"

namespace crowdfusion::core {
namespace {

JointDistribution RandomJoint(int n, common::Rng& rng) {
  std::vector<double> dense(1ULL << n);
  for (double& p : dense) p = rng.NextDouble() + 1e-3;
  common::Normalize(dense);
  auto joint = JointDistribution::FromDense(n, dense);
  EXPECT_TRUE(joint.ok());
  return std::move(joint).value();
}

TEST(AnswerModelTest, EmptyTaskSetIsTrivial) {
  const JointDistribution joint = RunningExample::Joint();
  const CrowdModel crowd = RunningExample::Crowd();
  const std::vector<int> none;
  const std::vector<double> dist = AnswerDistribution(joint, none, crowd);
  ASSERT_EQ(dist.size(), 1u);
  EXPECT_NEAR(dist[0], 1.0, 1e-12);
  EXPECT_NEAR(AnswerEntropyBits(joint, none, crowd), 0.0, 1e-12);
}

TEST(AnswerModelTest, SingleTaskMatchesClosedForm) {
  const JointDistribution joint = RunningExample::Joint();
  const CrowdModel crowd = RunningExample::Crowd();
  // P(f1) = 0.5 -> answer distribution {0.5, 0.5} -> H = 1 bit; the paper's
  // "entropy of selecting f1 is 1".
  const std::vector<int> t1 = {0};
  const std::vector<double> dist = AnswerDistribution(joint, t1, crowd);
  EXPECT_NEAR(dist[1], 0.5, 1e-12);
  EXPECT_NEAR(AnswerEntropyBits(joint, t1, crowd), 1.0, 1e-12);
}

TEST(AnswerModelTest, BruteForceAgreesWithFastPathOnRunningExample) {
  const JointDistribution joint = RunningExample::Joint();
  const CrowdModel crowd = RunningExample::Crowd();
  for (int a = 0; a < 4; ++a) {
    for (int b = a + 1; b < 4; ++b) {
      const std::vector<int> tasks = {a, b};
      const std::vector<double> fast =
          AnswerDistribution(joint, tasks, crowd);
      const std::vector<double> brute =
          AnswerDistributionBruteForce(joint, tasks, crowd);
      ASSERT_EQ(fast.size(), brute.size());
      for (size_t i = 0; i < fast.size(); ++i) {
        EXPECT_NEAR(fast[i], brute[i], 1e-12);
      }
    }
  }
}

struct PathEquivalenceParam {
  int n;
  int k;
  double pc;
};

class PathEquivalenceTest
    : public ::testing::TestWithParam<PathEquivalenceParam> {};

TEST_P(PathEquivalenceTest, FastBruteAndRefinerAgree) {
  const auto& param = GetParam();
  common::Rng rng(1000 + static_cast<uint64_t>(param.n * 100 + param.k * 10) +
                  static_cast<uint64_t>(param.pc * 100));
  const JointDistribution joint = RandomJoint(param.n, rng);
  auto crowd = CrowdModel::Create(param.pc);
  ASSERT_TRUE(crowd.ok());

  // A deterministic pseudo-random task set.
  std::vector<int> tasks;
  for (int i = 0; i < param.n && static_cast<int>(tasks.size()) < param.k;
       ++i) {
    if ((i * 7 + 1) % 3 != 0 ||
        param.n - i <= param.k - static_cast<int>(tasks.size())) {
      tasks.push_back(i);
    }
  }
  ASSERT_EQ(static_cast<int>(tasks.size()), param.k);

  const std::vector<double> fast = AnswerDistribution(joint, tasks, *crowd);
  const std::vector<double> brute =
      AnswerDistributionBruteForce(joint, tasks, *crowd);
  ASSERT_EQ(fast.size(), brute.size());
  for (size_t i = 0; i < fast.size(); ++i) {
    EXPECT_NEAR(fast[i], brute[i], 1e-10);
  }
  EXPECT_NEAR(common::Sum(fast), 1.0, 1e-9);

  // Partition refinement reproduces the same entropies (Algorithm 2
  // correctness).
  SparsePartitionRefiner refiner(joint, *crowd);
  for (size_t i = 0; i < tasks.size(); ++i) {
    const std::vector<int> prefix(tasks.begin(),
                                  tasks.begin() + static_cast<long>(i));
    const double via_refiner = refiner.EntropyWithCandidate(tasks[i]);
    std::vector<int> extended = prefix;
    extended.push_back(tasks[i]);
    const double via_direct = AnswerEntropyBits(joint, extended, *crowd);
    EXPECT_NEAR(via_refiner, via_direct, 1e-9);
    refiner.Commit(tasks[i]);
    EXPECT_NEAR(refiner.CommittedEntropyBits(), via_direct, 1e-9);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, PathEquivalenceTest,
    ::testing::Values(PathEquivalenceParam{3, 1, 0.8},
                      PathEquivalenceParam{3, 3, 0.8},
                      PathEquivalenceParam{5, 2, 0.7},
                      PathEquivalenceParam{5, 4, 0.9},
                      PathEquivalenceParam{6, 3, 0.5},
                      PathEquivalenceParam{6, 3, 1.0},
                      PathEquivalenceParam{8, 5, 0.66}));

/// Table IV is the answer distribution over every fact, in id order.
const std::vector<int> kAllFacts = {0, 1, 2, 3};

TEST(AnswerModelTest, TableIVFastPathMatchesBruteForce) {
  const JointDistribution joint = RunningExample::Joint();
  const CrowdModel crowd = RunningExample::Crowd();
  const std::vector<double> fast = AnswerDistribution(joint, kAllFacts, crowd);
  const std::vector<double> brute =
      AnswerDistributionBruteForce(joint, kAllFacts, crowd);
  ASSERT_EQ(fast.size(), 16u);
  ASSERT_EQ(brute.size(), 16u);
  for (uint64_t mask = 0; mask < 16; ++mask) {
    EXPECT_NEAR(fast[mask], brute[mask], 1e-12);
  }
  EXPECT_NEAR(common::Sum(fast), 1.0, 1e-12);
}

TEST(AnswerModelTest, PerfectCrowdKeepsJointUnchanged) {
  const JointDistribution joint = RunningExample::Joint();
  auto crowd = CrowdModel::Create(1.0);
  ASSERT_TRUE(crowd.ok());
  const std::vector<double> table =
      AnswerDistribution(joint, kAllFacts, *crowd);
  for (const auto& entry : joint.entries()) {
    EXPECT_NEAR(table[entry.mask], entry.prob, 1e-12);
  }
}

TEST(AnswerModelTest, EntropyNeverBelowTruthless) {
  // With noise, the answer entropy is at least the noiseless marginal
  // entropy pushed toward uniform: specifically H(T) >= H of marginal.
  common::Rng rng(5);
  const JointDistribution joint = RandomJoint(5, rng);
  auto noisy = CrowdModel::Create(0.7);
  auto perfect = CrowdModel::Create(1.0);
  ASSERT_TRUE(noisy.ok());
  ASSERT_TRUE(perfect.ok());
  const std::vector<int> tasks = {0, 2, 4};
  EXPECT_GE(AnswerEntropyBits(joint, tasks, *noisy),
            AnswerEntropyBits(joint, tasks, *perfect) - 1e-12);
}

TEST(AnswerModelTest, EntropyMonotoneInTaskSet) {
  // H(T ∪ {f}) >= H(T): adding a task never reduces answer entropy.
  common::Rng rng(6);
  const JointDistribution joint = RandomJoint(6, rng);
  auto crowd = CrowdModel::Create(0.8);
  ASSERT_TRUE(crowd.ok());
  std::vector<int> tasks;
  double prev = 0.0;
  for (int f = 0; f < 6; ++f) {
    tasks.push_back(f);
    const double h = AnswerEntropyBits(joint, tasks, *crowd);
    EXPECT_GE(h, prev - 1e-12);
    prev = h;
  }
}

}  // namespace
}  // namespace crowdfusion::core
