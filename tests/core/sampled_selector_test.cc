#include "core/sampled_selector.h"

#include <gtest/gtest.h>

#include "common/math_util.h"
#include "common/random.h"
#include "core/answer_model.h"
#include "core/greedy_selector.h"
#include "core/running_example.h"
#include "support/oracles.h"

namespace crowdfusion::core {
namespace {

CrowdModel MakeCrowd(double pc) {
  auto crowd = CrowdModel::Create(pc);
  EXPECT_TRUE(crowd.ok());
  return std::move(crowd).value();
}

SelectionRequest MakeRequest(const JointDistribution& joint,
                             const CrowdModel& crowd, int k) {
  SelectionRequest request;
  request.joint = &joint;
  request.crowd = &crowd;
  request.k = k;
  return request;
}

TEST(SampledSelectorTest, RejectsNonPositiveSamples) {
  const JointDistribution joint = RunningExample::Joint();
  const CrowdModel crowd = MakeCrowd(0.8);
  SampledGreedySelector::Options options;
  options.samples = 0;
  SampledGreedySelector selector(options);
  EXPECT_FALSE(selector.Select(MakeRequest(joint, crowd, 2)).ok());
}

TEST(SampledSelectorTest, DeterministicForFixedSeed) {
  const JointDistribution joint = RunningExample::Joint();
  const CrowdModel crowd = MakeCrowd(0.8);
  SampledGreedySelector::Options options;
  options.seed = 99;
  SampledGreedySelector a(options);
  SampledGreedySelector b(options);
  auto sa = a.Select(MakeRequest(joint, crowd, 2));
  auto sb = b.Select(MakeRequest(joint, crowd, 2));
  ASSERT_TRUE(sa.ok());
  ASSERT_TRUE(sb.ok());
  EXPECT_EQ(sa->tasks, sb->tasks);
  EXPECT_DOUBLE_EQ(sa->entropy_bits, sb->entropy_bits);
}

TEST(SampledSelectorTest, MatchesExactGreedyOnRunningExample) {
  // With enough samples the estimator separates the running example's
  // candidates (gaps of ~1e-2 bits) and picks the exact greedy's set.
  const JointDistribution joint = RunningExample::Joint();
  const CrowdModel crowd = MakeCrowd(0.8);
  SampledGreedySelector::Options options;
  options.samples = 60000;
  options.seed = 7;
  SampledGreedySelector sampled(options);
  auto selection = sampled.Select(MakeRequest(joint, crowd, 2));
  ASSERT_TRUE(selection.ok());
  EXPECT_EQ(selection->tasks, (std::vector<int>{0, 3}));
  EXPECT_NEAR(selection->entropy_bits, 1.997, 0.02);
}

TEST(SampledSelectorTest, EntropyEstimateNearExactValue) {
  const JointDistribution joint = RunningExample::Joint();
  const CrowdModel crowd = MakeCrowd(0.8);
  SampledGreedySelector::Options options;
  options.samples = 40000;
  options.seed = 3;
  SampledGreedySelector sampled(options);
  auto selection = sampled.Select(MakeRequest(joint, crowd, 3));
  ASSERT_TRUE(selection.ok());
  const double exact =
      AnswerEntropyBits(joint, selection->tasks, crowd);
  EXPECT_NEAR(selection->entropy_bits, exact, 0.02);
}

TEST(SampledSelectorTest, HandlesSparseJointsBeyondDenseLimit) {
  // 40 facts — far beyond the 2^n dense paths — with a sparse 6-world
  // support. The sampled greedy must run and pick facts that actually
  // distinguish the worlds.
  std::vector<JointDistribution::Entry> entries;
  common::Rng rng(11);
  for (int w = 0; w < 6; ++w) {
    uint64_t mask = 0;
    for (int f = 0; f < 40; ++f) {
      if (rng.NextBernoulli(0.5)) mask |= 1ULL << f;
    }
    entries.push_back({mask, 1.0 / 6});
  }
  auto joint = JointDistribution::FromEntries(40, entries, true);
  ASSERT_TRUE(joint.ok());
  const CrowdModel crowd = MakeCrowd(0.9);
  SampledGreedySelector::Options options;
  options.samples = 20000;
  options.seed = 5;
  SampledGreedySelector sampled(options);
  auto selection = sampled.Select(MakeRequest(*joint, crowd, 3));
  ASSERT_TRUE(selection.ok());
  EXPECT_EQ(selection->tasks.size(), 3u);
  // The selected tasks should carry real information about the worlds.
  EXPECT_GT(selection->entropy_bits, 1.5);
}

TEST(SampledSelectorTest, StopsOnCertainDistributionWithPerfectCrowd) {
  auto joint = PointMass(5, 0b10101);
  ASSERT_TRUE(joint.ok());
  const CrowdModel perfect = MakeCrowd(1.0);
  SampledGreedySelector::Options options;
  options.samples = 2000;
  SampledGreedySelector sampled(options);
  auto selection = sampled.Select(MakeRequest(*joint, perfect, 3));
  ASSERT_TRUE(selection.ok());
  EXPECT_TRUE(selection->tasks.empty());
}

class SampleCountConvergenceTest : public ::testing::TestWithParam<int> {};

TEST_P(SampleCountConvergenceTest, EstimateErrorShrinksWithSamples) {
  const JointDistribution joint = RunningExample::Joint();
  const CrowdModel crowd = MakeCrowd(0.8);
  const std::vector<int> tasks = {0, 3};
  const double exact = AnswerEntropyBits(joint, tasks, crowd);
  SampledGreedySelector::Options options;
  options.samples = GetParam();
  options.seed = 1234;
  SampledGreedySelector sampled(options);
  SelectionRequest request = MakeRequest(joint, crowd, 2);
  request.candidates = {0, 3};  // force the same task set
  auto selection = sampled.Select(request);
  ASSERT_TRUE(selection.ok());
  // Tolerance loose for small M, tight for large M.
  const double tolerance = 6.0 / std::sqrt(static_cast<double>(GetParam()));
  EXPECT_NEAR(selection->entropy_bits, exact, tolerance);
}

INSTANTIATE_TEST_SUITE_P(Samples, SampleCountConvergenceTest,
                         ::testing::Values(512, 2048, 8192, 32768));

}  // namespace
}  // namespace crowdfusion::core
