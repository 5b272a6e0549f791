#include <algorithm>
#include <cmath>

#include <gtest/gtest.h>

#include "common/math_util.h"
#include "common/random.h"
#include "core/answer_model.h"
#include "core/greedy_selector.h"
#include "core/opt_selector.h"
#include "core/random_selector.h"
#include "core/running_example.h"
#include "core/utility.h"
#include "support/oracles.h"
#include "support/status_printing.h"

namespace crowdfusion::core {
namespace {

using common::StatusCode;

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

SelectionRequest MakeRequest(const JointDistribution& joint,
                             const CrowdModel& crowd, int k) {
  SelectionRequest request;
  request.joint = &joint;
  request.crowd = &crowd;
  request.k = k;
  return request;
}

TEST(ResolveCandidatesTest, RejectsBadRequests) {
  const JointDistribution joint = RunningExample::Joint();
  const CrowdModel crowd = MakeCrowd(0.8);
  SelectionRequest request;
  EXPECT_EQ(ResolveCandidates(request).status().code(),
            StatusCode::kInvalidArgument);  // null joint
  request.joint = &joint;
  EXPECT_EQ(ResolveCandidates(request).status().code(),
            StatusCode::kInvalidArgument);  // null crowd
  request.crowd = &crowd;
  request.k = 0;
  EXPECT_EQ(ResolveCandidates(request).status().code(),
            StatusCode::kInvalidArgument);  // k <= 0
  request.k = 2;
  request.candidates = {0, 0};
  EXPECT_EQ(ResolveCandidates(request).status().code(),
            StatusCode::kInvalidArgument);  // duplicate candidate
  request.candidates = {9};
  EXPECT_EQ(ResolveCandidates(request).status().code(),
            StatusCode::kOutOfRange);
  request.candidates.clear();
  auto resolved = ResolveCandidates(request);
  ASSERT_TRUE(resolved.ok());
  EXPECT_EQ(resolved->size(), 4u);
}

TEST(GreedySelectorTest, PreprocessingIsExactlyEquivalent) {
  // Preprocessing is a pure acceleration: identical selections.
  for (uint64_t seed : {11u, 22u, 33u, 44u}) {
    const JointDistribution joint = RandomJoint(6, seed);
    const CrowdModel crowd = MakeCrowd(0.8);
    GreedySelector plain;
    GreedySelector::Options options;
    options.use_preprocessing = true;
    GreedySelector preprocessed(options);
    auto a = plain.Select(MakeRequest(joint, crowd, 3));
    auto b = preprocessed.Select(MakeRequest(joint, crowd, 3));
    ASSERT_TRUE(a.ok()) << a.status();
    ASSERT_TRUE(b.ok()) << b.status();
    EXPECT_EQ(a->tasks, b->tasks) << "seed " << seed;
    EXPECT_NEAR(a->entropy_bits, b->entropy_bits, 1e-9);
  }
}

TEST(GreedySelectorTest, SoundPruningNeverChangesSelection) {
  // The sound additive bound cannot fire before the last iteration, so
  // selections are provably identical to the unpruned greedy.
  for (uint64_t seed : {11u, 22u, 33u, 44u, 55u}) {
    const JointDistribution joint = RandomJoint(7, seed);
    const CrowdModel crowd = MakeCrowd(0.8);
    GreedySelector plain;
    GreedySelector::Options options;
    options.use_pruning = true;
    options.pruning_bound = GreedySelector::PruningBound::kSoundAdditive;
    GreedySelector pruned(options);
    auto a = plain.Select(MakeRequest(joint, crowd, 4));
    auto b = pruned.Select(MakeRequest(joint, crowd, 4));
    ASSERT_TRUE(a.ok());
    ASSERT_TRUE(b.ok());
    EXPECT_EQ(a->tasks, b->tasks) << "seed " << seed;
  }
}

TEST(GreedySelectorTest, PaperPruningBoundNearlyLossless) {
  // The paper's log2 bound is a heuristic: it may alter the selected set,
  // but the achieved entropy stays within a whisker of the unpruned
  // greedy's on random instances ("without losing much effectiveness").
  for (uint64_t seed : {11u, 22u, 33u, 44u, 55u, 66u}) {
    const JointDistribution joint = RandomJoint(7, seed);
    const CrowdModel crowd = MakeCrowd(0.8);
    GreedySelector plain;
    GreedySelector::Options options;
    options.use_pruning = true;
    GreedySelector pruned(options);
    auto a = plain.Select(MakeRequest(joint, crowd, 4));
    auto b = pruned.Select(MakeRequest(joint, crowd, 4));
    ASSERT_TRUE(a.ok());
    ASSERT_TRUE(b.ok());
    EXPECT_GE(b->entropy_bits, a->entropy_bits - 0.02) << "seed " << seed;
  }
}

TEST(GreedySelectorTest, PruningActuallyPrunes) {
  const JointDistribution joint = RandomJoint(8, 5);
  const CrowdModel crowd = MakeCrowd(0.8);
  GreedySelector::Options options;
  options.use_pruning = true;
  options.use_preprocessing = true;
  GreedySelector pruning(options);
  auto with = pruning.Select(MakeRequest(joint, crowd, 4));
  ASSERT_TRUE(with.ok());
  options.use_pruning = false;
  GreedySelector plain(options);
  auto without = plain.Select(MakeRequest(joint, crowd, 4));
  ASSERT_TRUE(without.ok());
  EXPECT_GT(with->stats.pruned, 0);
  EXPECT_LT(with->stats.evaluations, without->stats.evaluations);
  EXPECT_EQ(with->tasks, without->tasks);
}

TEST(GreedySelectorTest, KLargerThanNSelectsEverything) {
  const JointDistribution joint = RandomJoint(4, 3);
  const CrowdModel crowd = MakeCrowd(0.8);
  GreedySelector selector;
  auto selection = selector.Select(MakeRequest(joint, crowd, 10));
  ASSERT_TRUE(selection.ok());
  EXPECT_EQ(selection->tasks.size(), 4u);
}

TEST(GreedySelectorTest, StopsEarlyOnCertainDistribution) {
  // A point mass with a perfect crowd: no task has positive gain, K* = 0.
  auto joint = PointMass(4, 0b1010);
  ASSERT_TRUE(joint.ok());
  const CrowdModel perfect = MakeCrowd(1.0);
  GreedySelector selector;
  auto selection = selector.Select(MakeRequest(*joint, perfect, 3));
  ASSERT_TRUE(selection.ok());
  EXPECT_TRUE(selection->tasks.empty());
}

TEST(GreedySelectorTest, NoisyCrowdStillAsksOnPointMass) {
  // Theorem 2's boundary: with a noisy crowd even a certain fact produces
  // answer entropy (the crowd's own noise), so the greedy fills k.
  auto joint = PointMass(4, 0b1010);
  ASSERT_TRUE(joint.ok());
  const CrowdModel noisy = MakeCrowd(0.8);
  GreedySelector selector;
  auto selection = selector.Select(MakeRequest(*joint, noisy, 3));
  ASSERT_TRUE(selection.ok());
  EXPECT_EQ(selection->tasks.size(), 3u);
}

TEST(GreedySelectorTest, RespectsCandidateRestriction) {
  const JointDistribution joint = RunningExample::Joint();
  const CrowdModel crowd = MakeCrowd(0.8);
  SelectionRequest request = MakeRequest(joint, crowd, 2);
  request.candidates = {1, 2};
  GreedySelector selector;
  auto selection = selector.Select(request);
  ASSERT_TRUE(selection.ok());
  for (int t : selection->tasks) {
    EXPECT_TRUE(t == 1 || t == 2);
  }
}

TEST(GreedySelectorTest, FirstPickIsSingleTaskEntropyArgmax) {
  // With T = ∅ the greedy's first gain is H({f}), so its first pick is the
  // fact whose single-task answer entropy is largest.
  const JointDistribution joint = RunningExample::Joint();
  const CrowdModel crowd = MakeCrowd(0.8);
  int argmax = 0;
  double best = -1.0;
  for (int f = 0; f < joint.num_facts(); ++f) {
    const std::vector<int> task = {f};
    const double entropy = TaskEntropyBits(joint, task, crowd);
    if (entropy > best) {
      best = entropy;
      argmax = f;
    }
  }
  GreedySelector selector;
  auto selection = selector.Select(MakeRequest(joint, crowd, 1));
  ASSERT_TRUE(selection.ok());
  ASSERT_EQ(selection->tasks.size(), 1u);
  EXPECT_EQ(selection->tasks[0], argmax);
  EXPECT_EQ(argmax, 0);  // the paper's walkthrough: f1 first
}

TEST(GreedySelectorTest, NameReflectsOptions) {
  EXPECT_EQ(GreedySelector().name(), "Approx.");
  GreedySelector::Options options;
  options.use_pruning = true;
  EXPECT_EQ(GreedySelector(options).name(), "Approx.&Prune");
  options.use_preprocessing = true;
  EXPECT_EQ(GreedySelector(options).name(), "Approx.&Prune&Pre.");
}

TEST(OptSelectorTest, MatchesExhaustiveSearch) {
  const JointDistribution joint = RandomJoint(5, 77);
  const CrowdModel crowd = MakeCrowd(0.8);
  OptSelector selector;
  auto selection = selector.Select(MakeRequest(joint, crowd, 2));
  ASSERT_TRUE(selection.ok());
  // Exhaustively verify no pair beats it.
  for (int a = 0; a < 5; ++a) {
    for (int b = a + 1; b < 5; ++b) {
      const std::vector<int> tasks = {a, b};
      EXPECT_LE(AnswerEntropyBits(joint, tasks, crowd),
                selection->entropy_bits + 1e-12);
    }
  }
  EXPECT_EQ(selection->stats.evaluations, 10);
}

TEST(OptSelectorTest, BruteForceEntropyPathAgrees) {
  const JointDistribution joint = RandomJoint(5, 78);
  const CrowdModel crowd = MakeCrowd(0.8);
  OptSelector fast;
  OptSelector::Options options;
  options.use_brute_force_entropy = true;
  OptSelector brute(options);
  auto a = fast.Select(MakeRequest(joint, crowd, 2));
  auto b = brute.Select(MakeRequest(joint, crowd, 2));
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(a->tasks, b->tasks);
  EXPECT_NEAR(a->entropy_bits, b->entropy_bits, 1e-9);
}

TEST(OptSelectorTest, SubsetCapRejectsHugeInstances) {
  const JointDistribution joint = RandomJoint(10, 79);
  const CrowdModel crowd = MakeCrowd(0.8);
  OptSelector::Options options;
  options.max_subsets = 10;
  OptSelector selector(options);
  auto selection = selector.Select(MakeRequest(joint, crowd, 5));
  EXPECT_EQ(selection.status().code(), StatusCode::kResourceExhausted);
}

class ApproximationRatioTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(ApproximationRatioTest, GreedyWithinGuaranteeOfOpt) {
  // The (1 - 1/e) bound holds for the submodular H(T); empirically the
  // greedy is usually much closer.
  const JointDistribution joint = RandomJoint(6, GetParam());
  const CrowdModel crowd = MakeCrowd(0.8);
  OptSelector opt;
  GreedySelector greedy;
  for (int k = 1; k <= 4; ++k) {
    auto best = opt.Select(MakeRequest(joint, crowd, k));
    auto approx = greedy.Select(MakeRequest(joint, crowd, k));
    ASSERT_TRUE(best.ok());
    ASSERT_TRUE(approx.ok());
    EXPECT_GE(approx->entropy_bits,
              (1.0 - 1.0 / M_E) * best->entropy_bits - 1e-9)
        << "k=" << k << " seed=" << GetParam();
    EXPECT_LE(approx->entropy_bits, best->entropy_bits + 1e-9);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ApproximationRatioTest,
                         ::testing::Values(101, 102, 103, 104, 105, 106, 107,
                                           108));

TEST(RandomSelectorTest, SelectsDistinctValidTasks) {
  const JointDistribution joint = RandomJoint(6, 9);
  const CrowdModel crowd = MakeCrowd(0.8);
  RandomSelector selector(/*seed=*/4);
  for (int trial = 0; trial < 20; ++trial) {
    auto selection = selector.Select(MakeRequest(joint, crowd, 3));
    ASSERT_TRUE(selection.ok());
    ASSERT_EQ(selection->tasks.size(), 3u);
    std::vector<int> sorted = selection->tasks;
    std::sort(sorted.begin(), sorted.end());
    EXPECT_TRUE(std::unique(sorted.begin(), sorted.end()) == sorted.end());
    for (int t : selection->tasks) {
      EXPECT_GE(t, 0);
      EXPECT_LT(t, 6);
    }
  }
}

TEST(RandomSelectorTest, CoversAllFactsEventually) {
  const JointDistribution joint = RandomJoint(5, 10);
  const CrowdModel crowd = MakeCrowd(0.8);
  RandomSelector selector(/*seed=*/5);
  std::vector<int> counts(5, 0);
  for (int trial = 0; trial < 200; ++trial) {
    auto selection = selector.Select(MakeRequest(joint, crowd, 1));
    ASSERT_TRUE(selection.ok());
    ++counts[static_cast<size_t>(selection->tasks[0])];
  }
  for (int c : counts) EXPECT_GT(c, 0);
}

TEST(SelectorStatsTest, EvaluationCountsMatchComplexity) {
  const JointDistribution joint = RandomJoint(7, 13);
  const CrowdModel crowd = MakeCrowd(0.8);
  GreedySelector greedy;
  auto selection = greedy.Select(MakeRequest(joint, crowd, 3));
  ASSERT_TRUE(selection.ok());
  // Iteration i evaluates n - i candidates: 7 + 6 + 5.
  EXPECT_EQ(selection->stats.evaluations, 18);
}

}  // namespace
}  // namespace crowdfusion::core
