#include "crowd/simulated_crowd.h"

#include <gtest/gtest.h>

namespace crowdfusion::crowd {
namespace {

/// The fraction of served judgments that matched the ground truth.
double ServedAccuracy(const SimulatedCrowd& crowd) {
  return static_cast<double>(crowd.answers_correct()) /
         static_cast<double>(crowd.answers_served());
}

TEST(SimulatedCrowdTest, RejectsUnknownFactIds) {
  SimulatedCrowd crowd = SimulatedCrowd::WithUniformAccuracy(
      {true, false}, 0.8, /*seed=*/1);
  const std::vector<int> bad = {2};
  EXPECT_FALSE(core::SubmitAndAwait(crowd, bad).ok());
  const std::vector<int> negative = {-1};
  EXPECT_FALSE(core::SubmitAndAwait(crowd, negative).ok());
}

TEST(SimulatedCrowdTest, PerfectCrowdEchoesTruth) {
  SimulatedCrowd crowd = SimulatedCrowd::WithUniformAccuracy(
      {true, false, true}, 1.0, /*seed=*/1);
  const std::vector<int> all = {0, 1, 2};
  auto answers = core::SubmitAndAwait(crowd, all);
  ASSERT_TRUE(answers.ok());
  EXPECT_EQ(*answers, (std::vector<bool>{true, false, true}));
  EXPECT_EQ(crowd.answers_served(), 3);
  EXPECT_EQ(crowd.answers_correct(), 3);
}

TEST(SimulatedCrowdTest, EmpiricalAccuracyConvergesToPc) {
  SimulatedCrowd crowd = SimulatedCrowd::WithUniformAccuracy(
      {true, false}, 0.75, /*seed=*/3);
  const std::vector<int> tasks = {0, 1};
  for (int i = 0; i < 20000; ++i) {
    ASSERT_TRUE(core::SubmitAndAwait(crowd, tasks).ok());
  }
  EXPECT_EQ(crowd.answers_served(), 40000);
  EXPECT_NEAR(ServedAccuracy(crowd), 0.75, 0.01);
}

TEST(SimulatedCrowdTest, DeterministicPerSeed) {
  const std::vector<int> tasks = {0, 1, 0, 1};
  SimulatedCrowd a =
      SimulatedCrowd::WithUniformAccuracy({true, false}, 0.6, 42);
  SimulatedCrowd b =
      SimulatedCrowd::WithUniformAccuracy({true, false}, 0.6, 42);
  for (int i = 0; i < 20; ++i) {
    auto answers_a = core::SubmitAndAwait(a, tasks);
    auto answers_b = core::SubmitAndAwait(b, tasks);
    ASSERT_TRUE(answers_a.ok());
    ASSERT_TRUE(answers_b.ok());
    EXPECT_EQ(*answers_a, *answers_b);
  }
}

TEST(SimulatedCrowdTest, CategoryBiasesApply) {
  // All statements misspelled (false in ground truth) with the biased
  // profile: empirical accuracy should converge to the misspelling
  // accuracy, not the base one.
  WorkerBias bias;
  bias.base_accuracy = 0.95;
  bias.misspelling_accuracy = 0.4;
  SimulatedCrowd crowd({false, false},
                       {data::StatementCategory::kMisspelling,
                        data::StatementCategory::kMisspelling},
                       bias, /*seed=*/5);
  const std::vector<int> tasks = {0, 1};
  for (int i = 0; i < 20000; ++i) {
    ASSERT_TRUE(core::SubmitAndAwait(crowd, tasks).ok());
  }
  EXPECT_NEAR(ServedAccuracy(crowd), 0.4, 0.01);
}

TEST(SimulatedCrowdTest, ZeroAnswersServedAccuracyIsZero) {
  SimulatedCrowd crowd =
      SimulatedCrowd::WithUniformAccuracy({true}, 0.8, 1);
  EXPECT_EQ(crowd.answers_served(), 0);
  EXPECT_EQ(crowd.answers_correct(), 0);
}

}  // namespace
}  // namespace crowdfusion::crowd
