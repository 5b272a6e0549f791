/// BudgetScheduler stress: one global budget spread over 50+ instances of
/// wildly mixed sizes — tiny dense books next to sparse n = 24..64
/// instances that only the sparse refinement engine can select on. The
/// invariants under test: the scheduler never overspends the global
/// budget, every StepRecord's cumulative_cost is exactly the tasks issued
/// so far, per-instance spend reconciles with the total, and
/// total_utility_bits is monotone non-decreasing across steps (the crowd
/// is perfect and each instance's scripted truth is its distribution
/// mode, so every Bayes merge concentrates mass).

#include <memory>
#include <vector>

#include <gtest/gtest.h>

#include "common/random.h"
#include "core/greedy_selector.h"
#include "core/scheduler.h"
#include "oracle_provider.h"
#include "sparse_test_util.h"

namespace crowdfusion::core {
namespace {

JointDistribution IndependentJoint(int n, common::Rng& rng) {
  std::vector<double> marginals(static_cast<size_t>(n));
  for (double& p : marginals) p = rng.NextUniform(0.2, 0.8);
  auto joint = JointDistribution::FromIndependentMarginals(marginals);
  EXPECT_TRUE(joint.ok()) << joint.status().ToString();
  return std::move(joint).value();
}

TEST(BudgetSchedulerStressTest, MixedSizesUnderOneGlobalBudget) {
  auto crowd = CrowdModel::Create(1.0);  // perfect crowd: see file comment
  ASSERT_TRUE(crowd.ok());
  GreedySelector::Options options;
  options.use_preprocessing = true;  // kAuto: dense small, sparse large
  GreedySelector selector(options);

  BudgetScheduler::Options scheduler_options;
  scheduler_options.total_budget = 140;
  scheduler_options.tasks_per_step = 2;
  scheduler_options.max_in_flight = 1;
  auto scheduler =
      BudgetScheduler::Create(*crowd, &selector, scheduler_options);
  ASSERT_TRUE(scheduler.ok());

  common::Rng rng(20250728);
  std::vector<std::unique_ptr<ScriptedProvider>> providers;
  int num_instances = 0;
  // 52 dense instances of 3..15 facts plus 4 sparse paper-scale ones.
  for (int i = 0; i < 52; ++i) {
    JointDistribution joint = IndependentJoint(3 + i % 13, rng);
    providers.push_back(
        std::make_unique<ScriptedProvider>(OracleProvider(joint.Mode())));
    auto id = scheduler->AddInstance("book-" + std::to_string(i),
                                     std::move(joint), providers.back().get());
    ASSERT_TRUE(id.ok());
    ++num_instances;
  }
  for (const int n : {24, 32, 48, 64}) {
    JointDistribution joint = RandomSparseJoint(n, 300, rng);
    providers.push_back(
        std::make_unique<ScriptedProvider>(OracleProvider(joint.Mode())));
    auto id = scheduler->AddInstance("sparse-" + std::to_string(n),
                                     std::move(joint), providers.back().get());
    ASSERT_TRUE(id.ok());
    ++num_instances;
  }
  ASSERT_EQ(scheduler->num_instances(), num_instances);
  ASSERT_GE(num_instances, 50);

  auto records = scheduler->RunPipelined();
  ASSERT_TRUE(records.ok()) << records.status().ToString();
  ASSERT_FALSE(records->empty());

  int replayed_cost = 0;
  double previous_utility = -1e300;
  for (const auto& record : *records) {
    if (record.instance < 0) continue;  // exhaustion marker carries no tasks
    ASSERT_LT(record.instance, num_instances);
    EXPECT_FALSE(record.tasks.empty());
    EXPECT_LE(static_cast<int>(record.tasks.size()),
              scheduler_options.tasks_per_step);
    EXPECT_EQ(record.answers.size(), record.tasks.size());
    EXPECT_GE(record.expected_gain_bits, 0.0);

    replayed_cost += static_cast<int>(record.tasks.size());
    EXPECT_EQ(record.cumulative_cost, replayed_cost) << "step " << record.step;
    EXPECT_LE(record.cumulative_cost, scheduler_options.total_budget);

    EXPECT_GE(record.total_utility_bits, previous_utility - 1e-9)
        << "utility regressed at step " << record.step;
    previous_utility = record.total_utility_bits;
  }

  // Global ledger reconciles: total == per-step replay == per-instance sum.
  EXPECT_EQ(scheduler->total_cost_spent(), replayed_cost);
  EXPECT_LE(scheduler->total_cost_spent(), scheduler_options.total_budget);
  int per_instance_sum = 0;
  for (int i = 0; i < num_instances; ++i) {
    EXPECT_GE(scheduler->cost_spent(i), 0);
    per_instance_sum += scheduler->cost_spent(i);
  }
  EXPECT_EQ(per_instance_sum, replayed_cost);
  EXPECT_NEAR(scheduler->TotalUtilityBits(), previous_utility, 1e-9);

  // The big sparse instances must actually have attracted budget: they
  // carry the most uncertainty per instance.
  int sparse_spend = 0;
  for (int i = 52; i < num_instances; ++i) {
    sparse_spend += scheduler->cost_spent(i);
  }
  EXPECT_GT(sparse_spend, 0);
}

}  // namespace
}  // namespace crowdfusion::core
