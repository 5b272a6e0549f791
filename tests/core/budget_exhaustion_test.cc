/// End-to-end budget-exhaustion regression: a book's loop (engine mode's
/// one-instance scheduler) must never spend more than its budget B, even
/// when B is not a multiple of k, and the StepRecord cost accounting must
/// be exact and monotone.
#include <vector>

#include <gtest/gtest.h>

#include "core/greedy_selector.h"
#include "core/running_example.h"
#include "core/scheduler.h"
#include "crowd/simulated_crowd.h"

namespace crowdfusion::core {
namespace {

using StepRecord = BudgetScheduler::StepRecord;

std::vector<StepRecord> RunToExhaustion(int budget, int tasks_per_round,
                                         double pc, uint64_t seed,
                                         int* cost_spent_out) {
  const JointDistribution joint = RunningExample::Joint();
  const CrowdModel crowd = RunningExample::Crowd();
  GreedySelector selector;
  // Noisy simulated crowd (the end-to-end provider): answers keep the
  // distribution off a point mass, so selection never stops early.
  crowd::SimulatedCrowd provider = crowd::SimulatedCrowd::WithUniformAccuracy(
      {true, true, true, false}, pc, seed);
  auto scheduler = BudgetScheduler::Create(
      crowd, &selector,
      {.total_budget = budget,
       .tasks_per_step = tasks_per_round,
       .max_in_flight = 1});
  EXPECT_TRUE(scheduler.ok()) << scheduler.status().ToString();
  EXPECT_TRUE(scheduler->AddInstance("book", joint, &provider).ok());
  auto records = scheduler->RunPipelined();
  EXPECT_TRUE(records.ok()) << records.status().ToString();
  *cost_spent_out = scheduler->cost_spent(0);
  return std::move(records).value();
}

TEST(BudgetExhaustionTest, NeverOverspendsWithRaggedLastRound) {
  // k = 3 does not divide B = 7: rounds must go 3, 3, 1.
  constexpr int kBudget = 7;
  int cost_spent = 0;
  const std::vector<StepRecord> records =
      RunToExhaustion(kBudget, /*tasks_per_round=*/3, /*pc=*/0.65,
                      /*seed=*/42, &cost_spent);
  EXPECT_LE(cost_spent, kBudget);
  int total_tasks = 0;
  for (const StepRecord& record : records) {
    EXPECT_LE(static_cast<int>(record.tasks.size()), 3);
    EXPECT_EQ(record.tasks.size(), record.answers.size());
    total_tasks += static_cast<int>(record.tasks.size());
    EXPECT_LE(record.cumulative_cost, kBudget);
  }
  EXPECT_EQ(total_tasks, cost_spent);
  // A noisy crowd keeps entropy positive, so the budget is fully consumed.
  EXPECT_EQ(cost_spent, kBudget);
  ASSERT_FALSE(records.empty());
  EXPECT_EQ(records.back().cumulative_cost, kBudget);
}

TEST(BudgetExhaustionTest, CumulativeCostIsMonotoneAndExact) {
  int cost_spent = 0;
  const std::vector<StepRecord> records = RunToExhaustion(
      /*budget=*/20, /*tasks_per_round=*/2, /*pc=*/0.7, /*seed=*/7,
      &cost_spent);
  int running = 0;
  int previous = 0;
  for (const StepRecord& record : records) {
    running += static_cast<int>(record.tasks.size());
    EXPECT_EQ(record.cumulative_cost, running);
    EXPECT_GE(record.cumulative_cost, previous);
    previous = record.cumulative_cost;
  }
  EXPECT_EQ(running, cost_spent);
}

TEST(BudgetExhaustionTest, BudgetSpentIsIndependentOfK) {
  // Whatever the round size, total spend is capped by (and here equals)
  // the budget — the paper's cost axis is tasks, not rounds.
  constexpr int kBudget = 12;
  for (int k : {1, 2, 3, 4}) {
    int cost_spent = 0;
    const std::vector<StepRecord> records = RunToExhaustion(
        kBudget, k, /*pc=*/0.65, /*seed=*/static_cast<uint64_t>(100 + k),
        &cost_spent);
    EXPECT_EQ(cost_spent, kBudget) << "k=" << k;
    ASSERT_FALSE(records.empty());
    EXPECT_EQ(records.back().cumulative_cost, kBudget) << "k=" << k;
  }
}

}  // namespace
}  // namespace crowdfusion::core
