#include "core/scheduler.h"

#include <gtest/gtest.h>

#include "common/random.h"
#include "core/greedy_selector.h"
#include "core/running_example.h"
#include "oracle_provider.h"

namespace crowdfusion::core {
namespace {

using common::StatusCode;

CrowdModel MakeCrowd(double pc) {
  auto crowd = CrowdModel::Create(pc);
  EXPECT_TRUE(crowd.ok());
  return std::move(crowd).value();
}

JointDistribution UniformJoint(int n) {
  auto joint = JointDistribution::Uniform(n);
  EXPECT_TRUE(joint.ok());
  return std::move(joint).value();
}

TEST(BudgetSchedulerTest, CreateValidatesArguments) {
  const CrowdModel crowd = MakeCrowd(0.8);
  GreedySelector selector;
  BudgetScheduler::Options options;
  EXPECT_FALSE(BudgetScheduler::Create(crowd, nullptr, options).ok());
  options.total_budget = -1;
  EXPECT_FALSE(BudgetScheduler::Create(crowd, &selector, options).ok());
  options.total_budget = 10;
  options.tasks_per_step = 0;
  EXPECT_FALSE(BudgetScheduler::Create(crowd, &selector, options).ok());
}

TEST(BudgetSchedulerTest, AddInstanceValidates) {
  const CrowdModel crowd = MakeCrowd(0.8);
  GreedySelector selector;
  auto scheduler =
      BudgetScheduler::Create(crowd, &selector, BudgetScheduler::Options{});
  ASSERT_TRUE(scheduler.ok());
  EXPECT_EQ(scheduler
                ->AddInstance("x", RunningExample::Joint(), nullptr)
                .status()
                .code(),
            StatusCode::kInvalidArgument);
  ScriptedProvider provider = OracleProvider(0);
  auto id = scheduler->AddInstance("x", RunningExample::Joint(), &provider);
  ASSERT_TRUE(id.ok());
  EXPECT_EQ(id.value(), 0);
  EXPECT_EQ(scheduler->num_instances(), 1);
}

TEST(BudgetSchedulerTest, RunPipelinedRequiresInstancesAndStopsAtZeroBudget) {
  const CrowdModel crowd = MakeCrowd(0.8);
  GreedySelector selector;
  BudgetScheduler::Options options;
  options.total_budget = 5;
  auto no_instances = BudgetScheduler::Create(crowd, &selector, options);
  ASSERT_TRUE(no_instances.ok());
  EXPECT_EQ(no_instances->RunPipelined().status().code(),
            StatusCode::kFailedPrecondition);
  // A zero budget is a complete run with nothing to spend: no records,
  // not even the exhaustion marker.
  options.total_budget = 0;
  auto empty = BudgetScheduler::Create(crowd, &selector, options);
  ASSERT_TRUE(empty.ok());
  ScriptedProvider provider = OracleProvider(0);
  ASSERT_TRUE(empty->AddInstance("x", RunningExample::Joint(), &provider).ok());
  auto records = empty->RunPipelined();
  ASSERT_TRUE(records.ok()) << records.status();
  EXPECT_TRUE(records->empty());
  EXPECT_EQ(empty->total_cost_spent(), 0);
}

TEST(BudgetSchedulerTest, PrefersTheUncertainInstance) {
  // Instance A is nearly certain, instance B maximally uncertain: every
  // early step must go to B.
  const CrowdModel crowd = MakeCrowd(0.8);
  GreedySelector selector;
  BudgetScheduler::Options options;
  options.total_budget = 4;
  options.max_in_flight = 1;
  auto scheduler = BudgetScheduler::Create(crowd, &selector, options);
  ASSERT_TRUE(scheduler.ok());

  auto confident = JointDistribution::FromIndependentMarginals(
      std::vector<double>{0.99, 0.01, 0.99});
  ASSERT_TRUE(confident.ok());
  ScriptedProvider provider_a = OracleProvider(0b101);
  ScriptedProvider provider_b = OracleProvider(0b011);
  ASSERT_TRUE(scheduler->AddInstance("confident", *confident, &provider_a)
                  .ok());
  ASSERT_TRUE(
      scheduler->AddInstance("uncertain", UniformJoint(3), &provider_b).ok());

  auto records = scheduler->RunPipelined();
  ASSERT_TRUE(records.ok());
  ASSERT_FALSE(records->empty());
  for (const auto& record : *records) {
    if (record.instance < 0) break;
    EXPECT_EQ(record.instance, 1) << "step " << record.step;
  }
  EXPECT_EQ(scheduler->cost_spent(1), 4);
  EXPECT_EQ(scheduler->cost_spent(0), 0);
}

TEST(BudgetSchedulerTest, SpendsFullBudgetAcrossInstances) {
  const CrowdModel crowd = MakeCrowd(0.8);
  GreedySelector selector;
  BudgetScheduler::Options options;
  options.total_budget = 12;
  options.max_in_flight = 1;
  options.tasks_per_step = 2;
  auto scheduler = BudgetScheduler::Create(crowd, &selector, options);
  ASSERT_TRUE(scheduler.ok());
  ScriptedProvider provider_a = OracleProvider(0b0111);
  ScriptedProvider provider_b = OracleProvider(0b1010);
  ASSERT_TRUE(scheduler
                  ->AddInstance("a", RunningExample::Joint(), &provider_a)
                  .ok());
  ASSERT_TRUE(
      scheduler->AddInstance("b", UniformJoint(4), &provider_b).ok());
  auto records = scheduler->RunPipelined();
  ASSERT_TRUE(records.ok());
  EXPECT_EQ(scheduler->total_cost_spent(), 12);
  EXPECT_EQ(scheduler->cost_spent(0) + scheduler->cost_spent(1), 12);
}

TEST(BudgetSchedulerTest, UtilityIncreasesWithTruthfulAnswers) {
  const CrowdModel crowd = MakeCrowd(0.9);
  GreedySelector selector;
  BudgetScheduler::Options options;
  options.total_budget = 20;
  options.max_in_flight = 1;
  auto scheduler = BudgetScheduler::Create(crowd, &selector, options);
  ASSERT_TRUE(scheduler.ok());
  ScriptedProvider provider = OracleProvider(0b0111);
  ASSERT_TRUE(scheduler
                  ->AddInstance("book", RunningExample::Joint(), &provider)
                  .ok());
  const double before = scheduler->TotalUtilityBits();
  auto records = scheduler->RunPipelined();
  ASSERT_TRUE(records.ok());
  EXPECT_GT(scheduler->TotalUtilityBits(), before + 2.0);
}

TEST(BudgetSchedulerTest, StopsWhenNoGainAnywhere) {
  // Certain joints + perfect crowd: no instance has a useful task.
  const CrowdModel crowd = MakeCrowd(1.0);
  GreedySelector selector;
  BudgetScheduler::Options options;
  options.total_budget = 50;
  options.max_in_flight = 1;
  auto scheduler = BudgetScheduler::Create(crowd, &selector, options);
  ASSERT_TRUE(scheduler.ok());
  auto point = JointDistribution::PointMass(3, 0b101);
  ASSERT_TRUE(point.ok());
  ScriptedProvider provider = OracleProvider(0b101);
  ASSERT_TRUE(scheduler->AddInstance("done", *point, &provider).ok());
  auto records = scheduler->RunPipelined();
  ASSERT_TRUE(records.ok());
  ASSERT_EQ(records->size(), 1u);
  EXPECT_EQ(records->front().instance, -1);
  EXPECT_EQ(scheduler->total_cost_spent(), 0);
}

TEST(BudgetSchedulerTest, StarvedBooksGetBudgetUnderGlobalAllocation) {
  // The Section V-D motivation: with one big uncertain book and several
  // small ones, the global scheduler gives the big book more than a
  // uniform per-book split would.
  const CrowdModel crowd = MakeCrowd(0.8);
  GreedySelector selector;
  BudgetScheduler::Options options;
  options.total_budget = 30;
  options.max_in_flight = 1;
  auto scheduler = BudgetScheduler::Create(crowd, &selector, options);
  ASSERT_TRUE(scheduler.ok());
  ScriptedProvider big_provider = OracleProvider(0b11110000);
  ASSERT_TRUE(
      scheduler->AddInstance("big", UniformJoint(8), &big_provider).ok());
  std::vector<std::unique_ptr<ScriptedProvider>> providers;
  for (int i = 0; i < 2; ++i) {
    auto small = JointDistribution::FromIndependentMarginals(
        std::vector<double>{0.9, 0.1});
    ASSERT_TRUE(small.ok());
    providers.push_back(
        std::make_unique<ScriptedProvider>(OracleProvider(0b01)));
    ASSERT_TRUE(scheduler
                    ->AddInstance("small" + std::to_string(i), *small,
                                  providers.back().get())
                    .ok());
  }
  auto records = scheduler->RunPipelined();
  ASSERT_TRUE(records.ok());
  // Uniform split would give 10 each; the big book should get well beyond.
  EXPECT_GT(scheduler->cost_spent(0), 15);
}

}  // namespace
}  // namespace crowdfusion::core
