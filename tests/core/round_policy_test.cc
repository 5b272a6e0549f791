#include "core/round_policy.h"

#include <gtest/gtest.h>

#include "core/crowdfusion.h"
#include "core/greedy_selector.h"
#include "core/running_example.h"
#include "oracle_provider.h"

namespace crowdfusion::core {
namespace {

RoundPolicy::RoundContext MakeContext(const JointDistribution* joint,
                                      int remaining, int rounds) {
  RoundPolicy::RoundContext context;
  context.joint = joint;
  context.remaining_budget = remaining;
  context.rounds_completed = rounds;
  return context;
}

TEST(FixedKPolicyTest, AlwaysReturnsK) {
  FixedKPolicy policy(3);
  EXPECT_EQ(policy.NextK(MakeContext(nullptr, 100, 0)), 3);
  EXPECT_EQ(policy.NextK(MakeContext(nullptr, 1, 50)), 3);
}

TEST(DeadlinePolicyTest, SpreadsBudgetOverRemainingRounds) {
  DeadlinePolicy policy(/*max_rounds=*/5);
  // 20 tasks over 5 rounds: 4 per round.
  EXPECT_EQ(policy.NextK(MakeContext(nullptr, 20, 0)), 4);
  // After 3 rounds, 8 left over 2 rounds: 4.
  EXPECT_EQ(policy.NextK(MakeContext(nullptr, 8, 3)), 4);
  // Past the deadline it dumps the remainder in one round.
  EXPECT_EQ(policy.NextK(MakeContext(nullptr, 7, 9)), 7);
  // Ceiling division.
  EXPECT_EQ(policy.NextK(MakeContext(nullptr, 7, 3)), 4);
}

TEST(UncertaintyAdaptivePolicyTest, CarefulWhileUncertain) {
  UncertaintyAdaptivePolicy policy;
  // The running example has ~0.96 bits/fact: stay at k = 1.
  const JointDistribution uncertain = RunningExample::Joint();
  EXPECT_EQ(policy.NextK(MakeContext(&uncertain, 60, 0)), 1);
  // A near-certain joint batches aggressively.
  auto confident = JointDistribution::FromIndependentMarginals(
      std::vector<double>{0.99, 0.01, 0.99, 0.01});
  ASSERT_TRUE(confident.ok());
  EXPECT_GT(policy.NextK(MakeContext(&confident.value(), 60, 0)), 3);
  // Degenerate context falls back to 1.
  EXPECT_EQ(policy.NextK(MakeContext(nullptr, 60, 0)), 1);
}

TEST(UncertaintyAdaptivePolicyTest, RespectsMaxK) {
  UncertaintyAdaptivePolicy::Options options;
  options.max_k = 3;
  UncertaintyAdaptivePolicy policy(options);
  auto certain = JointDistribution::PointMass(4, 0b1001);
  ASSERT_TRUE(certain.ok());
  EXPECT_LE(policy.NextK(MakeContext(&certain.value(), 60, 0)), 3);
}

TEST(RoundPolicyEngineTest, DeadlinePolicyBoundsRoundCount) {
  const JointDistribution joint = RunningExample::Joint();
  auto crowd = CrowdModel::Create(0.8);
  ASSERT_TRUE(crowd.ok());
  GreedySelector selector;
  ScriptedProvider provider = OracleProvider(0b0111);
  DeadlinePolicy policy(/*max_rounds=*/4);
  EngineOptions options;
  options.budget = 12;
  options.round_policy = &policy;
  auto engine = CrowdFusionEngine::Create(joint, *crowd, &selector,
                                          &provider, options);
  ASSERT_TRUE(engine.ok());
  auto records = engine->Run();
  ASSERT_TRUE(records.ok());
  EXPECT_LE(records->size(), 4u);
  EXPECT_EQ(engine->cost_spent(), 12);
}

TEST(RoundPolicyEngineTest, AdaptivePolicyStartsCarefulThenBatches) {
  const JointDistribution joint = RunningExample::Joint();
  auto crowd = CrowdModel::Create(0.9);
  ASSERT_TRUE(crowd.ok());
  GreedySelector selector;
  ScriptedProvider provider = OracleProvider(0b0111);
  UncertaintyAdaptivePolicy policy;
  EngineOptions options;
  options.budget = 20;
  options.round_policy = &policy;
  auto engine = CrowdFusionEngine::Create(joint, *crowd, &selector,
                                          &provider, options);
  ASSERT_TRUE(engine.ok());
  auto records = engine->Run();
  ASSERT_TRUE(records.ok());
  ASSERT_GE(records->size(), 2u);
  // First round is careful.
  EXPECT_EQ(records->front().tasks.size(), 1u);
  // Some later round batches more than one task once entropy collapses.
  bool batched = false;
  for (const RoundRecord& record : *records) {
    if (record.tasks.size() > 1) batched = true;
  }
  EXPECT_TRUE(batched);
}

}  // namespace
}  // namespace crowdfusion::core
