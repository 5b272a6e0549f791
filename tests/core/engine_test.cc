#include "core/crowdfusion.h"

#include <gtest/gtest.h>

#include "common/random.h"
#include "core/greedy_selector.h"
#include "core/running_example.h"
#include "core/scripted_provider.h"
#include "oracle_provider.h"

namespace crowdfusion::core {
namespace {

using common::StatusCode;

CrowdModel MakeCrowd(double pc) {
  auto crowd = CrowdModel::Create(pc);
  EXPECT_TRUE(crowd.ok());
  return std::move(crowd).value();
}

/// A crowd whose first `failures` collection attempts fail (kUnavailable).
ScriptedProvider FlakyProvider(int failures) {
  ScriptedProvider::Options options;
  options.script = {true, true, true, false};
  options.failures_before_success = failures;
  return ScriptedProvider(std::move(options));
}

/// Provider returning the wrong number of answers, which a script cannot
/// express.
class ShortProvider : public AsyncAnswerProvider {
 public:
  common::Result<TicketId> Submit(std::span<const int>,
                                  const TicketOptions&) override {
    TicketLedger::Outcome outcome;
    outcome.result = std::vector<bool>{};
    return ledger_.Add(std::move(outcome));
  }
  using AsyncAnswerProvider::Submit;
  common::Result<TicketStatus> Poll(TicketId ticket) override {
    return ledger_.Poll(ticket);
  }
  common::Result<std::vector<bool>> Await(TicketId ticket) override {
    return ledger_.Await(ticket);
  }

 private:
  TicketLedger ledger_{nullptr};
};

TEST(EngineTest, CreateValidatesArguments) {
  const JointDistribution joint = RunningExample::Joint();
  const CrowdModel crowd = MakeCrowd(0.8);
  GreedySelector selector;
  ScriptedProvider provider = OracleProvider(0b0111);
  EngineOptions options;
  EXPECT_FALSE(CrowdFusionEngine::Create(joint, crowd, nullptr, &provider,
                                         options)
                   .ok());
  EXPECT_FALSE(
      CrowdFusionEngine::Create(joint, crowd, &selector, nullptr, options)
          .ok());
  options.budget = -1;
  EXPECT_FALSE(
      CrowdFusionEngine::Create(joint, crowd, &selector, &provider, options)
          .ok());
  options.budget = 10;
  options.tasks_per_round = 0;
  EXPECT_FALSE(
      CrowdFusionEngine::Create(joint, crowd, &selector, &provider, options)
          .ok());
}

TEST(EngineTest, ZeroBudgetRunsNoRounds) {
  const JointDistribution joint = RunningExample::Joint();
  const CrowdModel crowd = MakeCrowd(0.8);
  GreedySelector selector;
  ScriptedProvider provider = OracleProvider(0b0111);
  EngineOptions options;
  options.budget = 0;
  auto engine =
      CrowdFusionEngine::Create(joint, crowd, &selector, &provider, options);
  ASSERT_TRUE(engine.ok());
  EXPECT_FALSE(engine->HasBudget());
  auto records = engine->Run();
  ASSERT_TRUE(records.ok());
  EXPECT_TRUE(records->empty());
  EXPECT_EQ(engine->RunRound().status().code(),
            StatusCode::kFailedPrecondition);
}

TEST(EngineTest, SpendsExactlyTheBudget) {
  const JointDistribution joint = RunningExample::Joint();
  const CrowdModel crowd = MakeCrowd(0.8);
  GreedySelector selector;
  ScriptedProvider provider = OracleProvider(0b0111);
  EngineOptions options;
  options.budget = 7;
  options.tasks_per_round = 2;
  auto engine =
      CrowdFusionEngine::Create(joint, crowd, &selector, &provider, options);
  ASSERT_TRUE(engine.ok());
  auto records = engine->Run();
  ASSERT_TRUE(records.ok());
  EXPECT_EQ(engine->cost_spent(), 7);
  // Rounds of 2, 2, 2, then a final round of 1.
  ASSERT_EQ(records->size(), 4u);
  EXPECT_EQ(records->back().tasks.size(), 1u);
  EXPECT_EQ(records->back().cumulative_cost, 7);
}

TEST(EngineTest, TruthConsistentAnswersRaiseUtility) {
  const JointDistribution joint = RunningExample::Joint();
  const CrowdModel crowd = MakeCrowd(0.8);
  GreedySelector selector;
  // Ground truth: f1, f2, f3 true; f4 false (Hong Kong is in Asia).
  ScriptedProvider provider = OracleProvider(0b0111);
  EngineOptions options;
  options.budget = 30;
  options.tasks_per_round = 1;
  auto engine =
      CrowdFusionEngine::Create(joint, crowd, &selector, &provider, options);
  ASSERT_TRUE(engine.ok());
  const double initial_utility = -joint.EntropyBits();
  auto records = engine->Run();
  ASSERT_TRUE(records.ok());
  ASSERT_FALSE(records->empty());
  EXPECT_GT(records->back().utility_bits, initial_utility + 2.0);
  // Posterior should now lean strongly toward the truth.
  EXPECT_GT(engine->current().Marginal(0), 0.95);
  EXPECT_GT(engine->current().Marginal(1), 0.95);
  EXPECT_GT(engine->current().Marginal(2), 0.95);
  EXPECT_LT(engine->current().Marginal(3), 0.05);
}

TEST(EngineTest, RoundRecordsAreConsistent) {
  const JointDistribution joint = RunningExample::Joint();
  const CrowdModel crowd = MakeCrowd(0.8);
  GreedySelector selector;
  ScriptedProvider provider = OracleProvider(0b0111);
  EngineOptions options;
  options.budget = 6;
  options.tasks_per_round = 3;
  auto engine =
      CrowdFusionEngine::Create(joint, crowd, &selector, &provider, options);
  ASSERT_TRUE(engine.ok());
  auto records = engine->Run();
  ASSERT_TRUE(records.ok());
  int expected_cost = 0;
  int round = 0;
  for (const RoundRecord& record : *records) {
    EXPECT_EQ(record.round, round++);
    EXPECT_EQ(record.tasks.size(), record.answers.size());
    expected_cost += static_cast<int>(record.tasks.size());
    EXPECT_EQ(record.cumulative_cost, expected_cost);
    EXPECT_GT(record.selected_entropy_bits, 0.0);
  }
  EXPECT_EQ(engine->rounds_completed(), static_cast<int>(records->size()));
}

TEST(EngineTest, ProviderErrorPropagates) {
  const JointDistribution joint = RunningExample::Joint();
  const CrowdModel crowd = MakeCrowd(0.8);
  GreedySelector selector;
  ScriptedProvider provider = FlakyProvider(1 << 30);  // never recovers
  EngineOptions options;
  auto engine =
      CrowdFusionEngine::Create(joint, crowd, &selector, &provider, options);
  ASSERT_TRUE(engine.ok());
  EXPECT_EQ(engine->RunRound().status().code(), StatusCode::kUnavailable);
  EXPECT_EQ(engine->cost_spent(), 0);
}

TEST(EngineTest, FailedCollectionFailsTheRoundAfterExactlyOneCall) {
  // A round is one single-attempt ticket: the outage surfaces after one
  // collection call instead of being retried behind the caller's back,
  // and nothing is merged or charged.
  const JointDistribution joint = RunningExample::Joint();
  const CrowdModel crowd = MakeCrowd(0.8);
  GreedySelector selector;
  ScriptedProvider provider = FlakyProvider(1);
  EngineOptions options;
  options.budget = 2;
  auto engine =
      CrowdFusionEngine::Create(joint, crowd, &selector, &provider, options);
  ASSERT_TRUE(engine.ok());
  const common::Status failed = engine->RunRound().status();
  EXPECT_EQ(failed.code(), StatusCode::kUnavailable);
  EXPECT_EQ(failed.message(), "scripted outage");
  EXPECT_EQ(provider.calls(), 1);
  EXPECT_EQ(engine->cost_spent(), 0);
  EXPECT_EQ(engine->rounds_completed(), 0);
  EXPECT_EQ(engine->current().EntropyBits(), joint.EntropyBits());

  // The outage is over: the next round collects on its first call.
  auto record = engine->RunRound();
  ASSERT_TRUE(record.ok());
  EXPECT_EQ(provider.calls(), 2);
  EXPECT_EQ(engine->cost_spent(), 1);
}

TEST(EngineTest, ProviderSizeMismatchDetected) {
  const JointDistribution joint = RunningExample::Joint();
  const CrowdModel crowd = MakeCrowd(0.8);
  GreedySelector selector;
  ShortProvider provider;
  EngineOptions options;
  auto engine =
      CrowdFusionEngine::Create(joint, crowd, &selector, &provider, options);
  ASSERT_TRUE(engine.ok());
  EXPECT_EQ(engine->RunRound().status().code(), StatusCode::kInternal);
}

TEST(EngineTest, PerfectCrowdStopsWhenCertain) {
  // With Pc = 1 the engine drives entropy to 0, after which the greedy
  // selects nothing and Run() terminates early with leftover budget.
  const JointDistribution joint = RunningExample::Joint();
  const CrowdModel crowd = MakeCrowd(1.0);
  GreedySelector selector;
  ScriptedProvider provider = OracleProvider(0b0111);
  EngineOptions options;
  options.budget = 100;
  options.tasks_per_round = 2;
  auto engine =
      CrowdFusionEngine::Create(joint, crowd, &selector, &provider, options);
  ASSERT_TRUE(engine.ok());
  auto records = engine->Run();
  ASSERT_TRUE(records.ok());
  EXPECT_LT(engine->cost_spent(), 100);
  EXPECT_NEAR(engine->current().EntropyBits(), 0.0, 1e-9);
  EXPECT_TRUE(records->back().tasks.empty());
}

}  // namespace
}  // namespace crowdfusion::core
