/// Engine mode's per-book loop: one BudgetScheduler over one instance,
/// one ticket at a time, with the book's budget B and k tasks per round.
/// These pin the product behaviours the paper's Figure-1 engine had:
/// argument validation, the k clamp on the last round, exact cost
/// accounting, and one-call failure of a round.

#include <gtest/gtest.h>

#include "core/greedy_selector.h"
#include "core/running_example.h"
#include "core/scheduler.h"
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

/// The engine-mode options: budget B, k tasks per round, one ticket at a
/// time (one attempt, kAbort).
BudgetScheduler::Options BookOptions(int budget, int tasks_per_round) {
  return {.total_budget = budget,
          .tasks_per_step = tasks_per_round,
          .max_in_flight = 1};
}

/// One book's loop over the running example, served by `provider`.
BudgetScheduler MakeBook(TaskSelector* selector, AsyncAnswerProvider* provider,
                         BudgetScheduler::Options options,
                         double pc = 0.8) {
  auto scheduler = BudgetScheduler::Create(MakeCrowd(pc), selector, options);
  EXPECT_TRUE(scheduler.ok()) << scheduler.status().ToString();
  EXPECT_TRUE(
      scheduler->AddInstance("hong-kong", RunningExample::Joint(), provider)
          .ok());
  return std::move(scheduler).value();
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
  common::Result<TicketStatus> Collect(TicketId ticket) override {
    return ledger_.Collect(ticket);
  }

 private:
  TicketLedger ledger_{nullptr};
};

TEST(EngineTest, CreateValidatesArguments) {
  const CrowdModel crowd = MakeCrowd(0.8);
  GreedySelector selector;
  EXPECT_FALSE(
      BudgetScheduler::Create(crowd, nullptr, BookOptions(10, 1)).ok());
  EXPECT_FALSE(
      BudgetScheduler::Create(crowd, &selector, BookOptions(-1, 1)).ok());
  EXPECT_FALSE(
      BudgetScheduler::Create(crowd, &selector, BookOptions(10, 0)).ok());
  auto scheduler =
      BudgetScheduler::Create(crowd, &selector, BookOptions(10, 1));
  ASSERT_TRUE(scheduler.ok());
  EXPECT_FALSE(
      scheduler->AddInstance("book", RunningExample::Joint(), nullptr).ok());
}

TEST(EngineTest, ZeroBudgetRunsNoRounds) {
  GreedySelector selector;
  ScriptedProvider provider = OracleProvider(0b0111);
  BudgetScheduler book = MakeBook(&selector, &provider, BookOptions(0, 1));
  EXPECT_FALSE(book.HasBudget());
  auto records = book.RunPipelined();
  ASSERT_TRUE(records.ok());
  EXPECT_TRUE(records->empty());
  EXPECT_EQ(provider.calls(), 0);
}

TEST(EngineTest, SpendsExactlyTheBudget) {
  GreedySelector selector;
  ScriptedProvider provider = OracleProvider(0b0111);
  BudgetScheduler book = MakeBook(&selector, &provider, BookOptions(7, 2));
  auto records = book.RunPipelined();
  ASSERT_TRUE(records.ok());
  EXPECT_EQ(book.total_cost_spent(), 7);
  // Rounds of 2, 2, 2, then a final round clamped to the 1 task left.
  ASSERT_EQ(records->size(), 4u);
  EXPECT_EQ(records->back().tasks.size(), 1u);
  EXPECT_EQ(records->back().cumulative_cost, 7);
}

TEST(EngineTest, TruthConsistentAnswersRaiseUtility) {
  GreedySelector selector;
  // Ground truth: f1, f2, f3 true; f4 false (Hong Kong is in Asia).
  ScriptedProvider provider = OracleProvider(0b0111);
  BudgetScheduler book = MakeBook(&selector, &provider, BookOptions(30, 1));
  const double initial_utility = -RunningExample::Joint().EntropyBits();
  auto records = book.RunPipelined();
  ASSERT_TRUE(records.ok());
  ASSERT_FALSE(records->empty());
  EXPECT_GT(records->back().total_utility_bits, initial_utility + 2.0);
  // Posterior should now lean strongly toward the truth.
  EXPECT_GT(book.joint(0).Marginal(0), 0.95);
  EXPECT_GT(book.joint(0).Marginal(1), 0.95);
  EXPECT_GT(book.joint(0).Marginal(2), 0.95);
  EXPECT_LT(book.joint(0).Marginal(3), 0.05);
}

TEST(EngineTest, RoundRecordsAreConsistent) {
  const CrowdModel crowd = MakeCrowd(0.8);
  GreedySelector selector;
  ScriptedProvider provider = OracleProvider(0b0111);
  BudgetScheduler book = MakeBook(&selector, &provider, BookOptions(6, 3));
  auto records = book.RunPipelined();
  ASSERT_TRUE(records.ok());
  int expected_cost = 0;
  int round = 0;
  for (const BudgetScheduler::StepRecord& record : *records) {
    EXPECT_EQ(record.step, round++);
    EXPECT_EQ(record.instance, 0);
    EXPECT_EQ(record.tasks.size(), record.answers.size());
    expected_cost += static_cast<int>(record.tasks.size());
    EXPECT_EQ(record.cumulative_cost, expected_cost);
    // The selector's own H(T), and the gain derived from it.
    EXPECT_GT(record.selected_entropy_bits, 0.0);
    EXPECT_EQ(record.expected_gain_bits,
              record.selected_entropy_bits -
                  static_cast<double>(record.tasks.size()) *
                      crowd.EntropyBits());
  }
  EXPECT_EQ(expected_cost, 6);
}

TEST(EngineTest, ProviderErrorPropagates) {
  GreedySelector selector;
  ScriptedProvider provider = FlakyProvider(1 << 30);  // never recovers
  BudgetScheduler book = MakeBook(&selector, &provider, BookOptions(60, 1));
  EXPECT_EQ(book.RunPipelined().status().code(), StatusCode::kUnavailable);
  EXPECT_EQ(book.total_cost_spent(), 0);
}

TEST(EngineTest, FailedCollectionFailsTheRoundAfterExactlyOneCall) {
  // A round is one single-attempt ticket: the outage surfaces after one
  // collection call instead of being retried behind the caller's back,
  // and nothing is merged, charged or reserved.
  GreedySelector selector;
  ScriptedProvider provider = FlakyProvider(1);
  BudgetScheduler book = MakeBook(&selector, &provider, BookOptions(1, 1));
  std::vector<BudgetScheduler::StepRecord> records;
  const common::Status failed = book.RunPipelinedStep(records).status();
  EXPECT_EQ(failed.code(), StatusCode::kUnavailable);
  EXPECT_EQ(failed.message(), "scripted outage");
  EXPECT_EQ(provider.calls(), 1);
  EXPECT_TRUE(records.empty());
  EXPECT_EQ(book.total_cost_spent(), 0);
  EXPECT_EQ(book.joint(0).EntropyBits(),
            RunningExample::Joint().EntropyBits());

  // The outage is over: the next round collects on its first call, with
  // the whole budget and the first step number.
  auto more = book.RunPipelinedStep(records);
  ASSERT_TRUE(more.ok()) << more.status().ToString();
  EXPECT_EQ(provider.calls(), 2);
  EXPECT_EQ(book.total_cost_spent(), 1);
  ASSERT_EQ(records.size(), 1u);
  EXPECT_EQ(records[0].step, 0);
  EXPECT_EQ(records[0].tasks.size(), 1u);
}

TEST(EngineTest, ProviderSizeMismatchDetected) {
  GreedySelector selector;
  ShortProvider provider;
  BudgetScheduler book = MakeBook(&selector, &provider, BookOptions(60, 1));
  EXPECT_EQ(book.RunPipelined().status().code(), StatusCode::kInternal);
  EXPECT_EQ(book.total_cost_spent(), 0);
}

TEST(EngineTest, PerfectCrowdStopsWhenCertain) {
  // With Pc = 1 the loop drives entropy to 0, after which the greedy
  // selects nothing and the run ends early, with leftover budget, on the
  // exhaustion marker.
  GreedySelector selector;
  ScriptedProvider provider = OracleProvider(0b0111);
  BudgetScheduler book =
      MakeBook(&selector, &provider, BookOptions(100, 2), /*pc=*/1.0);
  auto records = book.RunPipelined();
  ASSERT_TRUE(records.ok());
  EXPECT_LT(book.total_cost_spent(), 100);
  EXPECT_NEAR(book.joint(0).EntropyBits(), 0.0, 1e-9);
  ASSERT_FALSE(records->empty());
  EXPECT_TRUE(records->back().tasks.empty());
  EXPECT_EQ(records->back().instance, -1);
}

}  // namespace
}  // namespace crowdfusion::core
