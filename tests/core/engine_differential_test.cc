/// Engine mode has no loop of its own: each book runs on a one-instance
/// BudgetScheduler with a window of 1 and the book's budget B. Across 64
/// seeds × k ∈ {1, 2, 3} × B ∈ {5, 17, 40} × greedy with pruning and
/// preprocessing on or off (and the query-based selector), that scheduler
/// reproduces the paper's engine, CrowdFusionEngine::Run
/// (tests/support/engine_oracle.h), round for round: the same tasks and
/// answers, bit-equal H(T) and utility (sign of zero included), the same
/// cumulative cost, the engine's empty last round as the exhaustion
/// marker, and an == final joint.

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <string>
#include <vector>

#include "common/random.h"
#include "core/greedy_selector.h"
#include "core/query_based.h"
#include "core/scheduler.h"
#include "crowd/simulated_crowd.h"
#include "support/engine_oracle.h"
#include "support/status_printing.h"

namespace crowdfusion::core {
namespace {

constexpr int kSeeds = 64;
constexpr int kFacts = 8;
constexpr double kPc = 0.8;

struct Book {
  JointDistribution joint;
  std::vector<bool> truths;
};

/// A dense joint over all 2^8 outputs with seeded random masses.
Book MakeBook(uint64_t seed) {
  common::Rng rng(seed * 6151 + 7);
  std::vector<double> probs(size_t{1} << kFacts);
  for (double& p : probs) p = rng.NextUniform(0.01, 1.0);
  auto joint = JointDistribution::FromDense(kFacts, probs, /*normalize=*/true);
  EXPECT_TRUE(joint.ok()) << joint.status();
  Book book{std::move(joint).value(), std::vector<bool>(kFacts)};
  for (int f = 0; f < kFacts; ++f) {
    book.truths[static_cast<size_t>(f)] = rng.NextBernoulli(0.5);
  }
  return book;
}

uint64_t Bits(double value) { return std::bit_cast<uint64_t>(value); }

/// Runs `book` through the oracle engine and a one-instance scheduler,
/// each against its own identically seeded crowd, and compares them.
/// Counts the runs that ended on an exhaustion marker in `exhausted`.
void ExpectSchedulerMatchesEngine(const Book& book, TaskSelector& selector,
                                  int budget, int k, uint64_t crowd_seed,
                                  const std::string& where, int& exhausted) {
  const CrowdModel crowd = CrowdModel::Create(kPc).value();

  crowd::SimulatedCrowd engine_crowd =
      crowd::SimulatedCrowd::WithUniformAccuracy(book.truths, kPc, crowd_seed);
  auto engine = CrowdFusionEngine::Create(
      book.joint, crowd, &selector, &engine_crowd,
      EngineOptions{.budget = budget, .tasks_per_round = k});
  ASSERT_TRUE(engine.ok()) << where << ": " << engine.status();
  auto rounds = engine->Run();
  ASSERT_TRUE(rounds.ok()) << where << ": " << rounds.status();

  crowd::SimulatedCrowd scheduler_crowd =
      crowd::SimulatedCrowd::WithUniformAccuracy(book.truths, kPc, crowd_seed);
  auto scheduler = BudgetScheduler::Create(
      crowd, &selector,
      {.total_budget = budget, .tasks_per_step = k, .max_in_flight = 1});
  ASSERT_TRUE(scheduler.ok()) << where << ": " << scheduler.status();
  ASSERT_TRUE(
      scheduler->AddInstance("book", book.joint, &scheduler_crowd).ok());
  auto steps = scheduler->RunPipelined();
  ASSERT_TRUE(steps.ok()) << where << ": " << steps.status();

  ASSERT_EQ(rounds->size(), steps->size()) << where;
  for (size_t r = 0; r < rounds->size(); ++r) {
    const RoundRecord& round = (*rounds)[r];
    const BudgetScheduler::StepRecord& step = (*steps)[r];
    const std::string at = where + " round " + std::to_string(r);
    EXPECT_EQ(round.round, step.step) << at;
    EXPECT_EQ(step.instance, round.tasks.empty() ? -1 : 0) << at;
    EXPECT_EQ(round.tasks, step.tasks) << at;
    EXPECT_EQ(round.answers, step.answers) << at;
    EXPECT_EQ(Bits(round.selected_entropy_bits),
              Bits(step.selected_entropy_bits))
        << at;
    EXPECT_EQ(Bits(round.utility_bits), Bits(step.total_utility_bits)) << at;
    EXPECT_EQ(round.cumulative_cost, step.cumulative_cost) << at;
  }
  if (!steps->empty() && steps->back().instance < 0) ++exhausted;
  EXPECT_EQ(engine->current(), scheduler->joint(0)) << where;
  EXPECT_EQ(engine->cost_spent(), scheduler->total_cost_spent()) << where;
}

/// One test per k, so each stays well inside the per-test timeout.
class EngineDifferentialTest : public ::testing::TestWithParam<int> {};

TEST_P(EngineDifferentialTest, OneInstanceSchedulerIsTheGreedyEngine) {
  const int k = GetParam();
  int exhausted = 0;
  for (uint64_t seed = 1; seed <= kSeeds; ++seed) {
    const Book book = MakeBook(seed);
    for (const bool optimized : {false, true}) {
      GreedySelector::Options options;
      options.use_pruning = optimized;
      options.use_preprocessing = optimized;
      GreedySelector selector(options);
      for (const int budget : {5, 17, 40}) {
        ExpectSchedulerMatchesEngine(
            book, selector, budget, k, seed * 31 + 5,
            "seed " + std::to_string(seed) + " optimized " +
                std::to_string(optimized) + " B " + std::to_string(budget),
            exhausted);
      }
    }
  }
  // A noisy crowd keeps every book uncertain: the budget always runs out.
  EXPECT_EQ(exhausted, 0);
}

TEST_P(EngineDifferentialTest, OneInstanceSchedulerIsTheQueryBasedEngine) {
  const int k = GetParam();
  // The query-based selector stops with a selection whose "entropy" is the
  // current FOI utility; the exhaustion marker must carry it as the
  // engine's empty round does. A gain floor makes it stop within budget.
  QueryBasedGreedySelector::Options options;
  options.foi = {0, 1};
  options.min_gain_bits = 0.02;
  QueryBasedGreedySelector selector(options);
  int exhausted = 0;
  for (uint64_t seed = 1; seed <= kSeeds; ++seed) {
    ExpectSchedulerMatchesEngine(MakeBook(seed), selector, /*budget=*/17, k,
                                 seed * 31 + 5,
                                 "seed " + std::to_string(seed), exhausted);
  }
  EXPECT_GT(exhausted, 0);
}

INSTANTIATE_TEST_SUITE_P(TasksPerRound, EngineDifferentialTest,
                         ::testing::Values(1, 2, 3));

}  // namespace
}  // namespace crowdfusion::core
