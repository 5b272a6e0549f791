#ifndef CROWDFUSION_TESTS_SUPPORT_ENGINE_ORACLE_H_
#define CROWDFUSION_TESTS_SUPPORT_ENGINE_ORACLE_H_

#include <span>
#include <vector>

#include "common/status.h"
#include "core/async_provider.h"
#include "core/bayes.h"
#include "core/crowd_model.h"
#include "core/joint_distribution.h"
#include "core/task_selector.h"

namespace crowdfusion::core {

/// One select-collect-merge cycle's outcome.
struct RoundRecord {
  int round = 0;
  std::vector<int> tasks;
  std::vector<bool> answers;
  /// Q(F) = -H(F) after merging this round's answers, bits.
  double utility_bits = 0.0;
  /// Selector's H(T) estimate for the chosen set.
  double selected_entropy_bits = 0.0;
  /// Tasks spent so far, including this round.
  int cumulative_cost = 0;
  SelectionStats selection_stats;
};

/// Engine configuration: plain values only, so copies are always safe.
struct EngineOptions {
  /// Total number of tasks the engine may spend (B in Section V-A).
  int budget = 60;
  /// Tasks per round (k). Per the paper, each round asks
  /// min(k, n, remaining budget) tasks.
  int tasks_per_round = 1;
};

/// The CrowdFusion system loop (Figure 1) written out literally: starting
/// from any probabilistic fusion result, repeatedly select tasks, collect
/// crowd answers, and merge them via Bayes until the budget runs out. Each
/// round collects through the ticket contract: SubmitAndAwait with a
/// single attempt, so a failed collection fails the round after exactly
/// one collection attempt. Waits run on the real clock: the engine's
/// providers answer without latency. The shipped loop is
/// core::BudgetScheduler; a one-instance scheduler with a window of 1 is
/// held to this engine round for round
/// (tests/core/engine_differential_test.cc).
///
/// Lifetime contract: the engine BORROWS the selector and the provider —
/// it never owns or deletes them, and both must outlive the engine and
/// every outstanding round started through it. Violations are asserted
/// (debug-only) at each round; in release they are undefined behavior. The crowd model is copied by value, as is the
/// joint — only those two pointers are borrowed. The crowd model is the
/// accuracy the *system* assumes — experiments may pair it with a provider
/// whose true accuracy differs (the paper's Pc setting study).
class CrowdFusionEngine {
 public:
  static common::Result<CrowdFusionEngine> Create(JointDistribution initial,
                                                  CrowdModel crowd,
                                                  TaskSelector* selector,
                                                  AsyncAnswerProvider* provider,
                                                  EngineOptions options);

  /// True while budget remains and the distribution still has facts.
  bool HasBudget() const { return cost_spent_ < options_.budget; }

  /// Runs one round. Precondition: HasBudget().
  common::Result<RoundRecord> RunRound();

  /// Runs rounds until the budget is exhausted or a round selects nothing.
  common::Result<std::vector<RoundRecord>> Run();

  const JointDistribution& current() const { return current_; }
  int cost_spent() const { return cost_spent_; }
  int rounds_completed() const { return rounds_completed_; }
  const CrowdModel& crowd() const { return crowd_; }

 private:
  CrowdFusionEngine(JointDistribution initial, CrowdModel crowd,
                    TaskSelector* selector, AsyncAnswerProvider* provider,
                    EngineOptions options)
      : current_(std::move(initial)),
        crowd_(crowd),
        selector_(selector),
        provider_(provider),
        options_(options) {}

  JointDistribution current_;
  CrowdModel crowd_;
  TaskSelector* selector_;
  AsyncAnswerProvider* provider_;
  EngineOptions options_;
  int cost_spent_ = 0;
  int rounds_completed_ = 0;
};

}  // namespace crowdfusion::core

#endif  // CROWDFUSION_TESTS_SUPPORT_ENGINE_ORACLE_H_
