#ifndef CROWDFUSION_EVAL_EXPERIMENT_H_
#define CROWDFUSION_EVAL_EXPERIMENT_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/status.h"
#include "data/book_dataset.h"
#include "data/correlation_model.h"
#include "eval/metrics.h"

namespace crowdfusion::eval {

/// Which machine-only fusion method initializes the joint distributions.
enum class Initializer {
  kCrh,
  kMajorityVote,
  kTruthFinder,
  kAccu,
  kSums,
  kAverageLog,
  kInvestment,
};

/// Which task selector drives the rounds.
enum class SelectorKind {
  kGreedy,
  kGreedyPrune,
  kGreedyPre,
  kGreedyPrunePre,
  kOpt,
  kRandom,
};

const char* InitializerName(Initializer initializer);
const char* SelectorKindName(SelectorKind kind);

/// Configuration of one end-to-end run over a Book dataset, mirroring
/// Section V-A: per-book budget B, k tasks per round, crowd accuracy Pc.
struct ExperimentOptions {
  data::BookDatasetOptions dataset;
  data::CorrelationModelOptions correlation;
  Initializer initializer = Initializer::kCrh;
  SelectorKind selector = SelectorKind::kGreedyPrunePre;
  /// B: total tasks per book.
  int budget_per_book = 60;
  /// k: tasks per round.
  int tasks_per_round = 1;
  /// Pc the system's Bayesian update assumes.
  double assumed_pc = 0.8;
  /// Accuracy of the simulated workers (may differ from assumed_pc).
  double true_accuracy = 0.8;
  /// Use the Section V-D category-biased crowd instead of the uniform one;
  /// base accuracy is still `true_accuracy`.
  bool biased_crowd = false;
  uint64_t crowd_seed = 1234;
  uint64_t selector_seed = 77;
  /// Books with more statements than this are truncated to their first
  /// max_facts_per_book statements (dense joint guard).
  int max_facts_per_book = 16;
};

/// One point of a quality-vs-cost curve (the Figures 2-4 series):
/// aggregated over all books after each global round.
struct CurvePoint {
  int cost = 0;            // total tasks spent across all books
  double f1 = 0.0;         // global F1 over every statement
  double utility_bits = 0; // summed Q(F) over all books
  double precision = 0.0;
  double recall = 0.0;
};

struct ExperimentResult {
  std::string label;
  std::vector<CurvePoint> curve;  // curve[0] is the initial state (cost 0)
  PrecisionRecallF1 initial_quality;
  PrecisionRecallF1 final_quality;
  double initial_utility_bits = 0.0;
  double final_utility_bits = 0.0;
  /// Selection wall-clock across all rounds and books, seconds.
  double selection_seconds = 0.0;
  /// Empirical accuracy of the simulated crowd over the run.
  double crowd_empirical_accuracy = 0.0;
  int books_evaluated = 0;
  int total_facts = 0;
};

/// Runs the full pipeline: generate dataset -> machine-only fusion ->
/// correlation model -> multi-round CrowdFusion on every book, advancing
/// all books one round at a time so the curve's x-axis is the global task
/// count (as in the paper's figures).
common::Result<ExperimentResult> RunExperiment(
    const ExperimentOptions& options);

}  // namespace crowdfusion::eval

#endif  // CROWDFUSION_EVAL_EXPERIMENT_H_
