#include "eval/experiment.h"

#include <utility>

#include "common/string_util.h"
#include "core/registry.h"
#include "service/fusion_service.h"

namespace crowdfusion::eval {

using common::Status;

const char* InitializerName(Initializer initializer) {
  switch (initializer) {
    case Initializer::kCrh:
      return "CRH";
    case Initializer::kMajorityVote:
      return "MajorityVote";
    case Initializer::kTruthFinder:
      return "TruthFinder";
    case Initializer::kAccu:
      return "Accu";
    case Initializer::kSums:
      return "Sums";
    case Initializer::kAverageLog:
      return "AverageLog";
    case Initializer::kInvestment:
      return "Investment";
  }
  return "Unknown";
}

const char* SelectorKindName(SelectorKind kind) {
  switch (kind) {
    case SelectorKind::kGreedy:
      return "Approx.";
    case SelectorKind::kGreedyPrune:
      return "Approx.&Prune";
    case SelectorKind::kGreedyPre:
      return "Approx.&Pre.";
    case SelectorKind::kGreedyPrunePre:
      return "Approx.&Prune&Pre.";
    case SelectorKind::kOpt:
      return "OPT";
    case SelectorKind::kRandom:
      return "Random";
  }
  return "Unknown";
}

namespace {

/// The fuser-registry key of an Initializer (the config spelling).
const char* InitializerKey(Initializer initializer) {
  switch (initializer) {
    case Initializer::kCrh:
      return "crh";
    case Initializer::kMajorityVote:
      return "majority_vote";
    case Initializer::kTruthFinder:
      return "truthfinder";
    case Initializer::kAccu:
      return "accu";
    case Initializer::kSums:
      return "sums";
    case Initializer::kAverageLog:
      return "averagelog";
    case Initializer::kInvestment:
      return "investment";
  }
  return "unknown";
}

/// The selector-registry spec of a SelectorKind.
core::SelectorSpec SelectorSpecFor(SelectorKind kind, uint64_t seed) {
  core::SelectorSpec spec;
  spec.seed = seed;
  switch (kind) {
    case SelectorKind::kGreedy:
      spec.kind = "greedy";
      spec.use_pruning = false;
      spec.use_preprocessing = false;
      break;
    case SelectorKind::kGreedyPrune:
      spec.kind = "greedy";
      spec.use_pruning = true;
      spec.use_preprocessing = false;
      break;
    case SelectorKind::kGreedyPre:
      spec.kind = "greedy";
      spec.use_pruning = false;
      spec.use_preprocessing = true;
      break;
    case SelectorKind::kGreedyPrunePre:
      spec.kind = "greedy";
      spec.use_pruning = true;
      spec.use_preprocessing = true;
      break;
    case SelectorKind::kOpt:
      // The fast entropy path (quality comparisons); the Table V harness
      // constructs its paper-faithful brute-force variants directly.
      spec.kind = "opt";
      break;
    case SelectorKind::kRandom:
      spec.kind = "random";
      break;
  }
  return spec;
}

/// Translates ExperimentOptions into the one typed engine-mode request the
/// service facade consumes — the experiment harness is a thin client now.
service::FusionRequest BuildRequest(const ExperimentOptions& options) {
  service::FusionRequest request;
  request.mode = service::RunMode::kEngine;
  service::DatasetSpec dataset;
  dataset.generate = options.dataset;
  dataset.correlation = options.correlation;
  dataset.fuser.kind = InitializerKey(options.initializer);
  dataset.max_facts_per_book = options.max_facts_per_book;
  request.dataset = std::move(dataset);
  request.selector = SelectorSpecFor(options.selector, options.selector_seed);
  request.provider.kind = "simulated_crowd";
  request.provider.accuracy = options.true_accuracy;
  request.provider.biased = options.biased_crowd;
  request.provider.seed = options.crowd_seed;
  request.assumed_pc = options.assumed_pc;
  request.budget.budget_per_instance = options.budget_per_book;
  request.budget.tasks_per_step = options.tasks_per_round;
  return request;
}

common::Status ValidateOptions(const ExperimentOptions& options) {
  if (options.budget_per_book < 0) {
    return Status::InvalidArgument("budget must be non-negative");
  }
  if (options.tasks_per_round <= 0) {
    return Status::InvalidArgument("tasks_per_round must be positive");
  }
  return Status::Ok();
}

/// Scores the session's current joints against its gold labels — one
/// quality-vs-cost curve point (the Figures 2-4 series).
CurvePoint ScoreSession(const service::Session& session, int total_cost) {
  CurvePoint point;
  point.cost = total_cost;
  ConfusionCounts counts;
  double utility = 0.0;
  for (int i = 0; i < session.num_instances(); ++i) {
    counts += CountConfusion(session.joint(i).Marginals(), session.truths(i));
    utility += -session.joint(i).EntropyBits();
  }
  const PrecisionRecallF1 prf = ComputeF1(counts);
  point.f1 = prf.f1;
  point.precision = prf.precision;
  point.recall = prf.recall;
  point.utility_bits = utility;
  return point;
}

void FillWorkloadStats(const service::Session& session,
                       ExperimentResult& result) {
  result.books_evaluated = session.num_instances();
  for (int i = 0; i < session.num_instances(); ++i) {
    result.total_facts += session.num_facts(i);
  }
  const auto [served, correct] = session.answers_served_correct();
  result.crowd_empirical_accuracy =
      served > 0 ? static_cast<double>(correct) / static_cast<double>(served)
                 : 0.0;
}

}  // namespace

common::Result<ExperimentResult> RunExperiment(
    const ExperimentOptions& options) {
  CF_RETURN_IF_ERROR(ValidateOptions(options));
  service::FusionService service;
  CF_ASSIGN_OR_RETURN(const std::unique_ptr<service::Session> session,
                      service.CreateSession(BuildRequest(options)));

  ExperimentResult result;
  result.label = common::StrFormat(
      "%s k=%d Pc=%.2f", SelectorKindName(options.selector),
      options.tasks_per_round, options.assumed_pc);

  const CurvePoint initial = ScoreSession(*session, 0);
  result.curve.push_back(initial);
  result.initial_quality = {initial.precision, initial.recall, initial.f1};
  result.initial_utility_bits = initial.utility_bits;

  // Each Step is one global round: every live book advances one engine
  // round, so curve costs are the paper's global task counts.
  while (!session->done()) {
    CF_ASSIGN_OR_RETURN(const std::vector<service::StepOutcome> outcomes,
                        session->Step());
    if (outcomes.empty()) break;
    result.curve.push_back(
        ScoreSession(*session, session->total_cost_spent()));
  }

  const CurvePoint& final_point = result.curve.back();
  result.final_quality = {final_point.precision, final_point.recall,
                          final_point.f1};
  result.final_utility_bits = final_point.utility_bits;
  result.selection_seconds = session->selection_seconds();
  FillWorkloadStats(*session, result);
  return result;
}

}  // namespace crowdfusion::eval
