#include "core/bayes.h"

#include <bit>
#include <optional>
#include <vector>

#include "common/string_util.h"

namespace crowdfusion::core {

using common::Status;

namespace {

Status ValidateAnswerSet(const JointDistribution& prior,
                         const AnswerSet& answer_set) {
  if (answer_set.tasks.size() != answer_set.answers.size()) {
    return Status::InvalidArgument(common::StrFormat(
        "answer set has %zu tasks but %zu answers", answer_set.tasks.size(),
        answer_set.answers.size()));
  }
  uint64_t seen = 0;  // num_facts <= 64, so one bit per fact id
  for (int t : answer_set.tasks) {
    if (t < 0 || t >= prior.num_facts()) {
      return Status::OutOfRange(
          common::StrFormat("task fact id %d out of range [0, %d)", t,
                            prior.num_facts()));
    }
    const uint64_t bit = 1ULL << t;
    if ((seen & bit) != 0) {
      return Status::InvalidArgument(common::StrFormat(
          "task fact id %d appears twice in one answer set", t));
    }
    seen |= bit;
  }
  return Status::Ok();
}

/// Unnormalized posterior weights P(o) * P(Ans | o), aligned with
/// prior.entries(). The answers are laid over the tasks' own mask bits, so
/// #Diff of an output is one popcount, and the k+1 possible likelihoods are
/// computed once. Precondition: ValidateAnswerSet passed (distinct tasks).
std::vector<double> EntryWeights(const JointDistribution& prior,
                                 const AnswerSet& answer_set,
                                 const CrowdModel& crowd) {
  const int k = static_cast<int>(answer_set.tasks.size());
  uint64_t task_bits = 0;
  uint64_t answer_bits = 0;
  for (int i = 0; i < k; ++i) {
    const uint64_t bit = 1ULL << answer_set.tasks[static_cast<size_t>(i)];
    task_bits |= bit;
    if (answer_set.answers[static_cast<size_t>(i)]) answer_bits |= bit;
  }
  const std::vector<double> likelihood = crowd.AnswerLikelihoodsByDiff(k);
  std::vector<double> weights;
  weights.reserve(prior.entries().size());
  for (const auto& entry : prior.entries()) {
    const int diff = std::popcount((entry.mask ^ answer_bits) & task_bits);
    weights.push_back(entry.prob * likelihood[static_cast<size_t>(diff)]);
  }
  return weights;
}

}  // namespace

common::Result<JointDistribution> PosteriorGivenAnswers(
    const JointDistribution& prior, const AnswerSet& answer_set,
    const CrowdModel& crowd) {
  CF_RETURN_IF_ERROR(ValidateAnswerSet(prior, answer_set));
  std::optional<JointDistribution> posterior =
      prior.Renormalized(EntryWeights(prior, answer_set, crowd));
  if (!posterior.has_value()) {
    return Status::FailedPrecondition(
        "received answers have zero probability under the prior "
        "(impossible evidence; check Pc and the prior support)");
  }
  return std::move(*posterior);
}

common::Result<double> AnswerSetProbability(const JointDistribution& prior,
                                            const AnswerSet& answer_set,
                                            const CrowdModel& crowd) {
  CF_RETURN_IF_ERROR(ValidateAnswerSet(prior, answer_set));
  double total = 0.0;
  for (double w : EntryWeights(prior, answer_set, crowd)) total += w;
  return total;
}

common::Result<JointDistribution> PosteriorGivenAnswerSets(
    const JointDistribution& prior, std::span<const AnswerSet> answer_sets,
    const CrowdModel& crowd) {
  JointDistribution current = prior;
  for (const AnswerSet& answers : answer_sets) {
    CF_ASSIGN_OR_RETURN(current,
                        PosteriorGivenAnswers(current, answers, crowd));
  }
  return current;
}

}  // namespace crowdfusion::core
