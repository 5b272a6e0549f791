#include "crowd/accuracy_estimator.h"

#include <cmath>

#include "common/clock.h"
#include "common/math_util.h"
#include "common/string_util.h"

namespace crowdfusion::crowd {

using common::Status;

common::Result<core::CrowdModel> AccuracyEstimate::ToCrowdModel() const {
  if (trials == 0) {
    return Status::FailedPrecondition("no pre-test trials recorded");
  }
  return core::CrowdModel::Create(common::Clamp(mean, 0.5, 1.0));
}

AccuracyEstimate WilsonEstimate(int correct, int trials, double z) {
  AccuracyEstimate estimate;
  estimate.trials = trials;
  estimate.correct = correct;
  if (trials <= 0) return estimate;
  const double n = static_cast<double>(trials);
  const double p = static_cast<double>(correct) / n;
  estimate.mean = p;
  const double z2 = z * z;
  const double denominator = 1.0 + z2 / n;
  const double center = (p + z2 / (2.0 * n)) / denominator;
  const double margin =
      z * std::sqrt(p * (1.0 - p) / n + z2 / (4.0 * n * n)) / denominator;
  estimate.lower = common::Clamp(center - margin, 0.0, 1.0);
  estimate.upper = common::Clamp(center + margin, 0.0, 1.0);
  return estimate;
}

common::Result<AccuracyEstimate> EstimateAccuracy(
    core::AsyncAnswerProvider& provider, const std::vector<int>& gold_fact_ids,
    const std::vector<bool>& gold_truths, int repetitions) {
  if (gold_fact_ids.empty()) {
    return Status::InvalidArgument("gold task set is empty");
  }
  if (gold_fact_ids.size() != gold_truths.size()) {
    return Status::InvalidArgument(common::StrFormat(
        "%zu gold tasks but %zu truths", gold_fact_ids.size(),
        gold_truths.size()));
  }
  if (repetitions <= 0) {
    return Status::InvalidArgument("repetitions must be positive");
  }
  int correct = 0;
  int trials = 0;
  for (int r = 0; r < repetitions; ++r) {
    CF_ASSIGN_OR_RETURN(std::vector<bool> answers,
                        core::SubmitAndAwait(provider, gold_fact_ids,
                                             common::Clock::Real()));
    if (answers.size() != gold_fact_ids.size()) {
      return Status::Internal("provider returned wrong answer count");
    }
    for (size_t i = 0; i < answers.size(); ++i) {
      ++trials;
      if (answers[i] == gold_truths[i]) ++correct;
    }
  }
  return WilsonEstimate(correct, trials);
}

}  // namespace crowdfusion::crowd
