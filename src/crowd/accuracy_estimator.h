#ifndef CROWDFUSION_CROWD_ACCURACY_ESTIMATOR_H_
#define CROWDFUSION_CROWD_ACCURACY_ESTIMATOR_H_

#include <vector>

#include "common/status.h"
#include "core/async_provider.h"
#include "core/crowd_model.h"

namespace crowdfusion::crowd {

/// Estimated crowd accuracy from a gold pre-test, with a Wilson score
/// confidence interval.
struct AccuracyEstimate {
  /// Point estimate (correct / trials).
  double mean = 0.0;
  /// Wilson interval at the requested confidence.
  double lower = 0.0;
  double upper = 1.0;
  int trials = 0;
  int correct = 0;

  /// A CrowdModel from the point estimate, clamped into [0.5, 1] (the
  /// paper's model domain; an estimate below 0.5 means the task design is
  /// broken, not that the model should invert answers).
  common::Result<core::CrowdModel> ToCrowdModel() const;
};

/// Wilson score interval for a binomial proportion; z defaults to the
/// two-sided 95% quantile.
AccuracyEstimate WilsonEstimate(int correct, int trials, double z = 1.96);

/// Runs the paper's recommended calibration ("estimate the reliability by a
/// pre-test with groundtruth", Section V-C3): publishes each gold task
/// `repetitions` times to the provider and scores the answers against the
/// known truths. Each repetition is one core::SubmitAndAwait round trip,
/// waiting on the real clock (a gold crowd answers without latency).
/// `gold_fact_ids` index into the provider's fact universe.
common::Result<AccuracyEstimate> EstimateAccuracy(
    core::AsyncAnswerProvider& provider, const std::vector<int>& gold_fact_ids,
    const std::vector<bool>& gold_truths, int repetitions = 5);

}  // namespace crowdfusion::crowd

#endif  // CROWDFUSION_CROWD_ACCURACY_ESTIMATOR_H_
