#include "crowd/latency_model.h"

#include <cmath>

namespace crowdfusion::crowd {

LatencyModel::LatencyModel(LatencyOptions options)
    : options_(options), rng_(options.seed ^ 0xA51C0DEULL) {}

double LatencyModel::SampleTaskSeconds() {
  if (!has_latency()) return 0.0;
  double seconds = options_.median_seconds *
                   std::exp(options_.sigma * rng_.NextGaussian());
  if (options_.straggler_probability > 0 &&
      rng_.NextBernoulli(options_.straggler_probability)) {
    seconds *= options_.straggler_factor;
  }
  return seconds;
}

bool LatencyModel::SampleFailure() {
  return options_.failure_probability > 0 &&
         rng_.NextBernoulli(options_.failure_probability);
}

}  // namespace crowdfusion::crowd
