#ifndef CROWDFUSION_CROWD_LATENCY_MODEL_H_
#define CROWDFUSION_CROWD_LATENCY_MODEL_H_

#include <cstdint>

#include "common/random.h"

namespace crowdfusion::crowd {

/// Shape of the simulated crowd's answer latency and flakiness. Real
/// platforms answer in seconds-to-minutes with a heavy right tail; the
/// model is lognormal (median * e^(sigma*N(0,1))) per task, with optional
/// stragglers (tasks that take `straggler_factor` times longer — the
/// "worker walked away" case that per-ticket deadlines exist to cut off)
/// and injectable hard failures (an attempt that never returns answers
/// and must be retried).
struct LatencyOptions {
  /// Explicitly activates the model even when every latency knob is zero.
  /// Historically "enabled" was inferred from median_seconds > 0 alone,
  /// which silently discarded zero-latency configs that only inject
  /// failures or stragglers; set this (or any nonzero probability below)
  /// to run those. A default-constructed options block stays disabled.
  bool enabled = false;
  /// Median per-task latency, seconds. 0 means tickets resolve at submit
  /// time (failures may still be injected when the model is enabled).
  double median_seconds = 0.0;
  /// Lognormal spread; 0 makes every task take exactly the median.
  double sigma = 0.5;
  /// Probability that a whole attempt fails outright (kUnavailable) and
  /// the provider retries under the ticket's bounded-retry contract.
  double failure_probability = 0.0;
  /// Probability a task is a straggler.
  double straggler_probability = 0.0;
  /// Latency multiplier for stragglers.
  double straggler_factor = 10.0;
  uint64_t seed = 4242;
};

/// Seeded sampler over LatencyOptions. Latency draws come from their own
/// RNG stream, so enabling latency never perturbs the judgment stream —
/// a crowd with and without latency gives identical answers.
class LatencyModel {
 public:
  LatencyModel() : LatencyModel(LatencyOptions{}) {}
  explicit LatencyModel(LatencyOptions options);

  /// Whether the model does anything at all: explicitly enabled, or any
  /// latency/failure/straggler knob is nonzero. (The historical
  /// median_seconds-only test conflated "no latency" with "disabled" and
  /// dropped failure-only configs on the floor.)
  bool enabled() const {
    return options_.enabled || has_latency() ||
           options_.failure_probability > 0 ||
           options_.straggler_probability > 0;
  }
  /// Whether tasks take nonzero simulated time. Latency draws are gated
  /// on this — never on enabled() — so a zero-latency failure-injecting
  /// model consumes no stream draws for timing.
  bool has_latency() const { return options_.median_seconds > 0; }
  const LatencyOptions& options() const { return options_; }

  /// Latency of one task, seconds; 0 when the model has no latency.
  double SampleTaskSeconds();

  /// True when an attempt should fail outright.
  bool SampleFailure();

 private:
  LatencyOptions options_;
  common::Rng rng_;
};

}  // namespace crowdfusion::crowd

#endif  // CROWDFUSION_CROWD_LATENCY_MODEL_H_
