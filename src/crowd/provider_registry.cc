#include "crowd/provider_registry.h"

#include <memory>
#include <utility>
#include <vector>

#include "common/logging.h"
#include "common/string_util.h"
#include "crowd/latency_model.h"
#include "crowd/simulated_crowd.h"
#include "data/statement.h"

namespace crowdfusion::crowd {

using common::Status;

namespace {

common::Result<std::shared_ptr<core::AsyncAnswerProvider>>
MakeSimulatedCrowd(const core::ProviderSpec& spec, common::Clock* clock) {
  if (spec.truths.empty()) {
    return Status::InvalidArgument(
        "simulated_crowd provider requires per-instance truths");
  }
  if (!(spec.accuracy > 0.0 && spec.accuracy < 1.0)) {
    return Status::InvalidArgument(
        "simulated_crowd accuracy must be in (0, 1)");
  }
  std::vector<data::StatementCategory> categories;
  categories.reserve(spec.categories.size());
  for (const int category : spec.categories) {
    if (category < 0 ||
        category > static_cast<int>(data::StatementCategory::kMissingAuthor)) {
      return Status::InvalidArgument(
          common::StrFormat("bad statement category %d", category));
    }
    categories.push_back(static_cast<data::StatementCategory>(category));
  }
  if (!categories.empty() && categories.size() != spec.truths.size()) {
    return Status::InvalidArgument(
        "categories must be empty or match truths in size");
  }

  WorkerBias bias;
  if (spec.biased) {
    bias.base_accuracy = spec.accuracy;  // Section V-D category skews apply
  } else {
    bias = WorkerBias::Uniform(spec.accuracy);
  }
  auto provider = std::make_shared<SimulatedCrowd>(
      spec.truths, std::move(categories), bias, spec.seed);
  if (spec.adversary.enabled) {
    CF_RETURN_IF_ERROR(provider->ConfigureAdversary(spec.adversary));
  }
  LatencyOptions latency;
  latency.median_seconds = spec.latency_median_seconds;
  latency.sigma = spec.latency_sigma;
  latency.failure_probability = spec.failure_probability;
  latency.straggler_probability = spec.straggler_probability;
  latency.straggler_factor = spec.straggler_factor;
  latency.seed = spec.latency_seed;
  // LatencyModel::enabled() sees every knob, so a zero-latency spec that
  // only injects failures activates the model too (historically it was
  // silently ignored unless median_seconds > 0).
  if (LatencyModel(latency).enabled()) {
    provider->ConfigureAsync(latency, clock);
  }
  return std::shared_ptr<core::AsyncAnswerProvider>(std::move(provider));
}

}  // namespace

common::Status RegisterCrowdProviders(core::ProviderRegistry& registry,
                                      common::Clock* clock) {
  return registry.Register(
      "simulated_crowd", [clock](const core::ProviderSpec& spec) {
        return MakeSimulatedCrowd(spec, clock);
      });
}

core::ProviderRegistry FullProviderRegistry(common::Clock* clock) {
  core::ProviderRegistry registry = core::BuiltinProviderRegistry();
  CF_CHECK_OK(RegisterCrowdProviders(registry, clock));
  return registry;
}

}  // namespace crowdfusion::crowd
