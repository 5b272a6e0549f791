#include "core/registry.h"

#include "common/logging.h"
#include "core/greedy_selector.h"
#include "core/opt_selector.h"
#include "core/query_based.h"
#include "core/random_selector.h"
#include "core/sampled_selector.h"
#include "core/scripted_provider.h"

namespace crowdfusion::core {

using common::Status;

namespace {

common::Result<std::unique_ptr<TaskSelector>> MakeGreedy(
    const SelectorSpec& spec) {
  GreedySelector::Options options;
  options.use_pruning = spec.use_pruning;
  options.use_preprocessing = spec.use_preprocessing;
  options.preprocessing_threads = spec.preprocessing_threads;
  if (spec.min_gain_bits >= 0) options.min_gain_bits = spec.min_gain_bits;
  return std::unique_ptr<TaskSelector>(
      std::make_unique<GreedySelector>(options));
}

common::Result<std::unique_ptr<TaskSelector>> MakeOpt(
    const SelectorSpec& spec) {
  OptSelector::Options options;
  options.use_brute_force_entropy = spec.brute_force_entropy;
  if (spec.max_subsets < 0) {
    return Status::InvalidArgument("max_subsets must be non-negative");
  }
  options.max_subsets = static_cast<uint64_t>(spec.max_subsets);
  return std::unique_ptr<TaskSelector>(
      std::make_unique<OptSelector>(options));
}

common::Result<std::unique_ptr<TaskSelector>> MakeSampled(
    const SelectorSpec& spec) {
  SampledGreedySelector::Options options;
  if (spec.samples <= 0) {
    return Status::InvalidArgument("samples must be positive");
  }
  options.samples = spec.samples;
  options.bias_correction = spec.bias_correction;
  options.seed = spec.seed;
  if (spec.min_gain_bits >= 0) options.min_gain_bits = spec.min_gain_bits;
  return std::unique_ptr<TaskSelector>(
      std::make_unique<SampledGreedySelector>(options));
}

common::Result<std::unique_ptr<TaskSelector>> MakeRandom(
    const SelectorSpec& spec) {
  return std::unique_ptr<TaskSelector>(
      std::make_unique<RandomSelector>(spec.seed));
}

common::Result<std::unique_ptr<TaskSelector>> MakeQueryBased(
    const SelectorSpec& spec) {
  if (spec.foi.empty()) {
    return Status::InvalidArgument(
        "query_based selector requires a non-empty foi (facts of interest)");
  }
  QueryBasedGreedySelector::Options options;
  options.foi = spec.foi;
  if (spec.min_gain_bits >= 0) options.min_gain_bits = spec.min_gain_bits;
  return std::unique_ptr<TaskSelector>(
      std::make_unique<QueryBasedGreedySelector>(std::move(options)));
}

common::Result<ProviderHandle> MakeScripted(const ProviderSpec& spec) {
  if (spec.failures_before_success < 0) {
    return Status::InvalidArgument(
        "failures_before_success must be non-negative");
  }
  ScriptedProvider::Options options;
  // A scripted provider bound to instance truths answers with them; an
  // explicit script wins, and with neither the parity rule applies.
  options.script = spec.script.empty() ? spec.truths : spec.script;
  options.failures_before_success = spec.failures_before_success;
  auto provider = std::make_shared<ScriptedProvider>(std::move(options));
  ProviderHandle handle;
  handle.sync = provider.get();
  handle.owner = std::move(provider);
  return handle;
}

}  // namespace

SelectorRegistry BuiltinSelectorRegistry() {
  SelectorRegistry registry("selector");
  CF_CHECK_OK(registry.Register("greedy", MakeGreedy));
  CF_CHECK_OK(registry.Register("opt", MakeOpt));
  CF_CHECK_OK(registry.Register("sampled", MakeSampled));
  CF_CHECK_OK(registry.Register("random", MakeRandom));
  CF_CHECK_OK(registry.Register("query_based", MakeQueryBased));
  return registry;
}

ProviderRegistry BuiltinProviderRegistry() {
  ProviderRegistry registry("provider");
  CF_CHECK_OK(registry.Register("scripted", MakeScripted));
  return registry;
}

}  // namespace crowdfusion::core
