#ifndef CROWDFUSION_CORE_REGISTRY_H_
#define CROWDFUSION_CORE_REGISTRY_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/registry.h"
#include "common/status.h"
#include "core/async_provider.h"
#include "core/task_selector.h"

namespace crowdfusion::core {

/// Config-shaped description of a task selector: a registry key plus the
/// union of every builtin selector's knobs, as plain serializable values.
/// Fields a selector does not consume are ignored by its factory.
struct SelectorSpec {
  /// Registry key: "greedy", "opt", "sampled", "random", "query_based".
  std::string kind = "greedy";

  // --- greedy ---
  bool use_pruning = true;
  bool use_preprocessing = true;
  /// Threads for refiner candidate batches: 0 = auto, 1 = serial.
  int preprocessing_threads = 0;

  // --- opt ---
  bool brute_force_entropy = false;
  /// Subset cap for OPT (0 = uncapped).
  int64_t max_subsets = 0;

  // --- sampled ---
  int samples = 4096;
  bool bias_correction = true;

  // --- sampled / random ---
  uint64_t seed = 42;

  // --- query_based ---
  /// Facts of interest; required non-empty for "query_based".
  std::vector<int> foi;

  /// Early-stop gain threshold; negative means "the selector's default"
  /// (1e-12 for the exact greedies, 1e-6 for the sampled one).
  double min_gain_bits = -1.0;

  friend bool operator==(const SelectorSpec& a,
                         const SelectorSpec& b) = default;
};

/// String-keyed factory registry over TaskSelector implementations.
using SelectorRegistry =
    common::FactoryRegistry<std::unique_ptr<TaskSelector>, SelectorSpec>;

/// A fresh registry holding every selector defined in core: "greedy",
/// "opt", "sampled", "random", "query_based". Copy and extend it to add
/// custom selectors.
SelectorRegistry BuiltinSelectorRegistry();

/// Config-shaped description of a hostile worker population layered over
/// a simulated crowd (crowd::AdversaryModel). The adversary partitions a
/// virtual worker pool into roles by fraction; whatever is left stays
/// honest. All behaviour is seeded and deterministic, and an adversary
/// with enabled == false leaves the crowd's RNG streams untouched — a
/// spec without an adversary block answers bit-for-bit like one predating
/// the adversary layer.
struct AdversarySpec {
  /// Master switch; false means "no adversary" (the differential path).
  bool enabled = false;
  /// Virtual worker pool the roles partition.
  int num_workers = 16;
  /// Fraction of the pool colluding: correct on ordinary facts, but
  /// coordinated on the WRONG answer for the targeted facts, so fusers
  /// that propagate trust between agreeing sources reward the clique.
  double colluder_fraction = 0.0;
  /// Fraction of facts the clique targets (chosen by a seeded hash of the
  /// fact id, so every colluder targets the same facts in any order).
  double collusion_target_fraction = 0.5;
  /// Fraction of the pool cloned from ONE answer stream: the first sybil
  /// asked about a fact draws the master answer, every clone repeats it.
  double sybil_fraction = 0.0;
  /// Fraction answering a fair coin, independent of the truth.
  double spammer_fraction = 0.0;
  /// Fraction parroting the majority of all answers logged so far for the
  /// fact (ties and first-asked default to "true").
  double parrot_fraction = 0.0;
  /// Per-answer accuracy drift of each HONEST worker: its P(correct)
  /// moves by this much with every answer it gives (negative = fatigue),
  /// clamped to [drift_floor, drift_ceiling]. Ground truth for scoring
  /// AccuracyEstimator against drifting workers.
  double drift_per_answer = 0.0;
  double drift_floor = 0.05;
  double drift_ceiling = 0.95;
  /// Seeds the adversary's own RNG stream (role draws, spam, sybil
  /// masters) so enabling it never perturbs the honest judgment stream.
  uint64_t seed = 1099;

  friend bool operator==(const AdversarySpec& a,
                         const AdversarySpec& b) = default;
};

/// Config-shaped description of an answer provider. The spec doubles as a
/// per-instance template: workload builders clone it for every instance,
/// filling `truths`/`categories` from that instance's gold labels and
/// deriving per-instance seeds (base seed + instance index).
struct ProviderSpec {
  /// Registry key: "simulated_crowd" (registered by the crowd layer) or
  /// "scripted" (registered here in core).
  std::string kind = "simulated_crowd";

  // --- ground-truth binding (per instance) ---
  std::vector<bool> truths;
  /// data::StatementCategory values as ints; empty means all-clean.
  std::vector<int> categories;

  // --- simulated_crowd ---
  /// Worker accuracy (the experiments' true_accuracy, may differ from the
  /// system's assumed Pc).
  double accuracy = 0.8;
  /// Use the Section V-D category-biased worker pool instead of the
  /// uniform one; base accuracy is still `accuracy`.
  bool biased = false;
  uint64_t seed = 0;
  /// Simulated answer latency (0 = instant; the differential setting).
  double latency_median_seconds = 0.0;
  double latency_sigma = 0.5;
  /// Probability a whole collection attempt fails (kUnavailable).
  double failure_probability = 0.0;
  double straggler_probability = 0.0;
  double straggler_factor = 10.0;
  uint64_t latency_seed = 4242;
  /// Hostile worker overlay ("simulated_crowd", and remote universes of
  /// that kind over "http"/"http_pool"). Default-disabled.
  AdversarySpec adversary;

  // --- scripted ---
  /// Per-fact scripted answers; empty means the parity rule (id % 2 == 1).
  std::vector<bool> script;
  int failures_before_success = 0;

  // --- http (registered by the net layer) ---
  /// Remote crowd platform serving the ticket wire, as "host:port".
  /// Required non-empty for "http".
  std::string endpoint;
  /// Concrete provider kind the platform hosts for this instance's
  /// universe; empty means "simulated_crowd". The remaining fields above
  /// (truths, accuracy, seeds, ...) travel to the platform as that
  /// universe's template.
  std::string universe_kind;

  // --- http_pool (registered by the net layer) ---
  /// Crowd platforms backing the failover pool, each as "host:port".
  /// Required non-empty for "http_pool"; the same universe template is
  /// registered on every endpoint so a ticket batch can be resubmitted to
  /// a different platform when its home endpoint hangs or dies.
  std::vector<std::string> endpoints;
  /// Ceiling on one collection attempt against one endpoint ("http" and
  /// "http_pool"): an Await past this budget returns kDeadlineExceeded,
  /// and the pool treats an in-flight ticket older than this as expired
  /// and resubmits it elsewhere. 0 means wait forever ("http") / the
  /// pool's default attempt budget ("http_pool").
  double await_timeout_seconds = 0.0;

  friend bool operator==(const ProviderSpec& a,
                         const ProviderSpec& b) = default;
};

/// String-keyed factory registry over answer providers. A provider is
/// shared-owned: the session (or crowd server) that binds it holds one
/// reference, and a failover pool holds its replicas the same way.
using ProviderRegistry =
    common::FactoryRegistry<std::shared_ptr<AsyncAnswerProvider>,
                            ProviderSpec>;

/// A fresh registry holding the providers defined in core ("scripted").
/// The crowd layer adds "simulated_crowd" via
/// crowd::RegisterCrowdProviders; the service facade composes both.
ProviderRegistry BuiltinProviderRegistry();

}  // namespace crowdfusion::core

#endif  // CROWDFUSION_CORE_REGISTRY_H_
