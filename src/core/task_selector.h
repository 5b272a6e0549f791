#ifndef CROWDFUSION_CORE_TASK_SELECTOR_H_
#define CROWDFUSION_CORE_TASK_SELECTOR_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/random.h"
#include "common/status.h"
#include "core/crowd_model.h"
#include "core/joint_distribution.h"

namespace crowdfusion::core {

/// Inputs of one task-selection round (Definition 4): pick at most k facts
/// to ask the crowd so that the answer entropy H(T) is maximized.
struct SelectionRequest {
  /// Current output distribution. Must be normalized.
  const JointDistribution* joint = nullptr;
  /// Crowd accuracy model.
  const CrowdModel* crowd = nullptr;
  /// Number of tasks to select (k). Clamped to the candidate count.
  int k = 1;
  /// Optional explicit candidate fact ids; empty means all facts.
  std::vector<int> candidates;
};

/// Per-round instrumentation, reported by every selector. Drives the
/// Table V runtime reproduction and the pruning ablation.
struct SelectionStats {
  /// Candidate task sets (OPT) or candidate facts (greedy) whose entropy
  /// was actually evaluated.
  int64_t evaluations = 0;
  /// Candidates eliminated by the Theorem 3 pruning bound.
  int64_t pruned = 0;
  /// Wall-clock selection time, seconds.
  double elapsed_seconds = 0.0;
  /// Seconds of `elapsed_seconds` spent in preprocessing (answer joint
  /// construction), when enabled.
  double preprocessing_seconds = 0.0;
};

/// Result of one selection round.
struct Selection {
  /// Chosen fact ids, in selection order. May have fewer than k entries if
  /// the greedy stopped early (K* < k, Algorithm 1 line 6).
  std::vector<int> tasks;
  /// H(T) of the chosen set, bits.
  double entropy_bits = 0.0;
  SelectionStats stats;
};

/// Interface implemented by OPT, the greedy approximation, and the random
/// baseline. Selectors are stateless across rounds; all state travels in
/// the request.
class TaskSelector {
 public:
  virtual ~TaskSelector() = default;

  virtual common::Result<Selection> Select(const SelectionRequest& request) = 0;

  /// Short name for reports ("OPT", "Approx.", "Approx.&Prune", ...).
  virtual std::string name() const = 0;

  /// True when concurrent Select() calls on this instance are safe AND
  /// yield results identical to serial calls in any order. The default is
  /// conservative: selectors that carry mutable per-instance state — the
  /// randomized baselines advance an RNG stream per call, so concurrent
  /// calls would both race and reorder their draws — must stay serial.
  /// Deterministic stateless selectors (greedy, OPT) override to true,
  /// which lets the scheduler overlap selection compute across books.
  virtual bool ConcurrentSelectSafe() const { return false; }
};

/// Validates a request and resolves the candidate list (all facts when
/// request.candidates is empty). Shared by all selectors.
common::Result<std::vector<int>> ResolveCandidates(
    const SelectionRequest& request);

}  // namespace crowdfusion::core

#endif  // CROWDFUSION_CORE_TASK_SELECTOR_H_
