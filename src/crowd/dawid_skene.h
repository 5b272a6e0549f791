#ifndef CROWDFUSION_CROWD_DAWID_SKENE_H_
#define CROWDFUSION_CROWD_DAWID_SKENE_H_

#include <vector>

#include "common/status.h"

namespace crowdfusion::crowd {

/// One worker's binary judgment of one task.
struct Judgment {
  int task = -1;
  int worker = -1;
  bool answer = false;
};

/// Result of the one-coin Dawid–Skene EM: per-task truth posteriors and
/// per-worker symmetric accuracies.
struct DawidSkeneResult {
  /// P(task is true), indexed by task id.
  std::vector<double> task_posterior;
  /// Estimated accuracy per worker, indexed by worker id.
  std::vector<double> worker_accuracy;
  int iterations = 0;
  bool converged = false;
};

struct DawidSkeneOptions {
  int max_iterations = 50;
  double epsilon = 1e-6;
  /// Initial worker accuracy before the first M-step.
  double initial_accuracy = 0.8;
  /// Prior probability that a task is true.
  double task_prior = 0.5;
  /// Accuracies are clamped into [floor, 1 - floor] to keep the E-step
  /// numerically sane; a worker estimated below 0.5 effectively votes
  /// inverted, which the model allows (unlike the paper's Pc domain).
  double accuracy_floor = 0.05;
};

/// One-coin Dawid–Skene EM over redundant binary judgments: alternates
/// between task-truth posteriors (E-step, Bayes with per-worker accuracy
/// likelihoods) and worker accuracies (M-step, posterior-weighted agreement
/// rates). This generalizes the paper's single shared Pc (Definition 2) to
/// heterogeneous workers, a principled aggregator for redundant judgments
/// beyond majority voting.
common::Result<DawidSkeneResult> RunDawidSkene(
    int num_tasks, int num_workers, const std::vector<Judgment>& judgments,
    const DawidSkeneOptions& options = {});

}  // namespace crowdfusion::crowd

#endif  // CROWDFUSION_CROWD_DAWID_SKENE_H_
