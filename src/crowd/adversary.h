#ifndef CROWDFUSION_CROWD_ADVERSARY_H_
#define CROWDFUSION_CROWD_ADVERSARY_H_

#include <cstdint>
#include <memory>
#include <unordered_map>
#include <vector>

#include "common/random.h"
#include "common/status.h"
#include "core/registry.h"
#include "crowd/worker.h"
#include "data/statement.h"

namespace crowdfusion::crowd {

/// Role of one virtual worker in an adversarial pool.
enum class AdversaryRole {
  /// Judges with the crowd's bias table, subject to per-answer drift.
  kHonest,
  /// Correct on ordinary facts (cover traffic), coordinated on the wrong
  /// answer for the clique's targeted facts.
  kColluder,
  /// Replays the sybil master stream's per-fact answer verbatim.
  kSybil,
  /// Fair coin, independent of the truth.
  kSpammer,
  /// Majority of every answer logged so far for the fact.
  kParrot,
};

/// A seeded hostile-worker layer over the simulated crowd: SimulatedCrowd
/// delegates each judgment here when an adversary is configured (and runs
/// its historical code byte-for-byte when not — the adversary-off
/// differential contract).
///
/// The model owns a virtual worker pool partitioned into roles by the
/// spec's fractions (colluders first, then sybils, spammers, parrots;
/// every remaining worker is honest). All randomness comes from the
/// model's own RNG stream seeded by AdversarySpec::seed, and every
/// judgment is appended to a (fact, worker, answer) log so accuracy
/// estimators (the Wilson pre-test) can be scored against the model's
/// ground-truth behaviour, including honest-worker drift.
///
/// Thread-compatible like the crowds that embed it: judgments must be
/// externally serialized.
class AdversaryModel {
 public:
  /// One logged judgment, in collection order.
  struct Judgment {
    int fact_id = -1;
    int worker = -1;
    bool answer = false;
    bool truth = false;
  };

  /// Validates the spec (fractions in [0, 1] summing to at most 1, a
  /// positive pool, ordered drift clamps) and builds the pool.
  static common::Result<std::unique_ptr<AdversaryModel>> Create(
      core::AdversarySpec spec);

  /// One judgment by a pool worker the model picks itself (uniformly, from
  /// its own stream) — the SimulatedCrowd path, where the aggregate
  /// "worker" has no identity.
  bool Judge(int fact_id, bool truth, data::StatementCategory category,
             const WorkerBias& honest_bias);

  /// One judgment by a caller-assigned worker (Judge picks the worker and
  /// delegates here; tests drive named workers directly).
  /// Precondition: 0 <= worker < num_workers().
  bool JudgeAs(int worker, int fact_id, bool truth,
               data::StatementCategory category,
               const WorkerBias& honest_bias);

  int num_workers() const { return static_cast<int>(workers_.size()); }

  /// True when the colluding clique coordinates the wrong answer on this
  /// fact. Deterministic in (spec.seed, fact_id) and independent of
  /// collection order, so all colluders agree by construction.
  bool IsCollusionTarget(int fact_id) const;

  /// Ground-truth P(correct) an HONEST worker would judge with right now,
  /// given the crowd's bias table: the category accuracy shifted by
  /// drift_per_answer x answers this worker has given, clamped to the
  /// spec's drift window. The ruler estimator tests measure against.
  double HonestAccuracy(int worker, data::StatementCategory category,
                        const WorkerBias& honest_bias) const;

  /// Answers the given worker has contributed so far.
  int64_t answers_by(int worker) const;

  /// Every judgment served, in collection order — the estimator-scoring
  /// feed (crowd::Judgment-shaped: task = fact_id).
  const std::vector<Judgment>& log() const { return log_; }

  const core::AdversarySpec& spec() const { return spec_; }

 private:
  /// Reads the role partition in tests/crowd/adversary_test.cc.
  friend class AdversaryModelPeer;

  struct WorkerState {
    AdversaryRole role = AdversaryRole::kHonest;
    int64_t answers = 0;
  };

  AdversaryModel(core::AdversarySpec spec, std::vector<WorkerState> workers);

  /// Truth with probability `accuracy`, flipped otherwise — the honest
  /// Bernoulli error model, on the adversary's stream.
  bool DrawWithAccuracy(double accuracy, bool truth);

  core::AdversarySpec spec_;
  std::vector<WorkerState> workers_;
  common::Rng rng_;
  /// Per-fact master answer replayed by every sybil.
  std::unordered_map<int, bool> sybil_answers_;
  /// Per-fact (true votes, false votes) over the whole log, for parrots.
  std::unordered_map<int, std::pair<int64_t, int64_t>> fact_tallies_;
  std::vector<Judgment> log_;
};

}  // namespace crowdfusion::crowd

#endif  // CROWDFUSION_CROWD_ADVERSARY_H_
