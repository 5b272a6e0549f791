#ifndef CROWDFUSION_CORE_CROWD_MODEL_H_
#define CROWDFUSION_CORE_CROWD_MODEL_H_

#include <cstdint>
#include <span>
#include <vector>

#include "common/status.h"

namespace crowdfusion::core {

/// The paper's crowd error model (Definition 2): every task is answered
/// independently and correctly with probability Pc in [0.5, 1]. In channel
/// terms each asked fact passes through a binary symmetric channel with
/// crossover probability 1 - Pc.
class CrowdModel {
 public:
  /// Validates Pc in [0.5, 1].
  static common::Result<CrowdModel> Create(double pc);

  double pc() const { return pc_; }

  /// H(Crowd) = -Pc log2 Pc - (1-Pc) log2 (1-Pc) (Equation 1), bits.
  double EntropyBits() const;

  /// Likelihood P(answer | truth) for the asked coordinates: Pc^#Same *
  /// (1-Pc)^#Diff, where #Same/#Diff count agreeing/disagreeing judgments
  /// among the k asked facts. `truth_bits` and `answer_bits` are packed
  /// into the low k bits.
  double AnswerLikelihood(uint64_t truth_bits, uint64_t answer_bits,
                          int k) const;

  /// AnswerLikelihood for every disagreement count d = 0..k: out[d] is
  /// Pc^(k-d) * (1-Pc)^d, the same expression bit for bit. A merge over |O|
  /// outputs then pays k+1 pow pairs instead of |O|. `out` holds at least
  /// k+1 doubles.
  void AnswerLikelihoodsByDiff(int k, std::span<double> out) const;

  /// Pushes a dense distribution over 2^k truth assignments through k
  /// independent BSCs, producing the distribution over 2^k answer patterns
  /// (Equation 2 after marginalizing the joint onto the task set).
  /// In-place butterfly, O(k * 2^k).
  void PushThroughChannel(std::vector<double>& dist, int k) const;

  /// Pushes the channel on selected coordinates only: coordinate i of the
  /// 2^m-entry table is noisy iff `noisy_coords` bit i is set. Used by the
  /// query-based variant where facts-of-interest coordinates stay latent.
  void PushThroughChannelOnCoords(std::vector<double>& dist, int m,
                                  uint64_t noisy_coords) const;

 private:
  explicit CrowdModel(double pc) : pc_(pc) {}

  double pc_;
};

}  // namespace crowdfusion::core

#endif  // CROWDFUSION_CORE_CROWD_MODEL_H_
