#ifndef CROWDFUSION_CORE_UTILITY_H_
#define CROWDFUSION_CORE_UTILITY_H_

#include <span>
#include <vector>

#include "common/status.h"
#include "core/crowd_model.h"
#include "core/joint_distribution.h"

namespace crowdfusion::core {

/// Utility functions of Sections II/III/IV. All entropies in bits.

/// PWS-quality Q(F) = -H(F) (Definition 1).
double QualityBits(const JointDistribution& joint);

/// H(T): entropy of the crowd answer distribution of the task set
/// (Equation 4's objective). Fast path.
double TaskEntropyBits(const JointDistribution& joint,
                       std::span<const int> tasks, const CrowdModel& crowd);

/// All candidates' marginal gains ρ_j(T) at once via one sparse
/// partition-refinement pass per candidate (Algorithm 2's inner loop as a
/// library call): O(|selected| + |candidates|) scans of the support
/// instead of 2 * |candidates| full H(T) evaluations, sharded across
/// `num_threads` when the batch is large (0 = auto, 1 = serial). Works for
/// any n <= 64. Fails on out-of-range ids or |selected| + 1 beyond the
/// refiner's committed-set cap.
common::Result<std::vector<double>> MarginalGainProfile(
    const JointDistribution& joint, std::span<const int> selected,
    std::span<const int> candidates, const CrowdModel& crowd,
    int num_threads = 0);

/// Query-based utility machinery (Section IV). `foi` is the
/// facts-of-interest set I; `tasks` is the candidate task set T.

/// The joint table over (latent FOI truths, noisy task answers): a dense
/// vector of 2^{|I|+|T|} probabilities where the low |I| bits index the FOI
/// truth assignment and the high |T| bits index the answer pattern. Facts
/// in I ∩ T contribute two coordinates (their latent truth and their noisy
/// answer). Requires |I| + |T| <= kMaxDenseFacts.
common::Result<std::vector<double>> FoiAnswerJointTable(
    const JointDistribution& joint, std::span<const int> foi,
    std::span<const int> tasks, const CrowdModel& crowd);

/// H(I, T): joint entropy of FOI truths and task answers.
common::Result<double> FoiTaskJointEntropyBits(const JointDistribution& joint,
                                               std::span<const int> foi,
                                               std::span<const int> tasks,
                                               const CrowdModel& crowd);

/// Query-based utility Q(I|T) = H(T) - H(I, T) (Section IV-B). With an
/// empty task set this reduces to -H(I) = Q(I).
common::Result<double> QueryBasedUtility(const JointDistribution& joint,
                                         std::span<const int> foi,
                                         std::span<const int> tasks,
                                         const CrowdModel& crowd);

}  // namespace crowdfusion::core

#endif  // CROWDFUSION_CORE_UTILITY_H_
