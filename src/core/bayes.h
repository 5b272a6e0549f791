#ifndef CROWDFUSION_CORE_BAYES_H_
#define CROWDFUSION_CORE_BAYES_H_

#include <span>
#include <vector>

#include "common/status.h"
#include "core/crowd_model.h"
#include "core/joint_distribution.h"

namespace crowdfusion::core {

/// One round's collected crowd answers: answers[i] is the crowd's true/false
/// judgment of fact tasks[i].
struct AnswerSet {
  std::vector<int> tasks;
  std::vector<bool> answers;
};

/// Merges crowd answers into the joint in place (Section III-A, Eq. 3):
///   P(o | Ans) = P(o) * Pc^{#Same} * (1-Pc)^{#Diff} / P(Ans)
/// Sums P(Ans) without writing the joint, then writes the normalized
/// entries (zero weights drop, order kept) and recomputes the summary,
/// allocating nothing once warm. The entries, cell sums and mass are
/// bit-identical to FromEntries(..., /*normalize=*/true) on the weighted
/// support. H(F) comes from the entries' cached logs, each shifted by
/// log2 L[#Diff] - log2 P(Ans): k + 2 logs per merge. Every
/// JointDistribution::kMergesPerExactLogs-th merge of a joint recomputes
/// the logs from p instead, so H is bit-identical to the literal loop on
/// that merge and within 1e-12 bits of it on the others. Fails, leaving
/// the joint untouched, on a malformed answer set (size mismatch,
/// out-of-range or duplicate tasks) or impossible evidence
/// (FailedPrecondition).
common::Status MergeAnswersInPlace(JointDistribution& joint,
                                   const AnswerSet& answer_set,
                                   const CrowdModel& crowd);

/// MergeAnswersInPlace on a copy of the prior.
common::Result<JointDistribution> PosteriorGivenAnswers(
    const JointDistribution& prior, const AnswerSet& answer_set,
    const CrowdModel& crowd);

/// Marginal likelihood P(Ans) of the received answers under the prior and
/// crowd model (the normalizer of Equation 3).
common::Result<double> AnswerSetProbability(const JointDistribution& prior,
                                            const AnswerSet& answer_set,
                                            const CrowdModel& crowd);

/// Applies a sequence of answer sets (multiple rounds) in order.
common::Result<JointDistribution> PosteriorGivenAnswerSets(
    const JointDistribution& prior, std::span<const AnswerSet> answer_sets,
    const CrowdModel& crowd);

}  // namespace crowdfusion::core

#endif  // CROWDFUSION_CORE_BAYES_H_
