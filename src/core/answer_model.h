#ifndef CROWDFUSION_CORE_ANSWER_MODEL_H_
#define CROWDFUSION_CORE_ANSWER_MODEL_H_

#include <span>
#include <vector>

#include "core/crowd_model.h"
#include "core/joint_distribution.h"

namespace crowdfusion::core {

/// The crowd answer distribution (Definition 3, Equation 2):
///   P(Ans^T = a) = sum_o P(o) * Pc^{#Same(o,a)} * (1-Pc)^{#Diff(o,a)}
/// over the k = |T| asked facts. Answer patterns are packed into the low k
/// bits in task order: bit i corresponds to tasks[i].

/// Literal Equation 2 evaluation: O(2^k * |O| * k). This is the paper's
/// "brute force" cost model; used by tests and by the non-preprocessed
/// greedy/OPT variants that Table V times.
std::vector<double> AnswerDistributionBruteForce(const JointDistribution& joint,
                                                 std::span<const int> tasks,
                                                 const CrowdModel& crowd);

/// Fast equivalent: marginalize the joint onto T (one O(|O|) scan), then
/// push through k binary symmetric channels (O(k * 2^k) butterfly). With T
/// = every fact in id order this is the full answer joint of the paper's
/// Table IV, indexed by answer mask.
std::vector<double> AnswerDistribution(const JointDistribution& joint,
                                       std::span<const int> tasks,
                                       const CrowdModel& crowd);

/// H(T) = H({Ans^T}) in bits, via the fast path.
double AnswerEntropyBits(const JointDistribution& joint,
                         std::span<const int> tasks, const CrowdModel& crowd);

/// H(T) in bits via the literal Equation 2 path.
double AnswerEntropyBitsBruteForce(const JointDistribution& joint,
                                   std::span<const int> tasks,
                                   const CrowdModel& crowd);

}  // namespace crowdfusion::core

#endif  // CROWDFUSION_CORE_ANSWER_MODEL_H_
