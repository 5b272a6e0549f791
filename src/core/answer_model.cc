#include "core/answer_model.h"

#include <cmath>

#include "common/bit_util.h"
#include "common/logging.h"
#include "common/math_util.h"

namespace crowdfusion::core {

namespace {

void CheckTasks(const JointDistribution& joint, std::span<const int> tasks) {
  CF_CHECK(tasks.size() <=
           static_cast<size_t>(JointDistribution::kMaxDenseFacts));
  for (int t : tasks) {
    CF_CHECK(t >= 0 && t < joint.num_facts())
        << "task fact id out of range: " << t;
  }
}

}  // namespace

std::vector<double> AnswerDistributionBruteForce(const JointDistribution& joint,
                                                 std::span<const int> tasks,
                                                 const CrowdModel& crowd) {
  CheckTasks(joint, tasks);
  const int k = static_cast<int>(tasks.size());
  const std::vector<int> positions(tasks.begin(), tasks.end());
  std::vector<double> out(1ULL << k, 0.0);
  // Literal Equation 2: outer loop over answer patterns, inner scan over
  // the output support, counting #Same / #Diff judgments per term.
  for (uint64_t ans = 0; ans < out.size(); ++ans) {
    double total = 0.0;
    for (const auto& entry : joint.entries()) {
      const uint64_t truth = common::ExtractBits(entry.mask, positions);
      total += entry.prob * crowd.AnswerLikelihood(truth, ans, k);
    }
    out[ans] = total;
  }
  return out;
}

std::vector<double> AnswerDistribution(const JointDistribution& joint,
                                       std::span<const int> tasks,
                                       const CrowdModel& crowd) {
  CheckTasks(joint, tasks);
  const int k = static_cast<int>(tasks.size());
  std::vector<double> marginal = joint.MarginalizeOnto(tasks);
  crowd.PushThroughChannel(marginal, k);
  return marginal;
}

double AnswerEntropyBits(const JointDistribution& joint,
                         std::span<const int> tasks, const CrowdModel& crowd) {
  const std::vector<double> dist = AnswerDistribution(joint, tasks, crowd);
  return common::Entropy(dist);
}

double AnswerEntropyBitsBruteForce(const JointDistribution& joint,
                                   std::span<const int> tasks,
                                   const CrowdModel& crowd) {
  const std::vector<double> dist =
      AnswerDistributionBruteForce(joint, tasks, crowd);
  return common::Entropy(dist);
}

}  // namespace crowdfusion::core
