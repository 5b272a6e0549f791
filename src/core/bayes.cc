#include "core/bayes.h"

#include <array>
#include <vector>

#include "common/math_util.h"
#include "common/scratch.h"
#include "common/string_util.h"

namespace crowdfusion::core {

using common::Status;

namespace {

Status ValidateAnswerSet(const JointDistribution& prior,
                         const AnswerSet& answer_set) {
  if (answer_set.tasks.size() != answer_set.answers.size()) {
    return Status::InvalidArgument(common::StrFormat(
        "answer set has %zu tasks but %zu answers", answer_set.tasks.size(),
        answer_set.answers.size()));
  }
  uint64_t seen = 0;  // num_facts <= 64, so one bit per fact id
  for (int t : answer_set.tasks) {
    if (t < 0 || t >= prior.num_facts()) {
      return Status::OutOfRange(
          common::StrFormat("task fact id %d out of range [0, %d)", t,
                            prior.num_facts()));
    }
    const uint64_t bit = 1ULL << t;
    if ((seen & bit) != 0) {
      return Status::InvalidArgument(common::StrFormat(
          "task fact id %d appears twice in one answer set", t));
    }
    seen |= bit;
  }
  return Status::Ok();
}

/// The answers laid over the tasks' own mask bits, so #Diff of an output
/// is one popcount, with the k+1 possible likelihoods computed once.
/// Precondition: ValidateAnswerSet passed (distinct tasks, k <= 64).
struct Evidence {
  uint64_t task_bits = 0;
  uint64_t answer_bits = 0;
  std::array<double, JointDistribution::kMaxFacts + 1> likelihood;

  Evidence(const AnswerSet& answer_set, const CrowdModel& crowd) {
    const size_t k = answer_set.tasks.size();
    for (size_t i = 0; i < k; ++i) {
      const uint64_t bit = 1ULL << answer_set.tasks[i];
      task_bits |= bit;
      if (answer_set.answers[i]) answer_bits |= bit;
    }
    crowd.AnswerLikelihoodsByDiff(static_cast<int>(k), likelihood);
  }

  /// Unnormalized posterior weight P(o) * P(Ans | o). #Diff is counted
  /// with an inline SWAR popcount: without a popcnt target, std::popcount
  /// is an out-of-line libgcc call, paid twice per entry per merge.
  double Weight(const JointDistribution::Entry& entry) const {
    uint64_t x = (entry.mask ^ answer_bits) & task_bits;
    x -= (x >> 1) & 0x5555555555555555ULL;
    x = (x & 0x3333333333333333ULL) + ((x >> 2) & 0x3333333333333333ULL);
    x = (x + (x >> 4)) & 0x0F0F0F0F0F0F0F0FULL;
    return entry.prob * likelihood[(x * 0x0101010101010101ULL) >> 56];
  }

  /// P(Ans): the weights summed in entry order.
  double Total(const JointDistribution& prior) const {
    double total = 0.0;
    for (const auto& entry : prior.entries()) total += Weight(entry);
    return total;
  }
};

}  // namespace

common::Status MergeAnswersInPlace(JointDistribution& joint,
                                   const AnswerSet& answer_set,
                                   const CrowdModel& crowd) {
  CF_RETURN_IF_ERROR(ValidateAnswerSet(joint, answer_set));
  const Evidence evidence(answer_set, crowd);
  std::vector<JointDistribution::Entry>& entries = joint.entries_;
  // Pass 1 keeps the weights in per-thread scratch, not in the joint, so
  // impossible evidence leaves the joint untouched.
  std::vector<double>& weights = common::ZeroedThreadScratch(
      common::ScratchSlot::kMergeWeights, entries.size());
  double total = 0.0;
  for (size_t i = 0; i < entries.size(); ++i) {
    weights[i] = evidence.Weight(entries[i]);
    total += weights[i];
  }
  if (total <= 0.0) {
    return Status::FailedPrecondition(
        "received answers have zero probability under the prior "
        "(impossible evidence; check Pc and the prior support)");
  }
  // Pass 2 normalizes and compacts; the entropy gets a loop of its own so
  // the log2 call spills nothing else.
  const double inv = 1.0 / total;
  size_t kept = 0;
  double mass = 0.0;
  for (size_t i = 0; i < entries.size(); ++i) {
    if (!(weights[i] > 0.0)) continue;
    const double p = weights[i] * inv;
    entries[kept++] = {entries[i].mask, p};
    mass += p;
  }
  entries.resize(kept);
  double entropy = 0.0;
  for (const JointDistribution::Entry& e : entries) {
    entropy -= common::XLog2X(e.prob);
  }
  joint.total_mass_ = mass;
  joint.entropy_bits_ = entropy;
  JointDistribution::AccumulateFactCellSums(
      entries, joint.num_facts_, common::SimdPolicy::kAuto, joint.cell_sums_);
  return Status::Ok();
}

common::Result<JointDistribution> PosteriorGivenAnswers(
    const JointDistribution& prior, const AnswerSet& answer_set,
    const CrowdModel& crowd) {
  JointDistribution posterior = prior;
  CF_RETURN_IF_ERROR(MergeAnswersInPlace(posterior, answer_set, crowd));
  return posterior;
}

common::Result<double> AnswerSetProbability(const JointDistribution& prior,
                                            const AnswerSet& answer_set,
                                            const CrowdModel& crowd) {
  CF_RETURN_IF_ERROR(ValidateAnswerSet(prior, answer_set));
  return Evidence(answer_set, crowd).Total(prior);
}

common::Result<JointDistribution> PosteriorGivenAnswerSets(
    const JointDistribution& prior, std::span<const AnswerSet> answer_sets,
    const CrowdModel& crowd) {
  JointDistribution current = prior;
  for (const AnswerSet& answers : answer_sets) {
    CF_ASSIGN_OR_RETURN(current,
                        PosteriorGivenAnswers(current, answers, crowd));
  }
  return current;
}

}  // namespace crowdfusion::core
