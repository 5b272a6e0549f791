#include "core/bayes.h"

#include <array>
#include <cmath>
#include <vector>

#include "common/math_util.h"
#include "common/scratch.h"
#include "common/simd.h"
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

  /// #Diff(o, Ans), counted with an inline SWAR popcount: without a
  /// popcnt target, std::popcount is an out-of-line libgcc call, paid
  /// twice per entry per merge.
  size_t Diff(uint64_t mask) const {
    uint64_t x = (mask ^ answer_bits) & task_bits;
    x -= (x >> 1) & 0x5555555555555555ULL;
    x = (x & 0x3333333333333333ULL) + ((x >> 2) & 0x3333333333333333ULL);
    x = (x + (x >> 4)) & 0x0F0F0F0F0F0F0F0FULL;
    return (x * 0x0101010101010101ULL) >> 56;
  }

  /// Unnormalized posterior weight P(o) * P(Ans | o).
  double Weight(const JointDistribution::Entry& entry) const {
    return entry.prob * likelihood[Diff(entry.mask)];
  }

  /// P(Ans): the weights summed in entry order.
  double Total(const JointDistribution& prior) const {
    double total = 0.0;
    for (const auto& entry : prior.entries()) total += Weight(entry);
    return total;
  }
};

/// Passes 1 and 2 of MergeAnswersInPlace over the joint's entries and
/// logs. Returns false, writing nothing, on impossible evidence; else
/// leaves the normalized, compacted entries and logs, their mass and H.
[[gnu::always_inline]] inline bool MergePasses(
    const Evidence& evidence, size_t k,
    std::vector<JointDistribution::Entry>& entries, std::vector<double>& logs,
    int& merges_since_exact_logs, double& mass, double& entropy) {
  // Pass 1 keeps the weights in per-thread scratch, not in the joint, so
  // impossible evidence leaves the joint untouched.
  std::vector<double>& weights = common::ZeroedThreadScratch(
      common::ScratchSlot::kMergeWeights, entries.size());
  double total = 0.0;
  for (size_t i = 0; i < entries.size(); ++i) {
    weights[i] = evidence.Weight(entries[i]);
    total += weights[i];
  }
  if (total <= 0.0) return false;
  // Pass 2 normalizes and compacts the entries and their logs, and sums
  // the mass and H(F') = -sum p' log2 p' on the way. An exact merge takes
  // log2 p' from p'; the others carry it: p'(o) = p(o) L[#Diff] / P(Ans),
  // so log2 p'(o) = log2 p(o) + (log2 L[#Diff] - log2 P(Ans)), k + 2 logs
  // for the whole merge.
  const double inv = 1.0 / total;
  size_t kept = 0;
  const auto compact = [&](auto next_log) {
    for (size_t i = 0; i < entries.size(); ++i) {
      if (!(weights[i] > 0.0)) continue;
      const double p = weights[i] * inv;
      const double lp = next_log(i, p);
      entries[kept] = {entries[i].mask, p};
      logs[kept++] = lp;
      mass += p;
      entropy -= p * lp;
    }
  };
  if (++merges_since_exact_logs == JointDistribution::kMergesPerExactLogs) {
    merges_since_exact_logs = 0;
    compact([](size_t, double p) { return common::Log2OrZero(p); });
  } else {
    std::array<double, JointDistribution::kMaxFacts + 1> shift;
    const double log2_total = std::log2(total);
    for (size_t d = 0; d <= k; ++d) {
      shift[d] = std::log2(evidence.likelihood[d]) - log2_total;
    }
    compact([&](size_t i, double) {
      return logs[i] + shift[evidence.Diff(entries[i].mask)];
    });
  }
  entries.resize(kept);
  logs.resize(kept);
  return true;
}

/// MergePasses built for the popcnt instruction, which every AVX2 host
/// has. GCC compiles Evidence::Diff's SWAR count to one popcnt there, and
/// that count is most of the two passes' per-entry work.
#if CROWDFUSION_SIMD_AVX2_COMPILED
__attribute__((target("popcnt")))
#endif
bool MergePassesPopcnt(const Evidence& evidence, size_t k,
                       std::vector<JointDistribution::Entry>& entries,
                       std::vector<double>& logs, int& merges_since_exact_logs,
                       double& mass, double& entropy) {
  return MergePasses(evidence, k, entries, logs, merges_since_exact_logs, mass,
                     entropy);
}

}  // namespace

common::Status MergeAnswersInPlace(JointDistribution& joint,
                                   const AnswerSet& answer_set,
                                   const CrowdModel& crowd) {
  CF_RETURN_IF_ERROR(ValidateAnswerSet(joint, answer_set));
  const Evidence evidence(answer_set, crowd);
  const size_t k = answer_set.tasks.size();
  double mass = 0.0;
  double entropy = 0.0;
  const bool possible =
      common::ResolveSimd(common::SimdPolicy::kAuto)
          ? MergePassesPopcnt(evidence, k, joint.entries_, joint.log2_probs_,
                              joint.merges_since_exact_logs_, mass, entropy)
          : MergePasses(evidence, k, joint.entries_, joint.log2_probs_,
                        joint.merges_since_exact_logs_, mass, entropy);
  if (!possible) {
    return Status::FailedPrecondition(
        "received answers have zero probability under the prior "
        "(impossible evidence; check Pc and the prior support)");
  }
  joint.total_mass_ = mass;
  joint.entropy_bits_ = entropy;
  JointDistribution::AccumulateFactCellSums(joint.entries_, joint.num_facts_,
                                            common::SimdPolicy::kAuto,
                                            joint.cell_sums_);
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

}  // namespace crowdfusion::core
