#include "support/oracles.h"

#include <sstream>
#include <utility>

#include "common/bit_util.h"
#include "common/logging.h"
#include "common/string_util.h"
#include "core/utility.h"

namespace crowdfusion::common {

double Normalize(std::vector<double>& values) {
  double total = 0.0;
  for (double v : values) total += v;
  if (total <= 0.0) return 0.0;
  const double inv = 1.0 / total;
  for (double& v : values) v *= inv;
  return total;
}

double Sum(std::span<const double> values) {
  double total = 0.0;
  for (double v : values) total += v;
  return total;
}

}  // namespace crowdfusion::common

namespace crowdfusion::core {

using common::Status;
using Entry = JointDistribution::Entry;

double ExpectedQualityGain(const JointDistribution& joint,
                           std::span<const int> tasks,
                           const CrowdModel& crowd) {
  return TaskEntropyBits(joint, tasks, crowd) -
         static_cast<double>(tasks.size()) * crowd.EntropyBits();
}

double MarginalGain(const JointDistribution& joint,
                    std::span<const int> selected, int candidate,
                    const CrowdModel& crowd) {
  std::vector<int> extended(selected.begin(), selected.end());
  extended.push_back(candidate);
  return TaskEntropyBits(joint, extended, crowd) -
         TaskEntropyBits(joint, selected, crowd);
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

common::Result<JointDistribution> Uniform(int num_facts) {
  if (num_facts < 0 || num_facts > JointDistribution::kMaxDenseFacts) {
    return Status::InvalidArgument(
        "uniform distribution requires 0 <= num_facts <= 30");
  }
  const size_t count = 1ULL << num_facts;
  std::vector<Entry> entries(count);
  const double p = 1.0 / static_cast<double>(count);
  for (size_t mask = 0; mask < count; ++mask) {
    entries[mask] = {static_cast<uint64_t>(mask), p};
  }
  return JointDistribution::FromEntries(num_facts, std::move(entries));
}

common::Result<JointDistribution> PointMass(int num_facts, uint64_t mask) {
  return JointDistribution::FromEntries(num_facts, {{mask, 1.0}});
}

uint64_t Mode(const JointDistribution& joint) {
  uint64_t best_mask = 0;
  double best_prob = -1.0;
  for (const Entry& e : joint.entries()) {
    if (e.prob > best_prob) {
      best_prob = e.prob;
      best_mask = e.mask;
    }
  }
  return best_mask;
}

std::vector<double> ToDense(const JointDistribution& joint) {
  CF_CHECK(joint.num_facts() <= JointDistribution::kMaxDenseFacts)
      << "cannot densify " << joint.num_facts() << " facts";
  std::vector<double> out(1ULL << joint.num_facts(), 0.0);
  for (const Entry& e : joint.entries()) out[e.mask] = e.prob;
  return out;
}

std::string ToString(const JointDistribution& joint, int max_entries) {
  std::ostringstream os;
  os << "JointDistribution(n=" << joint.num_facts()
     << ", |O|=" << joint.support_size() << ") {";
  int shown = 0;
  for (const Entry& e : joint.entries()) {
    if (shown++ >= max_entries) {
      os << " ...";
      break;
    }
    os << " ";
    for (int i = joint.num_facts() - 1; i >= 0; --i) {
      os << (common::GetBit(e.mask, i) ? 'T' : 'F');
    }
    os << ":" << common::StrFormat("%.4f", e.prob);
  }
  os << " }";
  return os.str();
}

}  // namespace crowdfusion::core
