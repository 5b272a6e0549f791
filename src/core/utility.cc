#include "core/utility.h"

#include "common/bit_util.h"
#include "common/logging.h"
#include "common/math_util.h"
#include "common/string_util.h"
#include "core/answer_model.h"
#include "core/sparse_refiner.h"

namespace crowdfusion::core {

using common::Status;

double QualityBits(const JointDistribution& joint) {
  return -joint.EntropyBits();
}

double TaskEntropyBits(const JointDistribution& joint,
                       std::span<const int> tasks, const CrowdModel& crowd) {
  return AnswerEntropyBits(joint, tasks, crowd);
}

common::Result<std::vector<double>> MarginalGainProfile(
    const JointDistribution& joint, std::span<const int> selected,
    std::span<const int> candidates, const CrowdModel& crowd,
    int num_threads) {
  if (static_cast<int>(selected.size()) >=
      SparsePartitionRefiner::kMaxCommittedTasks) {
    return Status::InvalidArgument(common::StrFormat(
        "selected set of %zu tasks exceeds the refiner cap of %d",
        selected.size(), SparsePartitionRefiner::kMaxCommittedTasks));
  }
  for (int id : selected) {
    if (id < 0 || id >= joint.num_facts()) {
      return Status::OutOfRange("selected fact id out of range");
    }
  }
  for (int id : candidates) {
    if (id < 0 || id >= joint.num_facts()) {
      return Status::OutOfRange("candidate fact id out of range");
    }
  }
  SparsePartitionRefiner::Options options;
  options.num_threads = num_threads;
  SparsePartitionRefiner refiner(joint, crowd, options);
  for (int id : selected) refiner.Commit(id);
  const double h_selected = refiner.CommittedEntropyBits();
  std::vector<double> gains = refiner.EntropiesWithCandidates(candidates);
  for (double& gain : gains) gain -= h_selected;
  return gains;
}

common::Result<std::vector<double>> FoiAnswerJointTable(
    const JointDistribution& joint, std::span<const int> foi,
    std::span<const int> tasks, const CrowdModel& crowd) {
  const int ni = static_cast<int>(foi.size());
  const int nt = static_cast<int>(tasks.size());
  const int m = ni + nt;
  if (m > JointDistribution::kMaxDenseFacts) {
    return Status::InvalidArgument(
        "|FOI| + |tasks| too large for dense joint table");
  }
  for (int id : foi) {
    if (id < 0 || id >= joint.num_facts()) {
      return Status::OutOfRange("FOI fact id out of range");
    }
  }
  for (int id : tasks) {
    if (id < 0 || id >= joint.num_facts()) {
      return Status::OutOfRange("task fact id out of range");
    }
  }
  const std::vector<int> foi_pos(foi.begin(), foi.end());
  const std::vector<int> task_pos(tasks.begin(), tasks.end());
  std::vector<double> table(1ULL << m, 0.0);
  for (const auto& entry : joint.entries()) {
    const uint64_t idx_foi = common::ExtractBits(entry.mask, foi_pos);
    const uint64_t idx_task = common::ExtractBits(entry.mask, task_pos);
    table[idx_foi | (idx_task << ni)] += entry.prob;
  }
  // Only the task coordinates (the high block) pass through the crowd's
  // noisy channel; FOI truths stay latent.
  const uint64_t noisy =
      nt == 0 ? 0ULL : (((1ULL << nt) - 1) << ni);
  crowd.PushThroughChannelOnCoords(table, m, noisy);
  return table;
}

common::Result<double> FoiTaskJointEntropyBits(const JointDistribution& joint,
                                               std::span<const int> foi,
                                               std::span<const int> tasks,
                                               const CrowdModel& crowd) {
  CF_ASSIGN_OR_RETURN(std::vector<double> table,
                      FoiAnswerJointTable(joint, foi, tasks, crowd));
  return common::Entropy(table);
}

common::Result<double> QueryBasedUtility(const JointDistribution& joint,
                                         std::span<const int> foi,
                                         std::span<const int> tasks,
                                         const CrowdModel& crowd) {
  CF_ASSIGN_OR_RETURN(double h_joint,
                      FoiTaskJointEntropyBits(joint, foi, tasks, crowd));
  const double h_tasks = TaskEntropyBits(joint, tasks, crowd);
  return h_tasks - h_joint;
}

}  // namespace crowdfusion::core
