#include "support/engine_oracle.h"

#include <algorithm>

#include "common/clock.h"
#include "common/logging.h"
#include "common/string_util.h"

namespace crowdfusion::core {

using common::Status;

common::Result<CrowdFusionEngine> CrowdFusionEngine::Create(
    JointDistribution initial, CrowdModel crowd, TaskSelector* selector,
    AsyncAnswerProvider* provider, EngineOptions options) {
  if (selector == nullptr) {
    return Status::InvalidArgument("selector must not be null");
  }
  if (provider == nullptr) {
    return Status::InvalidArgument("answer provider must not be null");
  }
  if (options.budget < 0) {
    return Status::InvalidArgument(
        common::StrFormat("budget must be non-negative, got %d",
                          options.budget));
  }
  if (options.tasks_per_round <= 0) {
    return Status::InvalidArgument(common::StrFormat(
        "tasks_per_round must be positive, got %d", options.tasks_per_round));
  }
  if (initial.num_facts() == 0) {
    return Status::InvalidArgument("initial distribution has no facts");
  }
  if (!initial.IsNormalized(1e-6)) {
    return Status::InvalidArgument("initial distribution is not normalized");
  }
  return CrowdFusionEngine(std::move(initial), crowd, selector, provider,
                           options);
}

common::Result<RoundRecord> CrowdFusionEngine::RunRound() {
  // Debug guard on the borrow contract: Create() validated these non-null,
  // so a null here means the owner destroyed (and zeroed) them while the
  // engine was still running — the classic async hand-off footgun.
  CF_DCHECK(selector_ != nullptr) << "selector destroyed before the engine";
  CF_DCHECK(provider_ != nullptr) << "provider destroyed before the engine";
  if (!HasBudget()) {
    return Status::FailedPrecondition("budget exhausted");
  }
  // Ask min(k, n, remaining budget) tasks this round (Section V-A).
  const int k = std::min({options_.tasks_per_round, current_.num_facts(),
                          options_.budget - cost_spent_});

  SelectionRequest request;
  request.joint = &current_;
  request.crowd = &crowd_;
  request.k = k;
  CF_ASSIGN_OR_RETURN(Selection selection, selector_->Select(request));

  RoundRecord record;
  record.round = rounds_completed_;
  record.tasks = selection.tasks;
  record.selected_entropy_bits = selection.entropy_bits;
  record.selection_stats = selection.stats;

  if (!selection.tasks.empty()) {
    // One attempt, as the scheduler's default ticket: a failed collection
    // fails the round instead of being retried behind the caller's back.
    CF_ASSIGN_OR_RETURN(
        record.answers,
        SubmitAndAwait(*provider_, selection.tasks, common::Clock::Real()));
    if (record.answers.size() != selection.tasks.size()) {
      return Status::Internal(common::StrFormat(
          "answer provider returned %zu answers for %zu tasks",
          record.answers.size(), selection.tasks.size()));
    }
    AnswerSet answer_set;
    answer_set.tasks = selection.tasks;
    answer_set.answers = record.answers;
    CF_RETURN_IF_ERROR(MergeAnswersInPlace(current_, answer_set, crowd_));
    cost_spent_ += static_cast<int>(selection.tasks.size());
  }

  record.utility_bits = -current_.EntropyBits();
  record.cumulative_cost = cost_spent_;
  ++rounds_completed_;
  return record;
}

common::Result<std::vector<RoundRecord>> CrowdFusionEngine::Run() {
  std::vector<RoundRecord> records;
  while (HasBudget()) {
    CF_ASSIGN_OR_RETURN(RoundRecord record, RunRound());
    const bool selected_nothing = record.tasks.empty();
    records.push_back(std::move(record));
    if (selected_nothing) break;  // Selector sees no benefit in more tasks.
  }
  return records;
}

}  // namespace crowdfusion::core
