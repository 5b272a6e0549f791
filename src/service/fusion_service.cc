#include "service/fusion_service.h"

#include <algorithm>
#include <cmath>

#include "common/logging.h"
#include "common/math_util.h"
#include "common/string_util.h"
#include "common/thread_pool.h"
#include "crowd/provider_registry.h"
#include "data/statement.h"
#include "fusion/fusion_result.h"
#include "net/http_answer_provider.h"
#include "net/provider_pool.h"

namespace crowdfusion::service {

using common::Status;

const char* RunModeName(RunMode mode) {
  switch (mode) {
    case RunMode::kEngine:
      return "engine";
    case RunMode::kPipelined:
      return "pipelined";
  }
  return "unknown";
}

common::Result<RunMode> ParseRunMode(const std::string& name) {
  if (name == "engine") return RunMode::kEngine;
  if (name == "pipelined" || name == "blocking") return RunMode::kPipelined;
  return Status::InvalidArgument(
      "unknown run mode \"" + name +
      "\"; expected \"engine\", \"blocking\", or \"pipelined\"");
}

namespace {

/// The shape check every inline instance passes, at creation and on
/// arrival: at least one fact, and truths (when given) one per fact.
Status CheckInstances(const std::vector<InstanceSpec>& specs) {
  for (const InstanceSpec& spec : specs) {
    if (spec.joint.num_facts() == 0) {
      return Status::InvalidArgument("instance \"" + spec.name +
                                     "\" has no facts");
    }
    if (!spec.truths.empty() &&
        static_cast<int>(spec.truths.size()) != spec.joint.num_facts()) {
      return Status::InvalidArgument("instance \"" + spec.name +
                                     "\" truths do not match its fact count");
    }
  }
  return Status::Ok();
}

}  // namespace

// ---------------------------------------------------------------------------
// Session
// ---------------------------------------------------------------------------

const core::JointDistribution& Session::joint(int instance) const {
  CF_CHECK(instance >= 0 && instance < num_instances());
  if (scheduler_.has_value()) return scheduler_->joint(instance);
  return instances_[static_cast<size_t>(instance)].engine->current();
}

const std::vector<bool>& Session::truths(int instance) const {
  CF_CHECK(instance >= 0 && instance < num_instances());
  return instances_[static_cast<size_t>(instance)].truths;
}

int Session::num_facts(int instance) const {
  CF_CHECK(instance >= 0 && instance < num_instances());
  return instances_[static_cast<size_t>(instance)].num_facts;
}

int Session::cost_spent(int instance) const {
  CF_CHECK(instance >= 0 && instance < num_instances());
  if (scheduler_.has_value()) return scheduler_->cost_spent(instance);
  return instances_[static_cast<size_t>(instance)].engine->cost_spent();
}

int Session::total_cost_spent() const {
  if (scheduler_.has_value()) return scheduler_->total_cost_spent();
  int total = 0;
  for (const Instance& instance : instances_) {
    total += instance.engine->cost_spent();
  }
  return total;
}

double Session::total_utility_bits() const {
  if (scheduler_.has_value()) return scheduler_->TotalUtilityBits();
  double total = 0.0;
  for (const Instance& instance : instances_) {
    total += -instance.engine->current().EntropyBits();
  }
  return total;
}

std::pair<int64_t, int64_t> Session::answers_served_correct() const {
  int64_t served = 0;
  int64_t correct = 0;
  for (const Instance& instance : instances_) {
    const auto [s, c] = instance.provider->ServedCorrect();
    served += s;
    correct += c;
  }
  return {served, correct};
}

int64_t Session::tickets_resubmitted() const {
  int64_t total = 0;
  for (const Instance& instance : instances_) {
    total += instance.provider->TicketsResubmitted();
  }
  return total;
}

StepOutcome Session::FromRoundRecord(int instance,
                                     const core::RoundRecord& record) {
  StepOutcome outcome;
  outcome.step = steps_emitted_++;
  outcome.instance = instance;
  outcome.round = record.round;
  outcome.tasks = record.tasks;
  outcome.answers = record.answers;
  outcome.selected_entropy_bits = record.selected_entropy_bits;
  outcome.expected_gain_bits =
      record.tasks.empty()
          ? 0.0
          : record.selected_entropy_bits -
                static_cast<double>(record.tasks.size()) *
                    crowd_->EntropyBits();
  outcome.utility_bits = record.utility_bits;
  outcome.cumulative_cost = record.cumulative_cost;
  selection_seconds_ += record.selection_stats.elapsed_seconds;
  selection_samples_.push_back(record.selection_stats.elapsed_seconds);
  return outcome;
}

double Session::selection_seconds() const {
  if (!scheduler_.has_value()) return selection_seconds_;
  double total = 0.0;
  for (double s : scheduler_->selection_compute_seconds()) total += s;
  return total;
}

std::vector<double> Session::selection_compute_samples() const {
  return scheduler_.has_value() ? scheduler_->selection_compute_seconds()
                                : selection_samples_;
}

StepOutcome Session::FromStepRecord(
    const core::BudgetScheduler::StepRecord& record) {
  StepOutcome outcome;
  outcome.step = steps_emitted_++;
  outcome.instance = record.instance;
  outcome.tasks = record.tasks;
  outcome.answers = record.answers;
  outcome.expected_gain_bits = record.expected_gain_bits;
  outcome.selected_entropy_bits =
      record.tasks.empty()
          ? 0.0
          : record.expected_gain_bits +
                static_cast<double>(record.tasks.size()) *
                    crowd_->EntropyBits();
  outcome.utility_bits = record.total_utility_bits;
  outcome.cumulative_cost = record.cumulative_cost;
  outcome.latency_seconds = record.latency_seconds;
  return outcome;
}

common::Status Session::StepEngine() {
  // One round-robin pass: every instance that still has budget and gain
  // runs one engine round, in registration order — exactly the global
  // rounds eval::RunExperiment reported before this facade existed. A
  // failed round ends the pass; the rounds before it have spent their
  // budget, so their outcomes stay in steps_.
  bool ran = false;
  for (size_t i = 0; i < instances_.size(); ++i) {
    Instance& instance = instances_[i];
    if (instance.exhausted || !instance.engine->HasBudget()) continue;
    CF_ASSIGN_OR_RETURN(const core::RoundRecord record,
                        instance.engine->RunRound());
    if (record.tasks.empty()) {
      // Selector sees no gain for this instance; stop asking (K* < k).
      instance.exhausted = true;
    }
    steps_.push_back(FromRoundRecord(static_cast<int>(i), record));
    ran = true;
  }
  if (!ran) done_ = true;
  return common::Status::Ok();
}

void Session::AppendPipelinedRecords(
    const std::vector<core::BudgetScheduler::StepRecord>& records,
    bool more) {
  for (const auto& record : records) steps_.push_back(FromStepRecord(record));
  // A spent budget means nothing is in flight either (cost_spent <=
  // cost_reserved <= total_budget), so the run is over now rather than
  // one empty quantum later.
  if (!more || !scheduler_->HasBudget()) done_ = true;
}

common::Status Session::StepPipelined() {
  std::vector<core::BudgetScheduler::StepRecord> records;
  CF_ASSIGN_OR_RETURN(const bool more, scheduler_->RunPipelinedStep(records));
  AppendPipelinedRecords(records, more);
  return common::Status::Ok();
}

std::vector<StepOutcome> Session::OutcomesSince(size_t first) const {
  return std::vector<StepOutcome>(
      steps_.begin() + static_cast<std::ptrdiff_t>(first), steps_.end());
}

common::Result<std::vector<StepOutcome>> Session::Step() {
  if (done_) return std::vector<StepOutcome>{};
  common::Stopwatch stopwatch;
  const size_t first = steps_.size();
  const common::Status status =
      mode_ == RunMode::kEngine ? StepEngine() : StepPipelined();
  wall_seconds_ += stopwatch.ElapsedSeconds();
  if (!status.ok()) return status;
  return OutcomesSince(first);
}

common::Result<StepAttempt> Session::StepAt(double now) {
  if (mode_ == RunMode::kEngine || done_) {
    CF_ASSIGN_OR_RETURN(std::vector<StepOutcome> outcomes, Step());
    return StepAttempt{.outcomes = std::move(outcomes)};
  }
  if (!scheduler_->step_open()) open_quantum_timer_.Restart();
  std::vector<core::BudgetScheduler::StepRecord> records;
  const auto advance = scheduler_->AdvancePipelinedStep(now, records);
  using State = core::BudgetScheduler::Advance::State;
  if (advance.ok() && advance->state == State::kWaiting) {
    StepAttempt waiting;
    waiting.complete = false;
    waiting.due_at = now + advance->wait_seconds;
    return waiting;
  }
  wall_seconds_ += open_quantum_timer_.ElapsedSeconds();
  if (!advance.ok()) return advance.status();
  const size_t first = steps_.size();
  AppendPipelinedRecords(records, advance->state == State::kStepped);
  return StepAttempt{.outcomes = OutcomesSince(first)};
}

common::Status Session::Drain() {
  if (mode_ != RunMode::kEngine || !selector_->ConcurrentSelectSafe()) {
    while (!done_) CF_RETURN_IF_ERROR(Step().status());
    return Status::Ok();
  }
  if (done_) return Status::Ok();
  common::Stopwatch stopwatch;
  // Each instance runs the rounds StepEngine's passes would give it, back
  // to back, into its own slot; the ParallelFor join orders every write
  // before the merge below.
  std::vector<std::vector<core::RoundRecord>> records(instances_.size());
  std::vector<Status> statuses(instances_.size());
  common::ThreadPool::Shared()->ParallelFor(
      0, static_cast<int64_t>(instances_.size()),
      [this, &records, &statuses](int64_t begin, int64_t end) {
        for (auto i = static_cast<size_t>(begin);
             i < static_cast<size_t>(end); ++i) {
          Instance& instance = instances_[i];
          while (!instance.exhausted && instance.engine->HasBudget()) {
            auto record = instance.engine->RunRound();
            if (!record.ok()) {
              statuses[i] = record.status();
              break;
            }
            if (record->tasks.empty()) instance.exhausted = true;
            records[i].push_back(std::move(record).value());
          }
        }
      });
  size_t passes = 0;
  for (const auto& rounds : records) passes = std::max(passes, rounds.size());
  for (size_t pass = 0; pass < passes; ++pass) {
    for (size_t i = 0; i < records.size(); ++i) {
      if (pass < records[i].size()) {
        steps_.push_back(
            FromRoundRecord(static_cast<int>(i), records[i][pass]));
      }
    }
  }
  wall_seconds_ += stopwatch.ElapsedSeconds();
  for (const Status& status : statuses) CF_RETURN_IF_ERROR(status);
  done_ = true;
  return Status::Ok();
}

SessionProgress Session::Poll() const {
  SessionProgress progress;
  progress.done = done_;
  progress.steps_completed = static_cast<int>(steps_.size());
  progress.total_cost_spent = total_cost_spent();
  progress.total_budget = total_budget_;
  progress.total_utility_bits = total_utility_bits();
  progress.dead_instances =
      scheduler_.has_value() ? scheduler_->dead_instances() : 0;
  return progress;
}

FusionResponse Session::Finish() const {
  FusionResponse response;
  response.label = label_;
  response.mode = mode_;
  response.steps = steps_;
  response.total_cost_spent = total_cost_spent();
  response.total_utility_bits = total_utility_bits();
  response.dead_instances =
      scheduler_.has_value() ? scheduler_->dead_instances() : 0;

  response.instances.reserve(instances_.size());
  for (size_t i = 0; i < instances_.size(); ++i) {
    InstanceReport report;
    report.name = instances_[i].name;
    report.final_joint = joint(static_cast<int>(i));
    report.final_marginals = report.final_joint.Marginals();
    report.utility_bits = -report.final_joint.EntropyBits();
    report.cost_spent = cost_spent(static_cast<int>(i));
    report.num_facts = instances_[i].num_facts;
    report.dead = scheduler_.has_value() &&
                  scheduler_->instance_dead(static_cast<int>(i));
    response.instances.push_back(std::move(report));
  }

  RunStats& stats = response.stats;
  stats.wall_seconds = wall_seconds_;
  stats.selection_seconds = selection_seconds();
  const auto [served, correct] = answers_served_correct();
  stats.answers_served = served;
  stats.answers_correct = correct;
  stats.tickets_resubmitted = tickets_resubmitted();
  if (wall_seconds_ > 0) {
    stats.steps_per_second =
        static_cast<double>(steps_.size()) / wall_seconds_;
  }
  std::vector<double> latencies;
  latencies.reserve(steps_.size());
  for (const StepOutcome& outcome : steps_) {
    if (outcome.instance >= 0) {
      latencies.push_back(outcome.latency_seconds * 1e3);
    }
  }
  if (!latencies.empty()) {
    std::sort(latencies.begin(), latencies.end());
    stats.p50_latency_ms = common::PercentileOfSorted(latencies, 0.50);
    stats.p95_latency_ms = common::PercentileOfSorted(latencies, 0.95);
  }
  std::vector<double> selection_ms = selection_compute_samples();
  if (!selection_ms.empty()) {
    for (double& s : selection_ms) s *= 1e3;
    std::sort(selection_ms.begin(), selection_ms.end());
    stats.selection_compute_p50_ms =
        common::PercentileOfSorted(selection_ms, 0.50);
    stats.selection_compute_p95_ms =
        common::PercentileOfSorted(selection_ms, 0.95);
  }
  return response;
}

// ---------------------------------------------------------------------------
// FusionService
// ---------------------------------------------------------------------------

FusionService::FusionService() : FusionService(Config{}) {}

FusionService::FusionService(Config config)
    : config_(config),
      selectors_(core::BuiltinSelectorRegistry()),
      fusers_(fusion::BuiltinFuserRegistry()),
      providers_(crowd::FullProviderRegistry(config.clock)) {
  // The remote-platform providers: "http" turns a ProviderSpec endpoint
  // into tickets on a crowd server speaking the net wire; "http_pool"
  // spreads the same wire across N endpoints with failover resubmission.
  CF_CHECK_OK(net::RegisterHttpProvider(providers_, config.clock));
  CF_CHECK_OK(net::RegisterHttpPoolProvider(providers_, config.clock));
}

common::Result<std::vector<InstanceSpec>> FusionService::BuildWorkload(
    FusionRequest& request) const {
  if (!request.instances.empty() && request.dataset.has_value()) {
    return Status::InvalidArgument(
        "request must carry inline instances or a dataset spec, not both");
  }
  if (!request.instances.empty()) {
    std::vector<InstanceSpec> instances = std::move(request.instances);
    CF_RETURN_IF_ERROR(CheckInstances(instances));
    return instances;
  }
  if (!request.dataset.has_value()) {
    return Status::InvalidArgument(
        "request carries neither inline instances nor a dataset spec");
  }

  // The Book-dataset pipeline: generate claims, fuse machine-only, build
  // one correlation-aware joint per book (eval::Prepare's former job).
  const DatasetSpec& spec = *request.dataset;
  if (spec.max_facts_per_book <= 0) {
    return Status::InvalidArgument("max_facts_per_book must be positive");
  }
  CF_ASSIGN_OR_RETURN(const data::BookDataset dataset,
                      data::GenerateBookDataset(spec.generate));
  CF_ASSIGN_OR_RETURN(const std::unique_ptr<fusion::Fuser> fuser,
                      fusers_.Create(spec.fuser.kind, spec.fuser));
  CF_ASSIGN_OR_RETURN(const fusion::FusionResult fused,
                      fuser->Fuse(dataset.claims));
  CF_RETURN_IF_ERROR(ValidateFusionResult(dataset.claims, fused));

  std::vector<InstanceSpec> instances;
  for (const data::Book& book : dataset.books) {
    const int num_facts =
        std::min<int>(static_cast<int>(book.statements.size()),
                      spec.max_facts_per_book);
    if (num_facts == 0) continue;
    InstanceSpec instance;
    instance.name = book.isbn;
    std::vector<double> marginals(static_cast<size_t>(num_facts));
    std::vector<data::Statement> statements(
        book.statements.begin(), book.statements.begin() + num_facts);
    instance.truths.resize(static_cast<size_t>(num_facts));
    instance.categories.resize(static_cast<size_t>(num_facts));
    for (int i = 0; i < num_facts; ++i) {
      const int vid = book.value_ids[static_cast<size_t>(i)];
      marginals[static_cast<size_t>(i)] =
          fused.value_probability[static_cast<size_t>(vid)];
      instance.categories[static_cast<size_t>(i)] = static_cast<int>(
          dataset.value_category[static_cast<size_t>(vid)]);
      instance.truths[static_cast<size_t>(i)] =
          dataset.value_truth[static_cast<size_t>(vid)];
    }
    CF_ASSIGN_OR_RETURN(
        instance.joint,
        data::BuildBookJoint(marginals, statements, spec.correlation));
    instances.push_back(std::move(instance));
  }
  if (instances.empty()) {
    return Status::InvalidArgument("no books with facts were generated");
  }
  return instances;
}

common::Result<std::unique_ptr<Session>> FusionService::CreateSession(
    FusionRequest request) const {
  if (request.budget.budget_per_instance < 0) {
    return Status::InvalidArgument(
        "budget_per_instance must be non-negative");
  }
  if (request.budget.tasks_per_step <= 0) {
    return Status::InvalidArgument("tasks_per_step must be positive");
  }
  if (request.mode == RunMode::kEngine && request.budget.total_budget > 0) {
    return Status::InvalidArgument(
        "engine mode budgets per instance (budget_per_instance); "
        "total_budget is a scheduler-mode knob");
  }
  CF_ASSIGN_OR_RETURN(const core::CrowdModel crowd,
                      core::CrowdModel::Create(request.assumed_pc));
  CF_ASSIGN_OR_RETURN(std::vector<InstanceSpec> workload,
                      BuildWorkload(request));

  // Raw `new`: Session's constructor is private and make_unique cannot
  // reach it through friendship.
  std::unique_ptr<Session> session(new Session());
  session->mode_ = request.mode;
  session->crowd_ = crowd;
  session->label_ =
      request.label.empty()
          ? common::StrFormat("%s %s x%d", RunModeName(request.mode),
                              request.selector.kind.c_str(),
                              static_cast<int>(workload.size()))
          : request.label;
  CF_ASSIGN_OR_RETURN(session->selector_,
                      selectors_.Create(request.selector.kind,
                                        request.selector));

  const int num_instances = static_cast<int>(workload.size());
  const int total_budget =
      request.budget.total_budget > 0
          ? request.budget.total_budget
          : request.budget.budget_per_instance * num_instances;
  session->total_budget_ = request.mode == RunMode::kEngine
                               ? request.budget.budget_per_instance *
                                     num_instances
                               : total_budget;

  if (request.mode != RunMode::kEngine) {
    core::BudgetScheduler::Options options;
    options.total_budget = total_budget;
    options.tasks_per_step = request.budget.tasks_per_step;
    options.max_in_flight = request.pipeline.max_in_flight;
    options.ticket.max_attempts = request.pipeline.ticket_max_attempts;
    options.ticket.deadline_seconds =
        request.pipeline.ticket_deadline_seconds;
    options.ticket.retry_backoff_seconds =
        request.pipeline.retry_backoff_seconds;
    options.on_ticket_failure = request.pipeline.on_ticket_failure;
    options.max_poll_seconds = request.pipeline.max_poll_seconds;
    options.concurrent_selection = request.pipeline.concurrent_selection;
    options.clock = config_.clock;
    CF_ASSIGN_OR_RETURN(core::BudgetScheduler scheduler,
                        core::BudgetScheduler::Create(
                            crowd, session->selector_.get(), options));
    session->scheduler_.emplace(std::move(scheduler));
  }

  // Bind one provider per instance from the request's template: fill the
  // instance's gold labels and derive per-instance seeds, then build
  // through the registry. The session owns every provider, so the
  // engine/scheduler borrow contracts hold by construction.
  session->provider_template_ = request.provider;
  session->budget_ = request.budget;
  session->providers_ = &providers_;
  for (int index = 0; index < num_instances; ++index) {
    CF_RETURN_IF_ERROR(session->BindInstance(
        std::move(workload[static_cast<size_t>(index)])));
  }
  return session;
}

common::Status Session::BindInstance(InstanceSpec spec) {
  const int index = next_seed_index_++;
  Instance instance;
  instance.name = spec.name.empty()
                      ? common::StrFormat("instance-%d", index)
                      : spec.name;
  instance.truths = spec.truths;
  instance.num_facts = spec.joint.num_facts();

  core::ProviderSpec provider_spec = provider_template_;
  if (provider_spec.truths.empty()) {
    provider_spec.truths = spec.truths;
    provider_spec.categories = spec.categories;
  }
  provider_spec.seed =
      provider_template_.seed + static_cast<uint64_t>(index);
  provider_spec.latency_seed =
      provider_template_.latency_seed + static_cast<uint64_t>(index);
  provider_spec.adversary.seed =
      provider_template_.adversary.seed + static_cast<uint64_t>(index);
  CF_ASSIGN_OR_RETURN(instance.provider,
                      providers_->Create(provider_spec.kind, provider_spec));

  if (mode_ == RunMode::kEngine) {
    core::EngineOptions options;
    options.budget = budget_.budget_per_instance;
    options.tasks_per_round = budget_.tasks_per_step;
    CF_ASSIGN_OR_RETURN(
        core::CrowdFusionEngine engine,
        core::CrowdFusionEngine::Create(std::move(spec.joint), *crowd_,
                                        selector_.get(),
                                        instance.provider.get(), options));
    instance.engine.emplace(std::move(engine));
  } else {
    CF_RETURN_IF_ERROR(scheduler_
                           ->AddInstance(instance.name, std::move(spec.joint),
                                         instance.provider.get())
                           .status());
  }
  instances_.push_back(std::move(instance));
  return Status::Ok();
}

common::Result<int> Session::AddInstances(std::vector<InstanceSpec> specs,
                                          int additional_budget) {
  if (specs.empty()) {
    return Status::InvalidArgument("no instances to add");
  }
  if (additional_budget < 0) {
    return Status::InvalidArgument("additional_budget must be non-negative");
  }
  if (mode_ == RunMode::kEngine && additional_budget != 0) {
    return Status::InvalidArgument(
        "engine mode budgets per instance (budget_per_instance); "
        "additional_budget is a scheduler-mode knob");
  }
  if (scheduler_.has_value() && scheduler_->step_open()) {
    return Status::FailedPrecondition(
        "a step is waiting on the crowd; add instances once it completes");
  }
  CF_RETURN_IF_ERROR(CheckInstances(specs));

  const int first_new_instance = num_instances();
  if (mode_ != RunMode::kEngine && additional_budget > 0) {
    CF_RETURN_IF_ERROR(scheduler_->AddBudget(additional_budget));
    total_budget_ += additional_budget;
  }
  for (InstanceSpec& spec : specs) {
    CF_RETURN_IF_ERROR(BindInstance(std::move(spec)));
    if (mode_ == RunMode::kEngine) {
      total_budget_ += budget_.budget_per_instance;
    }
  }

  // A run that stopped for lack of gain (or arrivals) resumes; one whose
  // global budget is already spent stays done until budget arrives too.
  if (mode_ == RunMode::kEngine || scheduler_->HasBudget()) {
    done_ = false;
  }
  return first_new_instance;
}

common::Result<FusionResponse> FusionService::Run(
    FusionRequest request) const {
  CF_ASSIGN_OR_RETURN(const std::unique_ptr<Session> session,
                      CreateSession(std::move(request)));
  CF_RETURN_IF_ERROR(session->Drain());
  return session->Finish();
}

}  // namespace crowdfusion::service
