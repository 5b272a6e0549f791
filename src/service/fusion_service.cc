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

std::pair<const core::BudgetScheduler*, int> Session::Locate(
    int instance) const {
  CF_CHECK(instance >= 0 && instance < num_instances());
  if (mode_ == RunMode::kEngine) {
    return {&loops_[static_cast<size_t>(instance)].scheduler, 0};
  }
  return {&loops_.front().scheduler, instance};
}

const core::JointDistribution& Session::joint(int instance) const {
  const auto [scheduler, index] = Locate(instance);
  return scheduler->joint(index);
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
  const auto [scheduler, index] = Locate(instance);
  return scheduler->cost_spent(index);
}

int Session::total_cost_spent() const {
  int total = 0;
  for (const Loop& loop : loops_) total += loop.scheduler.total_cost_spent();
  return total;
}

double Session::total_utility_bits() const {
  double total = 0.0;
  for (const Loop& loop : loops_) total += loop.scheduler.TotalUtilityBits();
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

double Session::selection_seconds() const {
  double total = 0.0;
  for (const Loop& loop : loops_) {
    for (double s : loop.scheduler.selection_compute_seconds()) total += s;
  }
  return total;
}

std::vector<double> Session::selection_compute_samples() const {
  std::vector<double> samples;
  for (const Loop& loop : loops_) {
    const std::vector<double>& log = loop.scheduler.selection_compute_seconds();
    samples.insert(samples.end(), log.begin(), log.end());
  }
  return samples;
}

StepOutcome Session::ToOutcome(
    size_t loop, const core::BudgetScheduler::StepRecord& record) const {
  StepOutcome outcome;
  outcome.step = static_cast<int>(steps_.size());
  if (mode_ == RunMode::kEngine) {
    // The instance's own scheduler: its exhaustion marker is the
    // instance's last, empty round.
    outcome.instance = static_cast<int>(loop);
    outcome.round = record.step;
  } else {
    outcome.instance = record.instance;
  }
  outcome.tasks = record.tasks;
  outcome.answers = record.answers;
  outcome.selected_entropy_bits = record.selected_entropy_bits;
  outcome.expected_gain_bits = record.expected_gain_bits;
  outcome.utility_bits = record.total_utility_bits;
  outcome.cumulative_cost = record.cumulative_cost;
  outcome.latency_seconds = record.latency_seconds;
  return outcome;
}

std::vector<StepOutcome> Session::OutcomesSince(size_t first) const {
  return std::vector<StepOutcome>(
      steps_.begin() + static_cast<std::ptrdiff_t>(first), steps_.end());
}

bool Session::AnyLive() const {
  return std::any_of(loops_.begin(), loops_.end(),
                     [](const Loop& loop) { return loop.live(); });
}

common::Result<std::vector<StepOutcome>> Session::Step() {
  for (;;) {
    double wait_seconds = 0.0;
    CF_ASSIGN_OR_RETURN(StepAttempt attempt,
                        Advance(clock_->NowSeconds(), wait_seconds));
    if (attempt.complete) return std::move(attempt.outcomes);
    clock_->SleepSeconds(wait_seconds);
  }
}

common::Result<StepAttempt> Session::StepAt(double now) {
  double wait_seconds = 0.0;
  return Advance(now, wait_seconds);
}

void Session::CloseQuantum() {
  quantum_open_ = false;
  wall_seconds_ += open_quantum_timer_.ElapsedSeconds();
}

common::Result<StepAttempt> Session::Advance(double now,
                                             double& wait_seconds) {
  if (done_) return StepAttempt{};
  if (!quantum_open_) {
    quantum_open_ = true;
    quantum_first_ = steps_.size();
    cursor_ = 0;
    open_quantum_timer_.Restart();
  }
  // One pass over the live loops, in registration order: in engine mode
  // every instance that still has budget and gain runs one round, exactly
  // the global rounds eval::RunExperiment reports. A failed round ends
  // the pass; the rounds before it have spent their budget, so their
  // outcomes stay in steps_.
  using State = core::BudgetScheduler::Advance::State;
  std::vector<core::BudgetScheduler::StepRecord> records;
  for (; cursor_ < loops_.size(); ++cursor_) {
    Loop& loop = loops_[cursor_];
    if (!loop.live()) continue;
    const auto advance = loop.scheduler.AdvancePipelinedStep(now, records);
    // A call that fails after harvesting a ticket has merged and charged
    // it, so its record lands in steps_ either way.
    for (const auto& record : records) {
      steps_.push_back(ToOutcome(cursor_, record));
    }
    records.clear();
    if (!advance.ok()) {
      CloseQuantum();
      return advance.status();
    }
    if (advance->state == State::kWaiting) {
      wait_seconds = advance->wait_seconds;
      StepAttempt waiting;
      waiting.complete = false;
      waiting.due_at = now + wait_seconds;
      return waiting;
    }
    // A spent budget means nothing is in flight either (cost_spent <=
    // cost_reserved <= total_budget), so the loop is over now rather
    // than one empty quantum later.
    if (advance->state == State::kDone || !loop.scheduler.HasBudget()) {
      loop.done = true;
    }
  }
  CloseQuantum();
  done_ = !AnyLive();
  return StepAttempt{.outcomes = OutcomesSince(quantum_first_)};
}

common::Status Session::Drain() {
  if (mode_ != RunMode::kEngine || quantum_open_ ||
      !selector_->ConcurrentSelectSafe()) {
    while (!done_) CF_RETURN_IF_ERROR(Step().status());
    return Status::Ok();
  }
  if (done_) return Status::Ok();
  common::Stopwatch stopwatch;
  // Each instance's scheduler runs the rounds Step()'s passes would give
  // it, back to back, into its own slot; the ParallelFor join orders
  // every write before the merge below. One instance with a window of 1
  // merges one record per quantum, so record r is the instance's round
  // in pass r.
  std::vector<std::vector<core::BudgetScheduler::StepRecord>> records(
      loops_.size());
  std::vector<Status> statuses(loops_.size());
  common::ThreadPool::Shared()->ParallelFor(
      0, static_cast<int64_t>(loops_.size()),
      [this, &records, &statuses](int64_t begin, int64_t end) {
        for (auto i = static_cast<size_t>(begin);
             i < static_cast<size_t>(end); ++i) {
          Loop& loop = loops_[i];
          while (loop.live()) {
            const auto more = loop.scheduler.RunPipelinedStep(records[i]);
            if (!more.ok()) {
              statuses[i] = more.status();
              break;
            }
            if (!*more || !loop.scheduler.HasBudget()) loop.done = true;
          }
        }
      });
  size_t passes = 0;
  for (const auto& rounds : records) passes = std::max(passes, rounds.size());
  for (size_t pass = 0; pass < passes; ++pass) {
    for (size_t i = 0; i < records.size(); ++i) {
      if (pass < records[i].size()) {
        steps_.push_back(ToOutcome(i, records[i][pass]));
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
  for (const Loop& loop : loops_) {
    progress.dead_instances += loop.scheduler.dead_instances();
  }
  return progress;
}

FusionResponse Session::Finish() const {
  FusionResponse response;
  response.label = label_;
  response.mode = mode_;
  response.steps = steps_;
  response.total_cost_spent = total_cost_spent();
  response.total_utility_bits = total_utility_bits();
  response.dead_instances = Poll().dead_instances;

  response.instances.reserve(instances_.size());
  for (size_t i = 0; i < instances_.size(); ++i) {
    InstanceReport report;
    report.name = instances_[i].name;
    report.final_joint = joint(static_cast<int>(i));
    report.final_marginals = report.final_joint.Marginals();
    report.utility_bits = -report.final_joint.EntropyBits();
    report.cost_spent = cost_spent(static_cast<int>(i));
    report.num_facts = instances_[i].num_facts;
    const auto [scheduler, index] = Locate(static_cast<int>(i));
    report.dead = scheduler->instance_dead(index);
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
  CF_CHECK_OK(net::RegisterHttpProvider(providers_));
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

  core::BudgetScheduler::Options& options = session->scheduler_options_;
  options.tasks_per_step = request.budget.tasks_per_step;
  options.clock = config_.clock;
  if (request.mode == RunMode::kEngine) {
    // Per instance: one ticket at a time, default ticket contract.
    options.total_budget = request.budget.budget_per_instance;
    options.max_in_flight = 1;
  } else {
    options.total_budget =
        request.budget.total_budget > 0
            ? request.budget.total_budget
            : request.budget.budget_per_instance *
                  static_cast<int>(workload.size());
    session->total_budget_ = options.total_budget;
    options.max_in_flight = request.pipeline.max_in_flight;
    options.ticket.max_attempts = request.pipeline.ticket_max_attempts;
    options.ticket.deadline_seconds =
        request.pipeline.ticket_deadline_seconds;
    options.ticket.retry_backoff_seconds =
        request.pipeline.retry_backoff_seconds;
    options.on_ticket_failure = request.pipeline.on_ticket_failure;
    options.max_poll_seconds = request.pipeline.max_poll_seconds;
    options.concurrent_selection = request.pipeline.concurrent_selection;
  }
  if (config_.clock != nullptr) session->clock_ = config_.clock;

  // Bind one provider per instance from the request's template: fill the
  // instance's gold labels and derive per-instance seeds, then build
  // through the registry. The session owns every provider, so the
  // scheduler borrow contract holds by construction.
  session->provider_template_ = request.provider;
  session->providers_ = &providers_;
  for (InstanceSpec& spec : workload) {
    CF_RETURN_IF_ERROR(session->BindInstance(std::move(spec)));
  }
  return session;
}

common::Status Session::BindInstance(InstanceSpec spec) {
  // Engine mode gives every instance a loop of its own; it joins loops_
  // only once the instance is bound, so a failed arrival leaves none.
  std::optional<core::BudgetScheduler> own_loop;
  if (loops_.empty() || mode_ == RunMode::kEngine) {
    CF_ASSIGN_OR_RETURN(core::BudgetScheduler scheduler,
                        core::BudgetScheduler::Create(
                            *crowd_, selector_.get(), scheduler_options_));
    own_loop.emplace(std::move(scheduler));
  }
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

  core::BudgetScheduler& scheduler =
      own_loop.has_value() ? *own_loop : loops_.back().scheduler;
  CF_RETURN_IF_ERROR(scheduler
                         .AddInstance(instance.name, std::move(spec.joint),
                                      instance.provider.get())
                         .status());
  if (own_loop.has_value()) {
    loops_.push_back(Loop{.scheduler = std::move(*own_loop)});
    if (mode_ == RunMode::kEngine) {
      total_budget_ += scheduler_options_.total_budget;
    }
  }
  // Arrivals revive a loop that stopped for lack of gain.
  loops_.back().done = false;
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
  if (quantum_open_) {
    return Status::FailedPrecondition(
        "a step is waiting on the crowd; add instances once it completes");
  }
  CF_RETURN_IF_ERROR(CheckInstances(specs));

  const int first_new_instance = num_instances();
  if (additional_budget > 0) {
    CF_RETURN_IF_ERROR(loops_.front().scheduler.AddBudget(additional_budget));
    total_budget_ += additional_budget;
  }
  for (InstanceSpec& spec : specs) {
    CF_RETURN_IF_ERROR(BindInstance(std::move(spec)));
  }

  // A run that stopped for lack of gain (or arrivals) resumes; one whose
  // global budget is already spent stays done until budget arrives too.
  done_ = !AnyLive();
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
