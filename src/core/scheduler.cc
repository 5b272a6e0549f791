#include "core/scheduler.h"

#include <algorithm>
#include <limits>

#include "common/logging.h"
#include "common/string_util.h"
#include "common/thread_pool.h"
#include "core/bayes.h"

namespace crowdfusion::core {

using common::Status;

common::Result<BudgetScheduler> BudgetScheduler::Create(CrowdModel crowd,
                                                        TaskSelector* selector,
                                                        Options options) {
  if (selector == nullptr) {
    return Status::InvalidArgument("selector must not be null");
  }
  if (options.total_budget < 0) {
    return Status::InvalidArgument("total_budget must be non-negative");
  }
  if (options.tasks_per_step <= 0) {
    return Status::InvalidArgument("tasks_per_step must be positive");
  }
  if (options.max_in_flight < 1) {
    return Status::InvalidArgument("max_in_flight must be >= 1");
  }
  if (options.ticket.max_attempts < 1) {
    return Status::InvalidArgument("ticket.max_attempts must be >= 1");
  }
  if (!(options.max_poll_seconds > 0)) {
    return Status::InvalidArgument("max_poll_seconds must be positive");
  }
  return BudgetScheduler(crowd, selector, options);
}

common::Result<int> BudgetScheduler::AddInstance(
    std::string name, JointDistribution joint, AsyncAnswerProvider* provider) {
  if (provider == nullptr) {
    return Status::InvalidArgument("answer provider must not be null");
  }
  if (joint.num_facts() == 0) {
    return Status::InvalidArgument("instance has no facts");
  }
  if (!joint.IsNormalized(1e-6)) {
    return Status::InvalidArgument("instance joint is not normalized");
  }
  Instance instance;
  instance.name = std::move(name);
  instance.joint = std::move(joint);
  instance.provider = provider;
  instances_.push_back(std::move(instance));
  return num_instances() - 1;
}

common::Status BudgetScheduler::AddBudget(int tasks) {
  if (tasks < 0) {
    return Status::InvalidArgument("additional budget must be non-negative");
  }
  options_.total_budget += tasks;
  return Status::Ok();
}

bool BudgetScheduler::SelectionStale(const Instance& instance, int k) {
  return !(instance.selection_valid &&
           instance.cached_k == std::min(k, instance.joint.num_facts()));
}

common::Status BudgetScheduler::Reselect(Instance& instance, int k) {
  SelectionRequest request;
  request.joint = &instance.joint;
  request.crowd = &crowd_;
  request.k = std::min(k, instance.joint.num_facts());
  CF_ASSIGN_OR_RETURN(instance.cached_selection,
                      selector_->Select(request));
  instance.selection_valid = true;
  instance.cached_k = request.k;
  return Status::Ok();
}

common::Status BudgetScheduler::RefreshSelection(Instance& instance, int k) {
  if (!SelectionStale(instance, k)) return Status::Ok();
  CF_RETURN_IF_ERROR(Reselect(instance, k));
  selection_compute_seconds_.push_back(
      instance.cached_selection.stats.elapsed_seconds);
  return Status::Ok();
}

common::Status BudgetScheduler::RefreshStaleSelectionsConcurrently(int k) {
  if (!options_.concurrent_selection || !selector_->ConcurrentSelectSafe()) {
    return Status::Ok();
  }
  std::vector<size_t> stale;
  for (size_t i = 0; i < instances_.size(); ++i) {
    const Instance& instance = instances_[i];
    if (instance.in_flight || instance.dead) continue;
    if (SelectionStale(instance, k)) stale.push_back(i);
  }
  if (stale.size() < 2) return Status::Ok();  // nothing to overlap
  // Distinct instances, a concurrency-safe selector, and a per-slot status
  // array: the workers share nothing mutable, and the ParallelFor join
  // orders every write before the ascending fold below. Each book's
  // selection is exactly what the serial loop would have computed, so
  // this changes wall-clock, never the schedule.
  std::vector<Status> statuses(stale.size());
  common::ThreadPool::Shared()->ParallelFor(
      0, static_cast<int64_t>(stale.size()),
      [this, k, &stale, &statuses](int64_t begin, int64_t end) {
        for (int64_t s = begin; s < end; ++s) {
          statuses[static_cast<size_t>(s)] =
              Reselect(instances_[stale[static_cast<size_t>(s)]], k);
        }
      });
  for (size_t s = 0; s < stale.size(); ++s) {
    CF_RETURN_IF_ERROR(statuses[s]);
    selection_compute_seconds_.push_back(
        instances_[stale[s]].cached_selection.stats.elapsed_seconds);
  }
  return Status::Ok();
}

common::Result<int> BudgetScheduler::PickBestIdleInstance(int k) {
  // Debug guard on the borrow contract: the selector and every instance
  // provider are borrowed and must outlive the scheduler, including while
  // tickets are in flight.
  CF_DCHECK(selector_ != nullptr) << "selector destroyed under the scheduler";
  // Refresh every stale idle selection concurrently when the selector
  // permits; the serial sweep below then runs on warm caches.
  CF_RETURN_IF_ERROR(RefreshStaleSelectionsConcurrently(k));
  // Pick the idle instance whose cached best selection promises the
  // largest expected quality gain per task.
  int best_instance = -1;
  double best_gain = 0.0;
  for (size_t i = 0; i < instances_.size(); ++i) {
    Instance& instance = instances_[i];
    if (instance.in_flight || instance.dead) continue;
    CF_RETURN_IF_ERROR(RefreshSelection(instance, k));
    if (instance.cached_selection.tasks.empty()) continue;
    const double tasks =
        static_cast<double>(instance.cached_selection.tasks.size());
    const double gain =
        (instance.cached_selection.entropy_bits -
         tasks * crowd_.EntropyBits()) /
        tasks;  // per-task expected gain, so small and large k compare fairly
    if (best_instance < 0 || gain > best_gain) {
      best_instance = static_cast<int>(i);
      best_gain = gain;
    }
  }
  return best_instance;
}

void BudgetScheduler::AbandonInFlightTickets() {
  for (Instance& instance : instances_) {
    if (!instance.in_flight) continue;
    // The ticket will never be taken; tell the provider to drop its
    // bookkeeping so abandoned tickets can't pile up in a long-lived
    // serving process.
    instance.provider->Cancel(instance.ticket);
    instance.in_flight = false;
  }
  cost_reserved_ = cost_spent_;
  step_open_ = false;
}

common::Status BudgetScheduler::SubmitSelection(Instance& instance,
                                                double now) {
  CF_DCHECK(!instance.in_flight);
  instance.pending_tasks = instance.cached_selection.tasks;
  instance.pending_entropy_bits = instance.cached_selection.entropy_bits;
  CF_ASSIGN_OR_RETURN(instance.ticket,
                      instance.provider->Submit(instance.pending_tasks,
                                                options_.ticket));
  instance.in_flight = true;
  instance.submitted_at = now;
  cost_reserved_ += static_cast<int>(instance.pending_tasks.size());
  return Status::Ok();
}

common::Status BudgetScheduler::PollTicket(Instance& instance) {
  CF_ASSIGN_OR_RETURN(instance.status,
                      instance.provider->Poll(instance.ticket));
  instance.polled = true;
  return Status::Ok();
}

common::Result<BudgetScheduler::StepRecord> BudgetScheduler::HarvestTicket(
    Instance& instance, double now) {
  CF_DCHECK(instance.in_flight);
  const int tasks = static_cast<int>(instance.pending_tasks.size());
  common::Result<std::vector<bool>> answers =
      instance.provider->Take(instance.ticket);
  if (instance.status.phase == TicketPhase::kReady &&
      answers.status().code() == common::StatusCode::kFailedPrecondition) {
    // Polled ready, yet in flight again (a pool failed the batch over):
    // the ticket stays in flight with its reservation.
    return answers.status();
  }
  instance.in_flight = false;
  if (answers.ok() && static_cast<int>(answers->size()) != tasks) {
    answers = Status::Internal(common::StrFormat(
        "provider returned %zu answers for %d tasks", answers->size(),
        tasks));
  }
  if (!answers.ok()) {
    // Nothing was merged or charged: a later step may spend the budget.
    cost_reserved_ -= tasks;
    return answers.status();
  }
  StepRecord record;
  record.instance = static_cast<int>(&instance - instances_.data());
  record.tasks = instance.pending_tasks;
  record.answers = std::move(answers).value();
  record.selected_entropy_bits = instance.pending_entropy_bits;
  record.expected_gain_bits =
      record.selected_entropy_bits - tasks * crowd_.EntropyBits();
  record.latency_seconds = now - instance.submitted_at;
  AnswerSet answer_set{record.tasks, record.answers};
  CF_RETURN_IF_ERROR(MergeAnswersInPlace(instance.joint, answer_set, crowd_));
  instance.selection_valid = false;  // joint changed
  instance.cost_spent += tasks;
  cost_spent_ += tasks;
  record.step = steps_run_++;
  record.cumulative_cost = cost_spent_;
  record.total_utility_bits = TotalUtilityBits();
  return record;
}

common::Result<std::vector<BudgetScheduler::StepRecord>>
BudgetScheduler::RunPipelined() {
  if (instances_.empty()) {
    return Status::FailedPrecondition("no instances registered");
  }
  // Drop any in-flight state a previously aborted run left behind.
  AbandonInFlightTickets();

  std::vector<StepRecord> records;
  for (;;) {
    CF_ASSIGN_OR_RETURN(const bool more, RunPipelinedStep(records));
    if (!more) break;
  }
  return records;
}

common::Result<bool> BudgetScheduler::RunPipelinedStep(
    std::vector<StepRecord>& records) {
  for (;;) {
    CF_ASSIGN_OR_RETURN(const Advance advance,
                        AdvancePipelinedStep(clock()->NowSeconds(), records));
    if (advance.state != Advance::State::kWaiting) {
      return advance.state == Advance::State::kStepped;
    }
    clock()->SleepSeconds(advance.wait_seconds);
  }
}

common::Result<BudgetScheduler::Advance> BudgetScheduler::AdvancePipelinedStep(
    double now, std::vector<StepRecord>& records) {
  if (instances_.empty()) {
    return Status::FailedPrecondition("no instances registered");
  }
  // Closed until this call returns kWaiting, so an error anywhere below
  // leaves the next call to launch afresh.
  const bool launch = !step_open_;
  step_open_ = false;
  // Each in-flight ticket is polled once per call: the launch loop polls
  // what it submits, the wait pass the rest, and the harvest reads both.
  int in_flight_count = 0;
  for (Instance& instance : instances_) {
    instance.polled = false;
    if (instance.in_flight) ++in_flight_count;
  }

  // Launch: fill the in-flight window with the best idle instances. The
  // early Poll-break makes the zero-latency schedule merge each batch
  // before the next launch decision, so every window size serves the
  // paper's one-ticket-at-a-time schedule exactly; real-latency tickets
  // stay pending, so the window fills and answer latencies overlap.
  while (launch && in_flight_count < options_.max_in_flight &&
         cost_reserved_ < options_.total_budget) {
    const int k = std::min(options_.tasks_per_step,
                           options_.total_budget - cost_reserved_);
    CF_ASSIGN_OR_RETURN(const int best, PickBestIdleInstance(k));
    if (best < 0) break;
    Instance& launched = instances_[static_cast<size_t>(best)];
    CF_RETURN_IF_ERROR(SubmitSelection(launched, now));
    ++in_flight_count;
    CF_RETURN_IF_ERROR(PollTicket(launched));
    if (launched.status.phase != TicketPhase::kInFlight) break;
  }

  if (in_flight_count == 0) {
    if (HasBudget()) {
      // Budget remains but no instance has positive-gain tasks left;
      // emit the exhaustion marker.
      StepRecord record;
      record.step = steps_run_++;
      record.cumulative_cost = cost_spent_;
      record.instance = -1;
      // The empty selections' H(T), summed from -0.0 (the identity of +)
      // so a one-instance marker carries its selection's value exactly.
      record.selected_entropy_bits = -0.0;
      for (const Instance& instance : instances_) {
        if (!instance.dead) {
          record.selected_entropy_bits +=
              instance.cached_selection.entropy_bits;
        }
      }
      record.total_utility_bits = TotalUtilityBits();
      records.push_back(std::move(record));
    }
    return Advance{.state = Advance::State::kDone};
  }

  // Wait: until the earliest outstanding ticket resolves (capped so a
  // misreporting provider cannot stall the caller forever).
  bool any_resolved = false;
  double min_wait = std::numeric_limits<double>::infinity();
  for (Instance& instance : instances_) {
    if (!instance.in_flight) continue;
    if (!instance.polled) CF_RETURN_IF_ERROR(PollTicket(instance));
    if (instance.status.phase != TicketPhase::kInFlight) {
      any_resolved = true;
    } else {
      min_wait = std::min(min_wait, instance.status.seconds_until_ready);
    }
  }
  if (!any_resolved) {
    step_open_ = true;
    Advance waiting{.state = Advance::State::kWaiting};
    waiting.wait_seconds =
        std::min(std::max(min_wait, 1.0e-6), options_.max_poll_seconds);
    return waiting;
  }

  // Harvest every resolved ticket (ascending instance order, for
  // determinism), merging answers and re-ranking lazily: only the merged
  // instances' cached selections are invalidated.
  bool settled = false;  // a ticket merged, or its instance killed
  for (Instance& instance : instances_) {
    if (!instance.in_flight ||
        instance.status.phase == TicketPhase::kInFlight) {
      continue;
    }
    if (instance.status.phase == TicketPhase::kFailed &&
        options_.on_ticket_failure == TicketFailurePolicy::kSkipInstance) {
      // Kill only this instance: release its budget reservation, drop the
      // ticket's bookkeeping, and keep serving everyone else.
      instance.provider->Cancel(instance.ticket);
      instance.in_flight = false;
      instance.dead = true;
      instance.selection_valid = false;
      cost_reserved_ -= static_cast<int>(instance.pending_tasks.size());
      settled = true;
      continue;
    }
    common::Result<StepRecord> record = HarvestTicket(instance, now);
    if (!record.ok() && instance.in_flight) continue;  // not taken yet
    CF_RETURN_IF_ERROR(record.status());
    records.push_back(*std::move(record));
    settled = true;
  }
  if (!settled) {
    // Every resolved ticket went back in flight: poll again shortly.
    step_open_ = true;
    return Advance{.state = Advance::State::kWaiting, .wait_seconds = 1.0e-6};
  }
  return Advance{.state = Advance::State::kStepped};
}

bool BudgetScheduler::instance_dead(int instance) const {
  CF_CHECK(instance >= 0 && instance < num_instances());
  return instances_[static_cast<size_t>(instance)].dead;
}

int BudgetScheduler::dead_instances() const {
  int dead = 0;
  for (const Instance& instance : instances_) {
    if (instance.dead) ++dead;
  }
  return dead;
}

const JointDistribution& BudgetScheduler::joint(int instance) const {
  CF_CHECK(instance >= 0 && instance < num_instances());
  return instances_[static_cast<size_t>(instance)].joint;
}

const std::string& BudgetScheduler::name(int instance) const {
  CF_CHECK(instance >= 0 && instance < num_instances());
  return instances_[static_cast<size_t>(instance)].name;
}

int BudgetScheduler::cost_spent(int instance) const {
  CF_CHECK(instance >= 0 && instance < num_instances());
  return instances_[static_cast<size_t>(instance)].cost_spent;
}

double BudgetScheduler::TotalUtilityBits() const {
  // Seeded with -0.0, the identity of +: a one-instance total is that
  // instance's Q(F) bit for bit, sign of zero included.
  double total = -0.0;
  for (const Instance& instance : instances_) {
    total += -instance.joint.EntropyBits();
  }
  return total;
}

}  // namespace crowdfusion::core
