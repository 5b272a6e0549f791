#ifndef CROWDFUSION_CORE_SCHEDULER_H_
#define CROWDFUSION_CORE_SCHEDULER_H_

#include <string>
#include <vector>

#include "common/clock.h"
#include "common/status.h"
#include "core/async_provider.h"
#include "core/crowd_model.h"
#include "core/joint_distribution.h"
#include "core/task_selector.h"

namespace crowdfusion::core {

/// Global budget allocation across many fact universes (books).
///
/// The paper's evaluation fixes a per-book budget B and observes in its
/// error analysis (Section V-D) that "books with large numbers of
/// statements are more likely to be judged incorrectly ... if a proper
/// strategy can be designed to distribute budgets among all subsets of
/// facts, this can be solved." This scheduler is that strategy: it holds
/// ONE global budget and, at every step, spends the next tasks on the
/// instance whose best task set currently promises the largest expected
/// quality gain ΔQ = H(T) - |T| * H(Crowd). Uncertain, statement-rich
/// books naturally attract more budget; confident books stop consuming it.
///
/// Instances are independent CrowdFusion problems (their joints never
/// interact); the scheduler owns the joints and queries the selector
/// lazily, re-evaluating only the instance whose distribution changed.
///
/// One serving loop (`RunPipelined`, one quantum at a time through
/// `RunPipelinedStep`) keeps up to `max_in_flight` ticket batches
/// outstanding. While one instance's answers are in flight the scheduler
/// selects and submits for the next-best instances, and re-ranks ΔQ
/// lazily as merges land (only the merged instance's cached selection is
/// invalidated). With `max_in_flight = 1` this is the paper's Figure-1
/// loop verbatim: submit the winner's tasks, wait out the crowd's
/// latency, merge. With a zero-latency provider every window size
/// serves that same schedule; with real latency, selection compute for
/// book B overlaps answer latency for book A. One instance with a window
/// of 1 and a budget B is the paper's per-book refinement run: the
/// service's engine mode runs one such scheduler per book.
class BudgetScheduler {
 public:
  /// What RunPipelined does when a ticket fails terminally (the provider's
  /// own retries exhausted, or its deadline expired).
  enum class TicketFailurePolicy {
    /// Abort the whole run with the ticket's status (the historical
    /// behavior and the default).
    kAbort,
    /// Mark only the failed ticket's instance dead — it stops receiving
    /// budget — release the reserved tasks, and keep serving everyone
    /// else.
    kSkipInstance,
  };

  struct Options {
    /// Total tasks across all instances.
    int total_budget = 600;
    /// Tasks per scheduling step (the k handed to the selector).
    int tasks_per_step = 1;
    /// Outstanding ticket batches RunPipelined may keep in flight (>= 1).
    int max_in_flight = 4;
    /// Failure policy for terminally failed tickets.
    TicketFailurePolicy on_ticket_failure = TicketFailurePolicy::kAbort;
    /// Service contract stamped on every submitted ticket. max_attempts
    /// defaults to 1 here (not TicketOptions' 3) so a failing provider
    /// surfaces its error after exactly one collection call, as the
    /// paper's round does; raise it to opt into retries.
    TicketOptions ticket = {.max_attempts = 1};
    /// Time source for poll sleeps; nullptr means Clock::Real(). Tests
    /// inject a ManualClock shared with the providers. Not owned; must
    /// outlive the scheduler.
    common::Clock* clock = nullptr;
    /// Longest single poll sleep while waiting on in-flight tickets, so a
    /// provider under-reporting its readiness can't stall the loop.
    double max_poll_seconds = 0.050;
    /// Overlap selection compute across books: when a launch decision
    /// finds several idle instances with stale selections (the initial
    /// window fill, a multi-merge harvest, streaming arrivals), their
    /// Select() calls run concurrently on the shared ThreadPool instead
    /// of back to back. Only taken when the selector declares
    /// ConcurrentSelectSafe() — concurrent results are then identical to
    /// serial ones, so schedules (and every pinned differential) are
    /// unchanged; the switch exists for A/B benching and bisection.
    bool concurrent_selection = true;
  };

  struct StepRecord {
    int step = 0;
    int instance = -1;
    std::vector<int> tasks;
    std::vector<bool> answers;
    /// The selector's H(T) for the submitted tasks, bits. On the
    /// exhaustion marker: the empty selections' value summed over the
    /// live instances (0 for the entropy selectors; query_based reports
    /// its current FOI utility).
    double selected_entropy_bits = 0.0;
    /// Expected gain that won the step, bits.
    double expected_gain_bits = 0.0;
    /// Sum of Q(F) over all instances after the merge.
    double total_utility_bits = 0.0;
    int cumulative_cost = 0;
    /// Submit-to-merge delay of this step's ticket, seconds (0 for
    /// zero-latency providers).
    double latency_seconds = 0.0;

    friend bool operator==(const StepRecord& a,
                           const StepRecord& b) = default;
  };

  /// The selector is borrowed and must outlive the scheduler; the
  /// scheduler never deletes it.
  static common::Result<BudgetScheduler> Create(CrowdModel crowd,
                                                TaskSelector* selector,
                                                Options options);

  BudgetScheduler(BudgetScheduler&&) = default;
  BudgetScheduler& operator=(BudgetScheduler&&) = default;

  /// Registers an instance and the provider that serves its tickets.
  /// Returns the instance index. The provider is borrowed and must
  /// outlive the scheduler.
  common::Result<int> AddInstance(std::string name, JointDistribution joint,
                                  AsyncAnswerProvider* provider);

  int num_instances() const { return static_cast<int>(instances_.size()); }
  bool HasBudget() const { return cost_spent_ < options_.total_budget; }

  /// Raises the global budget by `tasks` (>= 0) — the streaming-arrivals
  /// companion to adding instances mid-run, callable between steps.
  common::Status AddBudget(int tasks);

  /// Runs the serving loop until the budget is gone or no gain remains
  /// anywhere, keeping up to Options::max_in_flight ticket batches
  /// outstanding. Records are in merge order; when budget remains but no
  /// instance has a positive-gain task left, the last record is the
  /// exhaustion marker (instance = -1). A ticket that fails terminally
  /// (after the provider's own retries) aborts the run with its status
  /// under TicketFailurePolicy::kAbort, or kills only its instance under
  /// kSkipInstance. Tickets an earlier aborted run left in flight are
  /// cancelled first, so a rerun schedules their instances again.
  common::Result<std::vector<StepRecord>> RunPipelined();

  /// One serving quantum, for callers that interleave serving with other
  /// work (the service facade's engine-mode Drain): fills the in-flight
  /// window with the best idle instances, sleeps until the earliest
  /// outstanding ticket resolves, and harvests every resolved ticket,
  /// appending the merged records. Returns false when the run is complete
  /// (budget gone or no gain anywhere; the exhaustion marker record is
  /// appended exactly as RunPipelined emits it). Assumes no aborted run's
  /// tickets are pending — start a fresh scheduler, or go through
  /// RunPipelined which clears them. It is AdvancePipelinedStep in a loop
  /// that sleeps each returned wait on the clock.
  common::Result<bool> RunPipelinedStep(std::vector<StepRecord>& records);

  /// What one AdvancePipelinedStep call did.
  struct Advance {
    enum class State {
      /// Tickets are in flight and none has resolved (or every resolved
      /// one went back in flight at its Take): call again after
      /// `wait_seconds`.
      kWaiting,
      /// The quantum harvested its resolved tickets; records appended.
      kStepped,
      /// The run is complete (RunPipelinedStep's false).
      kDone,
    };
    State state = State::kDone;
    /// kWaiting only: seconds until the earliest in-flight ticket is due,
    /// at least 1 µs and at most Options::max_poll_seconds.
    double wait_seconds = 0.0;
  };

  /// RunPipelinedStep without the sleep, with the current time passed in.
  /// The call that opens a quantum fills the in-flight window (stamping
  /// submissions at `now`); every call polls the in-flight tickets once
  /// and either harvests the resolved ones (stamped at `now`), closing
  /// the quantum, or returns how long to wait before calling again.
  /// A failed call closes the quantum, so the next call launches afresh,
  /// as a failed RunPipelinedStep does.
  common::Result<Advance> AdvancePipelinedStep(
      double now, std::vector<StepRecord>& records);

  /// True between an AdvancePipelinedStep that returned kWaiting and the
  /// call that closes its quantum.
  bool step_open() const { return step_open_; }

  /// Number of instances marked dead by TicketFailurePolicy::kSkipInstance.
  int dead_instances() const;

  /// True when kSkipInstance killed this instance.
  bool instance_dead(int instance) const;

  const JointDistribution& joint(int instance) const;
  const std::string& name(int instance) const;
  int cost_spent(int instance) const;
  int total_cost_spent() const { return cost_spent_; }

  /// Sum of Q(F) over all instances.
  double TotalUtilityBits() const;

  /// Selection::stats.elapsed_seconds of every selector Select() this
  /// scheduler ran, in issue order (concurrent refreshes are recorded in
  /// instance order after the join). Feeds the service layer's
  /// selection-compute percentiles.
  const std::vector<double>& selection_compute_seconds() const {
    return selection_compute_seconds_;
  }

 private:
  /// Runs the blocking step AdvancePipelinedStep replaced, as the oracle
  /// of tests/core/pipelined_advance_test.cc.
  friend class BudgetSchedulerPeer;

  struct Instance {
    std::string name;
    JointDistribution joint;
    /// Serving endpoint; borrowed.
    AsyncAnswerProvider* provider = nullptr;
    int cost_spent = 0;
    /// Set by TicketFailurePolicy::kSkipInstance when this instance's
    /// ticket failed terminally; dead instances never receive budget again.
    bool dead = false;
    /// Cached best selection for the current joint; empty tasks means the
    /// selector found no benefit. Invalidated on merge, and recomputed
    /// when the requested k changes (a selection cached under a larger k
    /// must never be submitted against a smaller remaining budget).
    bool selection_valid = false;
    int cached_k = 0;
    Selection cached_selection;
    /// In-flight ticket state (RunPipelined).
    bool in_flight = false;
    TicketId ticket = 0;
    std::vector<int> pending_tasks;
    double pending_entropy_bits = 0.0;
    double submitted_at = 0.0;
    /// The ticket's status as polled by the current AdvancePipelinedStep
    /// call, valid while `polled`: each ticket is polled once per call.
    TicketStatus status;
    bool polled = false;
  };

  BudgetScheduler(CrowdModel crowd, TaskSelector* selector, Options options)
      : crowd_(crowd), selector_(selector), options_(options) {}

  /// True when `instance` has no cached selection for this k.
  static bool SelectionStale(const Instance& instance, int k);

  /// Selects for one instance and caches the result. Thread-compatible:
  /// touches only `instance`, so distinct instances may select
  /// concurrently.
  common::Status Reselect(Instance& instance, int k);

  /// Reselects a stale instance and logs the Select() time; scheduler
  /// thread only.
  common::Status RefreshSelection(Instance& instance, int k);

  /// When the selector is ConcurrentSelectSafe and two or more idle alive
  /// instances have stale selections, refreshes them all concurrently on
  /// the shared ThreadPool (compute-vs-compute overlap across books).
  /// Statuses land in a per-slot array and are folded, with the timings,
  /// in ascending instance order after the join, so error propagation and
  /// the timing log stay deterministic and the scheduler stays movable
  /// (no lock members).
  common::Status RefreshStaleSelectionsConcurrently(int k);

  /// Best-ΔQ-per-task instance among those not in flight, refreshing stale
  /// selections; -1 when no instance has a positive-gain selection.
  common::Result<int> PickBestIdleInstance(int k);

  /// Cancels and clears every in-flight ticket (an aborted run's
  /// leftovers) and re-bases the budget reservation.
  void AbandonInFlightTickets();

  /// Submits `instance`'s cached selection and marks it in flight.
  common::Status SubmitSelection(Instance& instance, double now);

  /// Polls `instance`'s ticket into its `status`.
  common::Status PollTicket(Instance& instance);

  /// Takes a resolved ticket, merges its answers and emits its StepRecord.
  /// A failed collection releases the ticket's budget reservation and
  /// consumes no step number. A ticket polled kReady whose Take answers
  /// FailedPrecondition stays in flight, reservation kept, and that
  /// status is returned.
  common::Result<StepRecord> HarvestTicket(Instance& instance, double now);

  common::Clock* clock() const {
    return options_.clock == nullptr ? common::Clock::Real() : options_.clock;
  }

  CrowdModel crowd_;
  TaskSelector* selector_;
  Options options_;
  std::vector<Instance> instances_;
  int cost_spent_ = 0;
  /// cost_spent_ plus tasks reserved by in-flight tickets; launch
  /// decisions budget against this so overlap cannot overspend.
  int cost_reserved_ = 0;
  int steps_run_ = 0;
  /// A quantum launched and not yet harvested (AdvancePipelinedStep).
  bool step_open_ = false;
  std::vector<double> selection_compute_seconds_;
};

}  // namespace crowdfusion::core

#endif  // CROWDFUSION_CORE_SCHEDULER_H_
