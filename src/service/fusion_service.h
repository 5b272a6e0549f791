#ifndef CROWDFUSION_SERVICE_FUSION_SERVICE_H_
#define CROWDFUSION_SERVICE_FUSION_SERVICE_H_

#include <cstdint>
#include <limits>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "common/clock.h"
#include "common/status.h"
#include "common/stopwatch.h"
#include "core/joint_distribution.h"
#include "core/registry.h"
#include "core/scheduler.h"
#include "data/book_dataset.h"
#include "data/correlation_model.h"
#include "fusion/registry.h"

namespace crowdfusion::service {

/// Which budget policy serves the request. Both run the one
/// select -> collect -> merge loop, core::BudgetScheduler; they differ in
/// who holds the budget:
///  * kEngine: per instance. Each instance gets its own one-instance
///    scheduler with budget budget_per_instance, one ticket at a time
///    (one attempt, kAbort), and the instances advance round-robin (the
///    paper's Figure-1 loop, and the trajectory eval::RunExperiment
///    reports). The pipeline knobs do not apply.
///  * kPipelined: global. One scheduler over every instance holds the
///    whole budget (the Section V-D allocation strategy) with up to
///    max_in_flight ticket batches outstanding, overlapping crowd
///    latency. A window of 1 is one ticket at a time; the wire spells
///    that "blocking".
enum class RunMode { kEngine, kPipelined };

/// Config spelling of a RunMode ("engine", "pipelined").
const char* RunModeName(RunMode mode);
/// Accepts "engine", "pipelined", and the alias "blocking" (kPipelined;
/// FusionRequestFromJson also forces its window to 1).
common::Result<RunMode> ParseRunMode(const std::string& name);

/// One fact universe handed in directly (e.g. a joint loaded from disk).
struct InstanceSpec {
  std::string name;
  core::JointDistribution joint;
  /// Gold labels per fact; used to bind ground-truth providers
  /// (simulated_crowd, scripted-without-script) and for client-side
  /// scoring. May be empty when the provider needs no truth.
  std::vector<bool> truths;
  /// data::StatementCategory per fact, as ints; empty = all clean.
  std::vector<int> categories;

  friend bool operator==(const InstanceSpec& a,
                         const InstanceSpec& b) = default;
};

/// Synthesized Book-dataset workload: generate claims, run a machine-only
/// fuser from the registry, build one correlation-aware joint per book.
/// Exactly the pipeline eval::Prepare ran before this facade existed.
struct DatasetSpec {
  data::BookDatasetOptions generate;
  data::CorrelationModelOptions correlation;
  fusion::FuserSpec fuser;
  /// Books with more statements are truncated to their first
  /// max_facts_per_book statements (dense joint guard).
  int max_facts_per_book = 16;

  friend bool operator==(const DatasetSpec& a,
                         const DatasetSpec& b) = default;
};

struct BudgetSpec {
  /// Engine mode: tasks each instance may spend. Pipelined mode: the
  /// default total budget is budget_per_instance x instances.
  int budget_per_instance = 60;
  /// Pipelined mode: explicit global budget; 0 derives it from
  /// budget_per_instance.
  int total_budget = 0;
  /// Tasks per round (engine) / per scheduling step (pipelined).
  int tasks_per_step = 1;

  friend bool operator==(const BudgetSpec& a, const BudgetSpec& b) = default;
};

/// Pipelined-mode serving knobs (ignored by engine mode). No wait knob:
/// both modes wait out each ticket's ETA as its provider reports it.
struct PipelineSpec {
  int max_in_flight = 4;
  int ticket_max_attempts = 1;
  double ticket_deadline_seconds = std::numeric_limits<double>::infinity();
  double retry_backoff_seconds = 0.0;
  core::BudgetScheduler::TicketFailurePolicy on_ticket_failure =
      core::BudgetScheduler::TicketFailurePolicy::kAbort;
  /// Overlap selection compute across books when the selector is
  /// concurrency-safe (see
  /// core::BudgetScheduler::Options::concurrent_selection). Never changes
  /// schedules, only wall-clock.
  bool concurrent_selection = true;

  friend bool operator==(const PipelineSpec& a,
                         const PipelineSpec& b) = default;
};

/// One fusion-serving request: a workload (inline instances XOR a
/// synthesized dataset), a selector, a provider template, and the budget /
/// serving options — all plain values, JSON-(de)serializable via
/// service/request_json.h.
struct FusionRequest {
  RunMode mode = RunMode::kEngine;
  /// Inline workload. Mutually exclusive with `dataset`.
  std::vector<InstanceSpec> instances;
  /// Synthesized workload. Mutually exclusive with `instances`.
  std::optional<DatasetSpec> dataset;
  core::SelectorSpec selector;
  /// Per-instance provider template: the session clones it for every
  /// instance, binding that instance's truths/categories and deriving
  /// seeds as spec.seed + instance index (latency_seed and adversary.seed
  /// likewise, so hostile pools differ per instance).
  core::ProviderSpec provider;
  /// Pc the system's Bayesian update assumes (the CrowdModel).
  double assumed_pc = 0.8;
  BudgetSpec budget;
  PipelineSpec pipeline;
  /// Optional label echoed into the response.
  std::string label;

  friend bool operator==(const FusionRequest& a,
                         const FusionRequest& b) = default;
};

/// One select-collect-merge step, mapped from the serving scheduler's
/// core::BudgetScheduler::StepRecord. `utility_bits` and
/// `cumulative_cost` are that scheduler's totals, so they depend on the
/// mode (the differential tests pin these semantics):
///  * kEngine: per instance, as the instance's own scheduler counts them;
///    `round` is that scheduler's step. An instance whose selector finds
///    no more gain ends with an outcome that has no tasks (its
///    scheduler's exhaustion marker).
///  * kPipelined: `utility_bits` is the TOTAL utility over all instances
///    and `cumulative_cost` the global spend; `round` is -1. An outcome
///    with instance == -1 is the exhaustion marker: budget remained but
///    no instance had a positive-gain task left.
struct StepOutcome {
  int step = 0;
  int instance = -1;
  int round = -1;
  std::vector<int> tasks;
  std::vector<bool> answers;
  double selected_entropy_bits = 0.0;
  /// H(T) - |T| * H(Crowd), the gain that won the step.
  double expected_gain_bits = 0.0;
  double utility_bits = 0.0;
  int cumulative_cost = 0;
  double latency_seconds = 0.0;

  friend bool operator==(const StepOutcome& a, const StepOutcome& b) = default;
};

/// Final per-instance state.
struct InstanceReport {
  std::string name;
  core::JointDistribution final_joint;
  std::vector<double> final_marginals;
  double utility_bits = 0.0;
  int cost_spent = 0;
  int num_facts = 0;
  /// True when a pipelined kSkipInstance policy killed this instance.
  bool dead = false;

  friend bool operator==(const InstanceReport& a,
                         const InstanceReport& b) = default;
};

/// Bench-ready aggregate statistics of one run.
struct RunStats {
  double wall_seconds = 0.0;
  /// Selector wall-clock summed over every Select() of the run, from the
  /// schedulers' per-Select timing logs.
  double selection_seconds = 0.0;
  double steps_per_second = 0.0;
  /// Submit-to-merge latency percentiles over the run's steps, ms.
  double p50_latency_ms = 0.0;
  double p95_latency_ms = 0.0;
  /// Percentiles of the individual Select() wall times behind
  /// selection_seconds, ms — the cost of one selection-compute burst,
  /// which the SIMD kernel and cross-book overlap exist to shrink.
  double selection_compute_p50_ms = 0.0;
  double selection_compute_p95_ms = 0.0;
  /// Crowd answers served / of those correct (empirical accuracy), when
  /// the providers track it; 0 otherwise.
  int64_t answers_served = 0;
  int64_t answers_correct = 0;
  /// Ticket batches re-routed to a different crowd endpoint by a failover
  /// provider ("http_pool"); 0 for providers with no failover tier.
  int64_t tickets_resubmitted = 0;

  friend bool operator==(const RunStats& a, const RunStats& b) = default;
};

struct FusionResponse {
  std::string label;
  RunMode mode = RunMode::kEngine;
  std::vector<StepOutcome> steps;
  std::vector<InstanceReport> instances;
  double total_utility_bits = 0.0;
  int total_cost_spent = 0;
  int dead_instances = 0;
  RunStats stats;

  friend bool operator==(const FusionResponse& a,
                         const FusionResponse& b) = default;
};

/// Snapshot returned by Session::Poll.
struct SessionProgress {
  bool done = false;
  int steps_completed = 0;
  int total_cost_spent = 0;
  int total_budget = 0;
  double total_utility_bits = 0.0;
  int dead_instances = 0;
};

/// What one non-blocking Session::StepAt call did.
struct StepAttempt {
  /// False while the quantum waits on the crowd: call StepAt again at
  /// `due_at`. True once the quantum finished; `outcomes` then holds what
  /// Step() would have returned.
  bool complete = true;
  std::vector<StepOutcome> outcomes;
  /// Incomplete attempts only: when the earliest in-flight ticket is
  /// due, on the clock `now` was read from.
  double due_at = 0.0;
};

/// An in-flight serving run: the incremental face of the facade, so an
/// HTTP/queue front-end can drive one request with repeated Step() calls
/// (returning each quantum's merged records as they land) instead of one
/// blocking Run(). The session OWNS everything the run needs — selector,
/// providers, joints, schedulers — so the scheduler borrow contract is
/// satisfied by construction and cannot dangle.
class Session {
 public:
  Session(const Session&) = delete;
  Session& operator=(const Session&) = delete;

  bool done() const { return done_; }

  /// Advances one quantum and returns its outcomes, in merge order:
  /// engine mode runs every live instance one round (round-robin pass);
  /// pipelined mode fills the in-flight window and harvests everything
  /// that resolved (with a window of 1: one select-collect-merge step).
  /// done() turns true with the quantum that completes the run: the one
  /// that spends the last of the budget or emits the last exhaustion
  /// marker. An empty vector means there was nothing left to run. When an
  /// engine round fails, the outcomes of the rounds before it in the pass
  /// stay in steps(): they spent budget. Step() is StepAt() in a loop
  /// that sleeps, on the service's clock, until each wait is over.
  common::Result<std::vector<StepOutcome>> Step();

  /// Step() without sleeping through crowd latency, the current time
  /// passed in (read from the clock the creating service was configured
  /// with). The call that opens a quantum launches; every call collects
  /// the quantum's in-flight tickets once. Until one resolves, the attempt is
  /// incomplete and names when to call again; the call that harvests
  /// completes it with exactly Step()'s outcomes. An engine-mode pass
  /// advances the instances in order, each through its own scheduler, so
  /// it waits on one instance's ticket at a time, as Step() does. While a
  /// quantum is open only StepAt or Step() (which finishes it blocking)
  /// may advance the session; AddInstances answers FailedPrecondition.
  common::Result<StepAttempt> StepAt(double now);

  /// Steps until done(), leaving steps() exactly as a Step() loop would.
  /// Engine mode with a ConcurrentSelectSafe() selector runs each live
  /// instance's scheduler to the end concurrently on the shared
  /// ThreadPool (an instance owns its scheduler, provider and seeds), then
  /// appends the outcomes pass-major, instance-minor, as Step() does.
  /// Otherwise it loops Step(). On failure, returns the lowest-indexed
  /// failing instance's error; completed rounds stay.
  common::Status Drain();

  /// Non-blocking progress snapshot.
  SessionProgress Poll() const;

  /// Streaming arrivals: appends new fact universes to a LIVE session,
  /// between Step() calls. Providers are bound from the creation
  /// request's template exactly as at creation time (per-instance seeds
  /// continue the index sequence), and the backend registers the new
  /// joints, so the next Step() re-plans selection over the grown
  /// universe. Engine mode grants each arrival the request's
  /// budget_per_instance (additional_budget must be 0); pipelined mode
  /// keeps the global budget and raises it by additional_budget. A session
  /// that had stopped for lack of gain resumes when the arrivals give it
  /// work. Returns the index of the first new instance. Requires the
  /// creating FusionService to still be alive (it lends its provider
  /// registry). On error the session keeps any instances bound before
  /// the failure.
  common::Result<int> AddInstances(std::vector<InstanceSpec> specs,
                                   int additional_budget = 0);

  /// Assembles the final response from the state so far. Typically called
  /// after done(); safe to call mid-run for a partial report.
  FusionResponse Finish() const;

  // --- introspection for thin clients (eval scoring, CLI save-back) ---
  /// Request label (or the derived default) echoed into the response.
  const std::string& label() const { return label_; }
  int num_instances() const { return static_cast<int>(instances_.size()); }
  /// Current (not final) joint of one instance.
  const core::JointDistribution& joint(int instance) const;
  /// Gold labels bound at creation; empty when the workload carried none.
  const std::vector<bool>& truths(int instance) const;
  int num_facts(int instance) const;
  int cost_spent(int instance) const;
  int total_cost_spent() const;
  double total_utility_bits() const;
  double selection_seconds() const;
  /// Individual Select() wall times, seconds, in issue order per
  /// scheduler (engine mode: instance by instance).
  std::vector<double> selection_compute_samples() const;
  /// (served, correct) summed over providers that track it.
  std::pair<int64_t, int64_t> answers_served_correct() const;
  /// Failover resubmissions summed over providers that track it.
  int64_t tickets_resubmitted() const;
  const std::vector<StepOutcome>& steps() const { return steps_; }

 private:
  friend class FusionService;

  struct Instance {
    std::string name;
    std::vector<bool> truths;
    std::shared_ptr<core::AsyncAnswerProvider> provider;
    int num_facts = 0;
  };

  /// One refinement loop: engine mode runs one per instance, pipelined
  /// mode one for all of them.
  struct Loop {
    core::BudgetScheduler scheduler;
    /// The scheduler reported the run complete or spent its budget.
    bool done = false;

    bool live() const { return !done && scheduler.HasBudget(); }
  };

  Session() = default;

  /// Binds one provider from the stored template and registers the
  /// instance with its loop (a new one in engine mode) — the one path
  /// used both at creation and by AddInstances.
  common::Status BindInstance(InstanceSpec spec);

  /// StepAt, also reporting how long an incomplete attempt should wait
  /// (exactly the scheduler's wait, which Step() sleeps).
  common::Result<StepAttempt> Advance(double now, double& wait_seconds);
  void CloseQuantum();
  bool AnyLive() const;

  /// The scheduler serving `instance`, and the instance's index there.
  std::pair<const core::BudgetScheduler*, int> Locate(int instance) const;

  StepOutcome ToOutcome(size_t loop,
                        const core::BudgetScheduler::StepRecord& record) const;
  std::vector<StepOutcome> OutcomesSince(size_t first) const;

  RunMode mode_ = RunMode::kEngine;
  std::string label_;
  std::optional<core::CrowdModel> crowd_;
  std::unique_ptr<core::TaskSelector> selector_;
  /// Every loop's scheduler options; engine mode's budget is per instance.
  core::BudgetScheduler::Options scheduler_options_;
  common::Clock* clock_ = common::Clock::Real();
  /// Creation-request state AddInstances binds arrivals from.
  core::ProviderSpec provider_template_;
  /// Borrowed from the creating service (alive for every in-repo client:
  /// the HTTP front-end, eval, and the CLI all outlive their sessions).
  const core::ProviderRegistry* providers_ = nullptr;
  /// Next per-instance seed offset; keeps growing across AddInstances so
  /// arrival N + i seeds exactly like a creation-time instance N + i.
  int next_seed_index_ = 0;
  std::vector<Instance> instances_;
  std::vector<Loop> loops_;
  int total_budget_ = 0;
  std::vector<StepOutcome> steps_;
  double wall_seconds_ = 0.0;
  /// The open quantum: where its outcomes start in steps_ and, in engine
  /// mode, the loop it is advancing. Its wall time spans its waits, as a
  /// blocking Step()'s does.
  bool quantum_open_ = false;
  size_t quantum_first_ = 0;
  size_t cursor_ = 0;
  common::Stopwatch open_quantum_timer_;
  bool done_ = false;
};

/// The facade: one typed request/response API over the refinement loop
/// under either budget policy, with every backend constructed from
/// string-keyed registries. Thread-compatible: one
/// service may mint many sessions; each session is single-caller.
class FusionService {
 public:
  struct Config {
    /// Time source injected into schedulers and latency-simulating
    /// providers; nullptr means Clock::Real(). Borrowed; must outlive the
    /// service and its sessions.
    common::Clock* clock = nullptr;
  };

  /// A service over the builtin registries (every selector/provider/fuser
  /// in the repo).
  FusionService();
  explicit FusionService(Config config);

  /// Mutable registry access, so embedders can register custom backends
  /// before serving.
  core::SelectorRegistry& selectors() { return selectors_; }
  fusion::FuserRegistry& fusers() { return fusers_; }
  core::ProviderRegistry& providers() { return providers_; }

  /// Validates the request, builds the workload (generating + fusing the
  /// dataset when requested), constructs selector and providers from the
  /// registries, and returns a ready-to-step session.
  common::Result<std::unique_ptr<Session>> CreateSession(
      FusionRequest request) const;

  /// CreateSession + drain: runs the request to completion.
  common::Result<FusionResponse> Run(FusionRequest request) const;

  /// Materializes the request's workload (inline instances validated, or
  /// the dataset pipeline run) WITHOUT creating a session — so streaming
  /// clients can hold back a tail of the workload and feed it to a live
  /// session later via Session::AddInstances.
  common::Result<std::vector<InstanceSpec>> MaterializeWorkload(
      FusionRequest request) const {
    return BuildWorkload(request);
  }

 private:
  /// Consumes the request's inline instances (moved out, not copied — a
  /// large workload's joints travel once).
  common::Result<std::vector<InstanceSpec>> BuildWorkload(
      FusionRequest& request) const;

  Config config_;
  core::SelectorRegistry selectors_;
  fusion::FuserRegistry fusers_;
  core::ProviderRegistry providers_;
};

}  // namespace crowdfusion::service

#endif  // CROWDFUSION_SERVICE_FUSION_SERVICE_H_
