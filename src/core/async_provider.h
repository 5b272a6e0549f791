#ifndef CROWDFUSION_CORE_ASYNC_PROVIDER_H_
#define CROWDFUSION_CORE_ASYNC_PROVIDER_H_

#include <cstdint>
#include <functional>
#include <limits>
#include <mutex>
#include <span>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/clock.h"
#include "common/status.h"

namespace crowdfusion::core {

/// Handle to one in-flight batch of crowd tasks.
using TicketId = int64_t;

/// Per-ticket service contract: how long the caller is willing to wait in
/// total (across retries) and how many attempts the provider may make.
struct TicketOptions {
  /// Overall deadline relative to submission, seconds, spanning every
  /// retry. A ticket whose attempts would resolve past it fails with
  /// DeadlineExceeded at the deadline instead.
  double deadline_seconds = std::numeric_limits<double>::infinity();
  /// Bounded retry: total attempts (first try included). Must be >= 1.
  int max_attempts = 3;
  /// Extra delay charged before each retry attempt.
  double retry_backoff_seconds = 0.0;
};

enum class TicketPhase {
  kInFlight,  // answers not available yet
  kReady,     // answers delivered (in `answers`)
  kFailed,    // attempts or deadline exhausted (the failure in `error`)
};

/// What one Collect call found.
struct TicketStatus {
  TicketPhase phase = TicketPhase::kInFlight;
  /// Attempts consumed so far (final count once resolved).
  int attempts_used = 0;
  /// Seconds until the ticket resolves, while kInFlight; 0 otherwise.
  /// Callers use it to sleep exactly as long as needed instead of
  /// spinning.
  double seconds_until_ready = 0.0;
  /// The answers, one per submitted fact id, when phase == kReady.
  std::vector<bool> answers;
  /// The failure, when phase == kFailed.
  common::Status error;
};

/// The one crowd collection contract, shaped like a real platform:
/// submitting a batch of fact ids returns a ticket immediately; answers
/// land after the platform's latency and are collected by ticket. No call
/// blocks on the crowd: the caller collects, waits out the reported ETA
/// on its own clock, and collects again. Providers keep time on an
/// injected clock, so ManualClock tests stay deterministic. The
/// scheduler keeps one or more tickets in flight and collects them; the
/// gold pre-test is SubmitAndAwait. One provider instance serves one fact
/// universe. Implementations:
/// crowd::SimulatedCrowd (the gMission substitute), core::ScriptedProvider
/// (tests and config-built runs), net::HttpAnswerProvider (a remote
/// platform) and net::ProviderPool (failover over several).
///
/// Thread-safety: implementations in this repo guard their ticket state, so
/// Submit/Collect may be called from any thread; calls for the *same*
/// ticket should still come from one logical owner (Collect consumes).
class AsyncAnswerProvider {
 public:
  virtual ~AsyncAnswerProvider() = default;

  /// Registers a batch of tasks with the crowd and returns its ticket.
  virtual common::Result<TicketId> Submit(std::span<const int> fact_ids,
                                          const TicketOptions& options) = 0;
  common::Result<TicketId> Submit(std::span<const int> fact_ids) {
    return Submit(fact_ids, TicketOptions());
  }

  /// Non-blocking collection. A resolved ticket is consumed: kReady
  /// carries its answers, kFailed its failure. A ticket still in flight
  /// stays live and reports its ETA, so the caller collects again.
  /// Unknown or already-consumed tickets are NotFound.
  virtual common::Result<TicketStatus> Collect(TicketId ticket) = 0;

  /// Abandons a ticket the caller will never collect (e.g. a scheduler run
  /// aborted with batches still in flight), releasing its bookkeeping.
  /// Unknown tickets are ignored. Default: no-op, for providers without
  /// per-ticket state.
  virtual void Cancel(TicketId ticket) { (void)ticket; }

  /// (answers_served, answers_correct) so far, for empirical-accuracy
  /// reporting. Default (0, 0): the provider has no notion of correctness.
  virtual std::pair<int64_t, int64_t> ServedCorrect() { return {0, 0}; }

  /// Ticket batches resubmitted to a different replica after a failed or
  /// expired collection attempt. Default 0: no failover tier.
  virtual int64_t TicketsResubmitted() { return 0; }
};

/// One single-attempt ticket, submitted, waited for and collected: the
/// collection step of the gold pre-test (crowd::EstimateAccuracy).
/// Collects the ticket and sleeps each reported ETA on `clock` (the clock
/// the provider keeps time on; borrowed, not null) until it resolves. A
/// failed attempt surfaces its own status.
common::Result<std::vector<bool>> SubmitAndAwait(
    AsyncAnswerProvider& provider, std::span<const int> fact_ids,
    common::Clock* clock);

/// Shared ticket bookkeeping for the providers in this repo, which all
/// resolve a ticket's fate *eagerly at submit time* (answers, retries and
/// latency are sampled up front in submission order, so a provider's RNG
/// streams advance in submission order whatever the latency) and then
/// replay it against the clock: Collect compares now to the precomputed
/// ready time. Mutex-guarded so a provider can be collected from a
/// scheduler thread while other threads submit.
class TicketLedger {
 public:
  /// The precomputed fate of a ticket.
  struct Outcome {
    /// Submission-to-resolution delay, seconds (includes retry backoff).
    double latency_seconds = 0.0;
    /// Answers on success; the terminal error otherwise.
    common::Result<std::vector<bool>> result =
        common::Status::Internal("unresolved ticket outcome");
    int attempts_used = 1;
  };

  /// `clock` must outlive the ledger; nullptr means Clock::Real().
  explicit TicketLedger(common::Clock* clock);

  TicketId Add(Outcome outcome);
  common::Result<TicketStatus> Collect(TicketId ticket);

  /// Drops a ticket without consuming it (idempotent): abandoned tickets
  /// must not accumulate in a long-lived serving process.
  void Forget(TicketId ticket);

 private:
  struct Record {
    double ready_at = 0.0;
    Outcome outcome;
  };

  mutable std::mutex mutex_;
  common::Clock* clock_;
  TicketId next_id_ = 1;
  std::unordered_map<TicketId, Record> tickets_;
};

/// Resolves a ticket's attempt schedule against TicketOptions: runs
/// `run_attempt` up to max_attempts times (charging `attempt_latency`
/// plus backoff for each), stopping at the first success or when the
/// deadline would pass. `attempt_latency` may be null (zero latency).
/// Attempts are numbered from 1.
TicketLedger::Outcome SimulateTicketAttempts(
    const TicketOptions& options,
    const std::function<common::Result<std::vector<bool>>(int attempt)>&
        run_attempt,
    const std::function<double(int attempt)>& attempt_latency);

}  // namespace crowdfusion::core

#endif  // CROWDFUSION_CORE_ASYNC_PROVIDER_H_
