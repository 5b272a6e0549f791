#include "core/async_provider.h"

#include <algorithm>
#include <utility>

#include "common/string_util.h"

namespace crowdfusion::core {

using common::Status;

common::Result<std::vector<bool>> SubmitAndAwait(
    AsyncAnswerProvider& provider, std::span<const int> fact_ids,
    common::Clock* clock) {
  CF_ASSIGN_OR_RETURN(
      const TicketId ticket,
      provider.Submit(fact_ids, TicketOptions{.max_attempts = 1}));
  for (;;) {
    CF_ASSIGN_OR_RETURN(TicketStatus status, provider.Collect(ticket));
    if (status.phase == TicketPhase::kReady) return std::move(status.answers);
    if (status.phase == TicketPhase::kFailed) return status.error;
    // The 1 µs floor keeps a provider reporting "ready in 0 s" for a
    // ticket still in flight (clock skew) from spinning.
    clock->SleepSeconds(std::max(status.seconds_until_ready, 1.0e-6));
  }
}

TicketLedger::TicketLedger(common::Clock* clock)
    : clock_(clock == nullptr ? common::Clock::Real() : clock) {}

TicketId TicketLedger::Add(Outcome outcome) {
  std::lock_guard<std::mutex> lock(mutex_);
  const TicketId id = next_id_++;
  Record record;
  record.ready_at =
      clock_->NowSeconds() + std::max(0.0, outcome.latency_seconds);
  record.outcome = std::move(outcome);
  tickets_.emplace(id, std::move(record));
  return id;
}

common::Result<TicketStatus> TicketLedger::Collect(TicketId ticket) {
  std::lock_guard<std::mutex> lock(mutex_);
  const auto it = tickets_.find(ticket);
  if (it == tickets_.end()) {
    return Status::NotFound(
        common::StrFormat("unknown or already-taken ticket %lld",
                          static_cast<long long>(ticket)));
  }
  Record& record = it->second;
  TicketStatus status;
  status.attempts_used = record.outcome.attempts_used;
  const double remaining = record.ready_at - clock_->NowSeconds();
  if (remaining > 0) {
    status.seconds_until_ready = remaining;
    return status;
  }
  if (record.outcome.result.ok()) {
    status.phase = TicketPhase::kReady;
    status.answers = std::move(record.outcome.result).value();
  } else {
    status.phase = TicketPhase::kFailed;
    status.error = record.outcome.result.status();
  }
  tickets_.erase(it);
  return status;
}

void TicketLedger::Forget(TicketId ticket) {
  std::lock_guard<std::mutex> lock(mutex_);
  tickets_.erase(ticket);
}

TicketLedger::Outcome SimulateTicketAttempts(
    const TicketOptions& options,
    const std::function<common::Result<std::vector<bool>>(int attempt)>&
        run_attempt,
    const std::function<double(int attempt)>& attempt_latency) {
  TicketLedger::Outcome outcome;
  const int max_attempts = std::max(1, options.max_attempts);
  double elapsed = 0.0;
  Status last_error = Status::Unavailable("no attempt ran");
  for (int attempt = 1; attempt <= max_attempts; ++attempt) {
    if (attempt > 1) elapsed += std::max(0.0, options.retry_backoff_seconds);
    if (attempt_latency != nullptr) {
      elapsed += std::max(0.0, attempt_latency(attempt));
    }
    outcome.attempts_used = attempt;
    if (elapsed > options.deadline_seconds) {
      // The attempt would land past the deadline; the caller observes the
      // failure the moment the deadline passes.
      outcome.latency_seconds = options.deadline_seconds;
      outcome.result = Status::DeadlineExceeded(common::StrFormat(
          "ticket deadline of %.3fs passed during attempt %d",
          options.deadline_seconds, attempt));
      return outcome;
    }
    common::Result<std::vector<bool>> result = run_attempt(attempt);
    if (result.ok()) {
      outcome.latency_seconds = elapsed;
      outcome.result = std::move(result);
      return outcome;
    }
    last_error = result.status();
  }
  // Attempts exhausted: surface the last attempt's own status, so a
  // single-attempt ticket fails with exactly the attempt's error;
  // attempts_used records that retries happened.
  outcome.latency_seconds = elapsed;
  outcome.result = last_error;
  return outcome;
}

}  // namespace crowdfusion::core
