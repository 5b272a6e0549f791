#include "core/async_provider.h"

#include <gtest/gtest.h>

#include <vector>

#include "common/clock.h"
#include "core/scripted_provider.h"

namespace crowdfusion::core {
namespace {

using common::ManualClock;
using common::Status;
using common::StatusCode;

/// Answers every fact `true`, `latency_seconds` after submission.
class DelayedProvider : public AsyncAnswerProvider {
 public:
  DelayedProvider(common::Clock* clock, double latency_seconds)
      : ledger(clock), latency_seconds_(latency_seconds) {}

  common::Result<TicketId> Submit(std::span<const int> fact_ids,
                                  const TicketOptions&) override {
    TicketLedger::Outcome outcome;
    outcome.latency_seconds = latency_seconds_;
    outcome.result = std::vector<bool>(fact_ids.size(), true);
    return ledger.Add(std::move(outcome));
  }
  using AsyncAnswerProvider::Submit;
  common::Result<TicketStatus> Collect(TicketId ticket) override {
    return ledger.Collect(ticket);
  }

  TicketLedger ledger;

 private:
  double latency_seconds_;
};

/// The parity-rule provider, optionally failing its first N attempts.
ScriptedProvider MakeScripted(int failures_before_success = 0) {
  ScriptedProvider::Options options;
  options.failures_before_success = failures_before_success;
  return ScriptedProvider(std::move(options));
}

TEST(ScriptedProviderTest, TicketResolvesImmediatelyWithScriptedAnswers) {
  ScriptedProvider provider;
  const std::vector<int> tasks = {0, 1, 2, 3};

  auto ticket = provider.Submit(tasks);
  ASSERT_TRUE(ticket.ok());
  auto status = provider.Collect(*ticket);
  ASSERT_TRUE(status.ok());
  EXPECT_EQ(status->phase, TicketPhase::kReady);
  EXPECT_EQ(status->attempts_used, 1);
  EXPECT_DOUBLE_EQ(status->seconds_until_ready, 0.0);
  EXPECT_EQ(status->answers, (std::vector<bool>{false, true, false, true}));
  // The collect consumed the ticket.
  EXPECT_EQ(provider.Collect(*ticket).status().code(), StatusCode::kNotFound);
}

TEST(ScriptedProviderTest, BoundedRetryRecoversFromTransientFailure) {
  ScriptedProvider provider = MakeScripted(/*failures_before_success=*/2);
  TicketOptions options;
  options.max_attempts = 3;

  auto ticket = provider.Submit(std::vector<int>{1}, options);
  ASSERT_TRUE(ticket.ok());
  auto status = provider.Collect(*ticket);
  ASSERT_TRUE(status.ok());
  EXPECT_EQ(status->phase, TicketPhase::kReady);
  EXPECT_EQ(status->attempts_used, 3);
  EXPECT_EQ(provider.calls(), 3);
  EXPECT_EQ(status->answers, std::vector<bool>{true});
}

TEST(ScriptedProviderTest, RetryExhaustionSurfacesTheProviderError) {
  ScriptedProvider provider = MakeScripted(/*failures_before_success=*/10);
  TicketOptions options;
  options.max_attempts = 2;

  auto ticket = provider.Submit(std::vector<int>{0}, options);
  ASSERT_TRUE(ticket.ok());
  auto status = provider.Collect(*ticket);
  ASSERT_TRUE(status.ok());
  EXPECT_EQ(status->phase, TicketPhase::kFailed);
  EXPECT_EQ(status->attempts_used, 2);
  EXPECT_EQ(status->error.code(), StatusCode::kUnavailable);
  EXPECT_EQ(provider.calls(), 2);
  // Collecting the failure consumed the ticket, as answers would.
  EXPECT_EQ(provider.Collect(*ticket).status().code(), StatusCode::kNotFound);
}

TEST(ScriptedProviderTest, SingleAttemptFailsWithTheAttemptsOwnError) {
  ScriptedProvider provider = MakeScripted(/*failures_before_success=*/1);
  TicketOptions options;
  options.max_attempts = 1;

  auto ticket = provider.Submit(std::vector<int>{0}, options);
  ASSERT_TRUE(ticket.ok());
  auto status = provider.Collect(*ticket);
  ASSERT_TRUE(status.ok());
  const Status error = status->error;
  EXPECT_EQ(error.code(), StatusCode::kUnavailable);
  EXPECT_EQ(error.message(), "scripted outage");
  EXPECT_EQ(provider.calls(), 1);
}

TEST(TicketLedgerTest, LatencyElapsesAgainstTheClock) {
  ManualClock clock(100.0);
  TicketLedger ledger(&clock);
  TicketLedger::Outcome outcome;
  outcome.latency_seconds = 5.0;
  outcome.result = std::vector<bool>{true, false};
  outcome.attempts_used = 1;
  const TicketId ticket = ledger.Add(std::move(outcome));

  auto pending = ledger.Collect(ticket);
  ASSERT_TRUE(pending.ok());
  EXPECT_EQ(pending->phase, TicketPhase::kInFlight);
  EXPECT_NEAR(pending->seconds_until_ready, 5.0, 1e-12);
  EXPECT_TRUE(pending->answers.empty());

  clock.AdvanceSeconds(2.0);
  pending = ledger.Collect(ticket);
  ASSERT_TRUE(pending.ok());
  EXPECT_EQ(pending->phase, TicketPhase::kInFlight);
  EXPECT_NEAR(pending->seconds_until_ready, 3.0, 1e-12);

  clock.AdvanceSeconds(3.0);
  auto ready = ledger.Collect(ticket);
  ASSERT_TRUE(ready.ok());
  EXPECT_EQ(ready->phase, TicketPhase::kReady);
  EXPECT_DOUBLE_EQ(ready->seconds_until_ready, 0.0);
  EXPECT_EQ(ready->answers, (std::vector<bool>{true, false}));
}

TEST(TicketLedgerTest, AwaitSleepsThroughRemainingLatency) {
  // SubmitAndAwait sleeps the ledger's reported ETA on the caller's
  // clock, in one sleep, then collects the ticket.
  ManualClock clock;
  DelayedProvider provider(&clock, /*latency_seconds=*/7.5);
  auto answers = SubmitAndAwait(provider, std::vector<int>{0}, &clock);
  ASSERT_TRUE(answers.ok());
  EXPECT_EQ(*answers, std::vector<bool>{true});
  EXPECT_DOUBLE_EQ(clock.NowSeconds(), 7.5);
  // The collect consumed the one ticket issued; the next one gets the
  // next id.
  EXPECT_EQ(provider.ledger.Collect(1).status().code(), StatusCode::kNotFound);
  TicketLedger::Outcome next;
  next.result = std::vector<bool>{false};
  EXPECT_EQ(provider.ledger.Add(std::move(next)), 2);
}

TEST(TicketLedgerTest, TakeBeforeReadyKeepsTheTicket) {
  ManualClock clock;
  TicketLedger ledger(&clock);
  TicketLedger::Outcome outcome;
  outcome.latency_seconds = 2.0;
  outcome.result = std::vector<bool>{true, false};
  const TicketId ticket = ledger.Add(std::move(outcome));

  auto pending = ledger.Collect(ticket);
  ASSERT_TRUE(pending.ok());
  EXPECT_DOUBLE_EQ(clock.NowSeconds(), 0.0);  // Collect never sleeps
  EXPECT_EQ(pending->phase, TicketPhase::kInFlight);
  EXPECT_NEAR(pending->seconds_until_ready, 2.0, 1e-12);
  // The in-flight collect kept the ticket.
  pending = ledger.Collect(ticket);
  ASSERT_TRUE(pending.ok());
  EXPECT_EQ(pending->phase, TicketPhase::kInFlight);

  clock.AdvanceSeconds(2.0);
  auto ready = ledger.Collect(ticket);
  ASSERT_TRUE(ready.ok());
  EXPECT_EQ(ready->phase, TicketPhase::kReady);
  EXPECT_EQ(ready->answers, (std::vector<bool>{true, false}));
  EXPECT_EQ(ledger.Collect(ticket).status().code(), StatusCode::kNotFound);
}

TEST(SimulateTicketAttemptsTest, DeadlineCutsOffRetries) {
  TicketOptions options;
  options.max_attempts = 5;
  options.deadline_seconds = 8.0;
  options.retry_backoff_seconds = 1.0;
  int attempts_run = 0;
  TicketLedger::Outcome outcome = SimulateTicketAttempts(
      options,
      [&attempts_run](int) -> common::Result<std::vector<bool>> {
        ++attempts_run;
        return Status::Unavailable("flaky");
      },
      [](int) { return 5.0; });
  // Attempt 1 resolves at t=5 and fails; attempt 2 would resolve at
  // t=5+1+5=11 > 8, so the ticket dies at the deadline.
  EXPECT_EQ(attempts_run, 1);
  EXPECT_EQ(outcome.attempts_used, 2);
  EXPECT_DOUBLE_EQ(outcome.latency_seconds, 8.0);
  EXPECT_EQ(outcome.result.status().code(), StatusCode::kDeadlineExceeded);
}

TEST(SimulateTicketAttemptsTest, RetryBackoffAccumulatesIntoLatency) {
  TicketOptions options;
  options.max_attempts = 3;
  options.retry_backoff_seconds = 2.0;
  int attempts_run = 0;
  TicketLedger::Outcome outcome = SimulateTicketAttempts(
      options,
      [&attempts_run](int attempt) -> common::Result<std::vector<bool>> {
        ++attempts_run;
        if (attempt < 3) return Status::Unavailable("flaky");
        return std::vector<bool>{false};
      },
      [](int) { return 1.0; });
  EXPECT_EQ(attempts_run, 3);
  EXPECT_EQ(outcome.attempts_used, 3);
  // 1 + (2 + 1) + (2 + 1) seconds.
  EXPECT_DOUBLE_EQ(outcome.latency_seconds, 7.0);
  ASSERT_TRUE(outcome.result.ok());
}

TEST(SimulateTicketAttemptsTest, ZeroLatencySuccessOnFirstAttempt) {
  TicketOptions options;
  TicketLedger::Outcome outcome = SimulateTicketAttempts(
      options,
      [](int) -> common::Result<std::vector<bool>> {
        return std::vector<bool>{true, true};
      },
      /*attempt_latency=*/nullptr);
  EXPECT_EQ(outcome.attempts_used, 1);
  EXPECT_DOUBLE_EQ(outcome.latency_seconds, 0.0);
  ASSERT_TRUE(outcome.result.ok());
  EXPECT_EQ(outcome.result.value().size(), 2u);
}

TEST(TicketLedgerTest, ForgetReleasesAbandonedTickets) {
  ManualClock clock;
  TicketLedger ledger(&clock);
  TicketLedger::Outcome outcome;
  outcome.latency_seconds = 100.0;  // still in flight when abandoned
  outcome.result = std::vector<bool>{true};
  const TicketId ticket = ledger.Add(std::move(outcome));
  EXPECT_TRUE(ledger.Collect(ticket).ok());

  ledger.Forget(ticket);
  EXPECT_EQ(ledger.Collect(ticket).status().code(), StatusCode::kNotFound);
  ledger.Forget(ticket);  // idempotent
  EXPECT_EQ(ledger.Collect(ticket).status().code(), StatusCode::kNotFound);
}

TEST(ScriptedProviderTest, CancelDropsTheTicket) {
  ScriptedProvider provider;
  auto ticket = provider.Submit(std::vector<int>{0, 1});
  ASSERT_TRUE(ticket.ok());
  provider.Cancel(*ticket);
  EXPECT_EQ(provider.Collect(*ticket).status().code(), StatusCode::kNotFound);
}

}  // namespace
}  // namespace crowdfusion::core
