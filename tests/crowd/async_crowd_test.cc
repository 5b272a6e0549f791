#include <gtest/gtest.h>

#include <vector>

#include "common/clock.h"
#include "core/async_provider.h"
#include "core/greedy_selector.h"
#include "core/running_example.h"
#include "core/scheduler.h"
#include "crowd/latency_model.h"
#include "crowd/simulated_crowd.h"

namespace crowdfusion::crowd {
namespace {

using common::ManualClock;
using common::StatusCode;
using core::TicketOptions;
using core::TicketPhase;

const std::vector<bool> kTruths = {true, false, true, false, true, false};

TEST(AsyncSimulatedCrowdTest, LatencyNeverChangesTheAnswers) {
  // Same seed, same batches, different latency: the judgment streams must
  // be identical, so turning latency on can never change an experiment's
  // answers (latency draws come from the latency model's own stream).
  SimulatedCrowd instant =
      SimulatedCrowd::WithUniformAccuracy(kTruths, 0.7, 99);
  SimulatedCrowd slow = SimulatedCrowd::WithUniformAccuracy(kTruths, 0.7, 99);
  ManualClock clock;
  instant.ConfigureAsync(LatencyOptions{}, &clock);
  LatencyOptions latency;
  latency.median_seconds = 2.0;
  slow.ConfigureAsync(latency, &clock);

  const std::vector<std::vector<int>> batches = {
      {0, 1, 2}, {3, 4}, {5, 0, 1, 2, 3}, {4, 5}};
  for (const auto& batch : batches) {
    auto instant_answers = core::SubmitAndAwait(instant, batch, &clock);
    ASSERT_TRUE(instant_answers.ok());
    auto slow_answers = core::SubmitAndAwait(slow, batch, &clock);
    ASSERT_TRUE(slow_answers.ok());
    EXPECT_EQ(*slow_answers, *instant_answers);
  }
  EXPECT_GT(clock.NowSeconds(), 0.0);  // the slow crowd's waits slept
  EXPECT_EQ(slow.answers_served(), instant.answers_served());
  EXPECT_EQ(slow.answers_correct(), instant.answers_correct());
}

TEST(AsyncSimulatedCrowdTest, EngineRoundWaitsOutTheCrowdsLatency) {
  // Engine-mode rounds (one book, one ticket at a time) collect through
  // tickets, so a crowd's simulated latency elapses on its clock, one
  // batch at a time.
  SimulatedCrowd crowd = SimulatedCrowd::WithUniformAccuracy(
      {true, true, true, false}, 0.8, 5);
  ManualClock clock;
  LatencyOptions latency;
  latency.median_seconds = 3.0;
  latency.sigma = 0.0;  // every task takes exactly the median
  crowd.ConfigureAsync(latency, &clock);
  auto model = core::CrowdModel::Create(0.8);
  ASSERT_TRUE(model.ok());
  core::GreedySelector selector;
  auto book = core::BudgetScheduler::Create(
      *model, &selector,
      {.total_budget = 4,
       .tasks_per_step = 2,
       .max_in_flight = 1,
       .clock = &clock});
  ASSERT_TRUE(book.ok());
  ASSERT_TRUE(
      book->AddInstance("book", core::RunningExample::Joint(), &crowd).ok());

  std::vector<core::BudgetScheduler::StepRecord> records;
  ASSERT_TRUE(book->RunPipelinedStep(records).ok());
  ASSERT_EQ(records.size(), 1u);
  EXPECT_EQ(records[0].answers.size(), 2u);
  EXPECT_DOUBLE_EQ(records[0].latency_seconds, 3.0);
  EXPECT_DOUBLE_EQ(clock.NowSeconds(), 3.0);
  ASSERT_TRUE(book->RunPipelinedStep(records).ok());
  EXPECT_DOUBLE_EQ(clock.NowSeconds(), 6.0);
  EXPECT_EQ(book->total_cost_spent(), 4);
}

TEST(AsyncSimulatedCrowdTest, EngineRoundFailsOnAnInjectedOutage) {
  // The failure knob is honoured in engine mode too: a round is one
  // single-attempt ticket, so one injected failure fails the round.
  SimulatedCrowd crowd = SimulatedCrowd::WithUniformAccuracy(
      {true, true, true, false}, 0.8, 5);
  ManualClock clock;
  LatencyOptions latency;
  latency.failure_probability = 1.0;
  crowd.ConfigureAsync(latency, &clock);
  auto model = core::CrowdModel::Create(0.8);
  ASSERT_TRUE(model.ok());
  core::GreedySelector selector;
  auto book = core::BudgetScheduler::Create(
      *model, &selector,
      {.total_budget = 60, .max_in_flight = 1, .clock = &clock});
  ASSERT_TRUE(book.ok());
  ASSERT_TRUE(
      book->AddInstance("book", core::RunningExample::Joint(), &crowd).ok());
  std::vector<core::BudgetScheduler::StepRecord> records;
  EXPECT_EQ(book->RunPipelinedStep(records).status().code(),
            StatusCode::kUnavailable);
  EXPECT_EQ(book->total_cost_spent(), 0);
  EXPECT_EQ(crowd.answers_served(), 0);
}

TEST(AsyncSimulatedCrowdTest, LatencyElapsesOnTheInjectedClock) {
  SimulatedCrowd crowd = SimulatedCrowd::WithUniformAccuracy(kTruths, 0.8, 3);
  ManualClock clock;
  LatencyOptions latency;
  latency.median_seconds = 2.0;
  latency.sigma = 0.0;  // every task takes exactly the median
  crowd.ConfigureAsync(latency, &clock);

  auto ticket = crowd.Submit(std::vector<int>{0, 1, 2});
  ASSERT_TRUE(ticket.ok());
  auto pending = crowd.Collect(*ticket);
  ASSERT_TRUE(pending.ok());
  EXPECT_EQ(pending->phase, TicketPhase::kInFlight);
  EXPECT_NEAR(pending->seconds_until_ready, 2.0, 1e-9);

  clock.AdvanceSeconds(1.0);
  pending = crowd.Collect(*ticket);
  ASSERT_TRUE(pending.ok());
  EXPECT_EQ(pending->phase, TicketPhase::kInFlight);

  clock.AdvanceSeconds(1.0);
  auto ready = crowd.Collect(*ticket);
  ASSERT_TRUE(ready.ok());
  EXPECT_EQ(ready->phase, TicketPhase::kReady);
  EXPECT_EQ(ready->answers.size(), 3u);
}

TEST(AsyncSimulatedCrowdTest, InjectedFailuresAreRetriedUnderTheContract) {
  SimulatedCrowd crowd = SimulatedCrowd::WithUniformAccuracy(kTruths, 0.8, 3);
  ManualClock clock;
  LatencyOptions latency;
  latency.median_seconds = 1.0;
  latency.sigma = 0.0;
  latency.failure_probability = 1.0;  // every attempt fails
  crowd.ConfigureAsync(latency, &clock);

  TicketOptions options;
  options.max_attempts = 3;
  options.retry_backoff_seconds = 0.5;
  auto ticket = crowd.Submit(std::vector<int>{0}, options);
  ASSERT_TRUE(ticket.ok());
  // Resolution lands after 1 + (0.5+1) + (0.5+1) = 4 seconds of trying.
  auto pending = crowd.Collect(*ticket);
  ASSERT_TRUE(pending.ok());
  EXPECT_EQ(pending->phase, TicketPhase::kInFlight);
  EXPECT_NEAR(pending->seconds_until_ready, 4.0, 1e-9);

  clock.AdvanceSeconds(4.0);
  auto failed = crowd.Collect(*ticket);
  ASSERT_TRUE(failed.ok());
  EXPECT_EQ(failed->phase, TicketPhase::kFailed);
  EXPECT_EQ(failed->attempts_used, 3);
  EXPECT_EQ(failed->error.code(), StatusCode::kUnavailable);
  EXPECT_EQ(crowd.Collect(*ticket).status().code(), StatusCode::kNotFound);
  // Failed attempts never drew judgments.
  EXPECT_EQ(crowd.answers_served(), 0);
}

TEST(AsyncSimulatedCrowdTest, DeadlineExceededWhenTheCrowdIsTooSlow) {
  SimulatedCrowd crowd = SimulatedCrowd::WithUniformAccuracy(kTruths, 0.8, 3);
  ManualClock clock;
  LatencyOptions latency;
  latency.median_seconds = 5.0;
  latency.sigma = 0.0;
  crowd.ConfigureAsync(latency, &clock);

  TicketOptions options;
  options.deadline_seconds = 3.0;
  auto ticket = crowd.Submit(std::vector<int>{0, 1}, options);
  ASSERT_TRUE(ticket.ok());
  clock.AdvanceSeconds(3.0);
  auto resolved = crowd.Collect(*ticket);
  ASSERT_TRUE(resolved.ok());
  EXPECT_EQ(resolved->phase, TicketPhase::kFailed);
  EXPECT_EQ(resolved->error.code(), StatusCode::kDeadlineExceeded);
}

TEST(AsyncSimulatedCrowdTest, StragglersStretchTheTail) {
  // With straggler injection the batch latency distribution must actually
  // produce outliers: max over many batches >> median.
  SimulatedCrowd crowd = SimulatedCrowd::WithUniformAccuracy(kTruths, 0.8, 3);
  ManualClock clock;
  LatencyOptions latency;
  latency.median_seconds = 1.0;
  latency.sigma = 0.0;
  latency.straggler_probability = 0.1;
  latency.straggler_factor = 50.0;
  latency.seed = 21;
  crowd.ConfigureAsync(latency, &clock);

  double max_wait = 0.0;
  for (int i = 0; i < 40; ++i) {
    auto ticket = crowd.Submit(std::vector<int>{0});
    ASSERT_TRUE(ticket.ok());
    auto pending = crowd.Collect(*ticket);
    ASSERT_TRUE(pending.ok());
    max_wait = std::max(max_wait, pending->seconds_until_ready);
    clock.AdvanceSeconds(pending->seconds_until_ready);
    auto ready = crowd.Collect(*ticket);
    ASSERT_TRUE(ready.ok());
    ASSERT_EQ(ready->phase, TicketPhase::kReady);
  }
  EXPECT_GE(max_wait, 25.0) << "no straggler in 40 batches at p=0.1";
}

TEST(AsyncSimulatedCrowdTest, UnknownTicketIsNotFound) {
  SimulatedCrowd crowd = SimulatedCrowd::WithUniformAccuracy(kTruths, 0.8, 3);
  EXPECT_EQ(crowd.Collect(1234).status().code(), StatusCode::kNotFound);
}

TEST(LatencyModelTest, DisabledModelIsInstantAndNeverFails) {
  LatencyModel model;
  EXPECT_FALSE(model.enabled());
  EXPECT_DOUBLE_EQ(model.SampleTaskSeconds(), 0.0);
  EXPECT_FALSE(model.SampleFailure());
}

TEST(LatencyModelTest, DeterministicInSeed) {
  LatencyOptions options;
  options.median_seconds = 3.0;
  options.seed = 77;
  LatencyModel a(options);
  LatencyModel b(options);
  for (int i = 0; i < 20; ++i) {
    EXPECT_DOUBLE_EQ(a.SampleTaskSeconds(), b.SampleTaskSeconds());
  }
}

TEST(LatencyModelTest, EnabledSeesEveryKnobNotJustTheMedian) {
  // Regression: enabled() historically meant median_seconds > 0, which
  // silently dropped zero-latency configs that only inject failures or
  // stragglers (and forced tests to fake a 1e-9s median to get them).
  EXPECT_FALSE(LatencyModel(LatencyOptions{}).enabled());

  LatencyOptions explicit_on;
  explicit_on.enabled = true;
  EXPECT_TRUE(LatencyModel(explicit_on).enabled());
  EXPECT_FALSE(LatencyModel(explicit_on).has_latency());

  LatencyOptions with_latency;
  with_latency.median_seconds = 2.0;
  EXPECT_TRUE(LatencyModel(with_latency).enabled());
  EXPECT_TRUE(LatencyModel(with_latency).has_latency());

  LatencyOptions failures_only;
  failures_only.failure_probability = 0.5;
  EXPECT_TRUE(LatencyModel(failures_only).enabled());
  EXPECT_FALSE(LatencyModel(failures_only).has_latency());

  LatencyOptions stragglers_only;
  stragglers_only.straggler_probability = 0.25;
  EXPECT_TRUE(LatencyModel(stragglers_only).enabled());
  EXPECT_FALSE(LatencyModel(stragglers_only).has_latency());
}

TEST(LatencyModelTest, ZeroMedianFailureModelInjectsFailuresInstantly) {
  LatencyOptions options;
  options.failure_probability = 1.0;
  LatencyModel model(options);
  ASSERT_TRUE(model.enabled());
  // Instant resolution (no latency draws touch the stream) …
  EXPECT_DOUBLE_EQ(model.SampleTaskSeconds(), 0.0);
  // … but failures still fire.
  EXPECT_TRUE(model.SampleFailure());
}

}  // namespace
}  // namespace crowdfusion::crowd
