/// BudgetScheduler::AdvancePipelinedStep against the blocking step it
/// replaced. The old RunPipelinedStep launched, then polled and slept on
/// the clock until a ticket resolved, then harvested; the advance does
/// one collect per ticket and call and hands the wait to its caller.
/// Driven on a ManualClock over latency crowds, the advance loop (as the
/// served frontend drives it, and as RunPipelinedStep now drives it) must
/// produce records == to the old step's, and the same final joints. A
/// ticket is never collected again once a collect resolved it, even when
/// the call that collected it failed on another ticket.

#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "common/clock.h"
#include "common/random.h"
#include "core/greedy_selector.h"
#include "core/running_example.h"
#include "core/scheduler.h"
#include "crowd/latency_model.h"
#include "crowd/simulated_crowd.h"
#include "support/status_printing.h"

namespace crowdfusion::core {

/// The blocking step as it was before AdvancePipelinedStep, verbatim but
/// for the member accesses, the kSkipInstance branch (these runs keep
/// the default kAbort policy, under which that branch never runs), and
/// its polls, which go through CollectTicket: a collect consumes a
/// resolved ticket, whose status the instance then holds.
class BudgetSchedulerPeer {
 public:
  static common::Result<bool> BlockingStep(
      BudgetScheduler& s, std::vector<BudgetScheduler::StepRecord>& records) {
    using Instance = BudgetScheduler::Instance;
    int in_flight_count = 0;
    for (const Instance& instance : s.instances_) {
      if (instance.in_flight) ++in_flight_count;
    }
    while (in_flight_count < s.options_.max_in_flight &&
           s.cost_reserved_ < s.options_.total_budget) {
      const int k = std::min(s.options_.tasks_per_step,
                             s.options_.total_budget - s.cost_reserved_);
      CF_ASSIGN_OR_RETURN(const int best, s.PickBestIdleInstance(k));
      if (best < 0) break;
      Instance& launched = s.instances_[static_cast<size_t>(best)];
      CF_RETURN_IF_ERROR(s.SubmitSelection(launched, s.clock()->NowSeconds()));
      ++in_flight_count;
      CF_RETURN_IF_ERROR(s.CollectTicket(launched));
      if (launched.status.phase != TicketPhase::kInFlight) break;
    }
    if (in_flight_count == 0) {
      if (s.HasBudget()) {
        BudgetScheduler::StepRecord record;
        record.step = s.steps_run_++;
        record.cumulative_cost = s.cost_spent_;
        record.instance = -1;
        record.total_utility_bits = s.TotalUtilityBits();
        records.push_back(std::move(record));
      }
      return false;
    }
    for (;;) {
      bool any_resolved = false;
      double min_wait = std::numeric_limits<double>::infinity();
      for (Instance& instance : s.instances_) {
        if (!instance.in_flight) continue;
        CF_RETURN_IF_ERROR(s.CollectTicket(instance));
        const TicketStatus& ticket_status = instance.status;
        if (ticket_status.phase != TicketPhase::kInFlight) {
          any_resolved = true;
        } else {
          min_wait = std::min(min_wait, ticket_status.seconds_until_ready);
        }
      }
      if (any_resolved) break;
      s.clock()->SleepSeconds(
          std::min(std::max(min_wait, 1.0e-6), s.options_.max_poll_seconds));
    }
    for (Instance& instance : s.instances_) {
      if (!instance.in_flight) continue;
      CF_RETURN_IF_ERROR(s.CollectTicket(instance));
      if (instance.status.phase == TicketPhase::kInFlight) continue;
      CF_ASSIGN_OR_RETURN(
          BudgetScheduler::StepRecord record,
          s.HarvestTicket(instance, s.clock()->NowSeconds()));
      records.push_back(std::move(record));
    }
    return true;
  }
};

namespace {

using common::ManualClock;

constexpr int kSeeds = 32;

/// Forwards to a provider, counting Collect calls per ticket, and those
/// made after the collect that resolved the ticket.
class CollectCountingProvider : public AsyncAnswerProvider {
 public:
  explicit CollectCountingProvider(AsyncAnswerProvider* inner)
      : inner_(inner) {}

  common::Result<TicketId> Submit(std::span<const int> fact_ids,
                                  const TicketOptions& options) override {
    return inner_->Submit(fact_ids, options);
  }
  using AsyncAnswerProvider::Submit;
  common::Result<TicketStatus> Collect(TicketId ticket) override {
    ++collects[ticket];
    if (resolved.count(ticket) != 0) ++collects_after_resolved;
    auto status = inner_->Collect(ticket);
    if (status.ok() && status->phase != TicketPhase::kInFlight) {
      resolved.insert(ticket);
    }
    return status;
  }
  void Cancel(TicketId ticket) override { inner_->Cancel(ticket); }

  std::map<TicketId, int> collects;
  std::set<TicketId> resolved;
  int collects_after_resolved = 0;

 private:
  AsyncAnswerProvider* inner_;
};

/// One seeded run: a scheduler over 2-4 books, each answered by a
/// lognormal-latency crowd on the run's own ManualClock. Latencies straddle
/// max_poll_seconds, so some waits are capped and take several polls.
struct LatencyRun {
  LatencyRun(uint64_t seed, int window, int total_budget = 14)
      : clock(1000.0) {
    BudgetScheduler::Options options;
    options.total_budget = total_budget;
    options.tasks_per_step = 1 + static_cast<int>(seed % 3);
    options.max_in_flight = window;
    options.clock = &clock;
    auto crowd = CrowdModel::Create(0.8);
    EXPECT_TRUE(crowd.ok());
    auto created = BudgetScheduler::Create(*crowd, &selector, options);
    EXPECT_TRUE(created.ok()) << created.status();
    scheduler = std::make_unique<BudgetScheduler>(std::move(created).value());

    common::Rng rng(seed * 7919 + 13);
    const int num_instances = 2 + static_cast<int>(rng.NextBounded(3));
    for (int i = 0; i < num_instances; ++i) {
      const int n = 3 + static_cast<int>(rng.NextBounded(3));
      std::vector<double> marginals(static_cast<size_t>(n));
      for (double& m : marginals) m = rng.NextUniform(0.2, 0.8);
      std::vector<bool> truths(static_cast<size_t>(n));
      for (size_t f = 0; f < truths.size(); ++f) {
        truths[f] = rng.NextBernoulli(0.5);
      }
      auto joint = JointDistribution::FromIndependentMarginals(marginals);
      EXPECT_TRUE(joint.ok());
      crowds.push_back(std::make_unique<crowd::SimulatedCrowd>(
          crowd::SimulatedCrowd::WithUniformAccuracy(
              truths, 0.8, seed * 131 + static_cast<uint64_t>(i))));
      crowd::LatencyOptions latency;
      latency.median_seconds = 0.04;
      latency.sigma = 0.6;
      latency.seed = seed * 17 + static_cast<uint64_t>(i);
      crowds.back()->ConfigureAsync(latency, &clock);
      counters.push_back(
          std::make_unique<CollectCountingProvider>(crowds.back().get()));
      EXPECT_TRUE(scheduler
                      ->AddInstance("book" + std::to_string(i),
                                    std::move(joint).value(),
                                    counters.back().get())
                      .ok());
    }
  }

  std::vector<JointDistribution> Joints() const {
    std::vector<JointDistribution> joints;
    for (int i = 0; i < scheduler->num_instances(); ++i) {
      joints.push_back(scheduler->joint(i));
    }
    return joints;
  }

  ManualClock clock;
  GreedySelector selector;
  std::unique_ptr<BudgetScheduler> scheduler;
  std::vector<std::unique_ptr<crowd::SimulatedCrowd>> crowds;
  std::vector<std::unique_ptr<CollectCountingProvider>> counters;
};

/// The old blocking step, looped to the end of the run.
std::vector<BudgetScheduler::StepRecord> RunBlocking(LatencyRun& run) {
  std::vector<BudgetScheduler::StepRecord> records;
  for (;;) {
    auto more = BudgetSchedulerPeer::BlockingStep(*run.scheduler, records);
    EXPECT_TRUE(more.ok()) << more.status();
    if (!more.ok() || !*more) return records;
  }
}

/// The advance as a frontend drives it: on every wait, jump the clock to
/// the due time (now + wait) and call again with the new now.
std::vector<BudgetScheduler::StepRecord> RunAdvancing(LatencyRun& run,
                                                      int* waits) {
  using State = BudgetScheduler::Advance::State;
  std::vector<BudgetScheduler::StepRecord> records;
  for (;;) {
    const double now = run.clock.NowSeconds();
    auto advance = run.scheduler->AdvancePipelinedStep(now, records);
    EXPECT_TRUE(advance.ok()) << advance.status();
    if (!advance.ok() || advance->state == State::kDone) return records;
    EXPECT_EQ(run.scheduler->step_open(), advance->state == State::kWaiting);
    if (advance->state == State::kWaiting) {
      ++*waits;
      EXPECT_GT(advance->wait_seconds, 0.0);
      const double due_at = now + advance->wait_seconds;
      run.clock.AdvanceSeconds(due_at - run.clock.NowSeconds());
    }
  }
}

std::vector<BudgetScheduler::StepRecord> RunStepping(LatencyRun& run) {
  std::vector<BudgetScheduler::StepRecord> records;
  for (;;) {
    auto more = run.scheduler->RunPipelinedStep(records);
    EXPECT_TRUE(more.ok()) << more.status();
    if (!more.ok() || !*more) return records;
  }
}

TEST(PipelinedAdvanceTest, AdvanceLoopMatchesTheBlockingStep) {
  int total_waits = 0;
  for (const int window : {1, 4}) {
    for (uint64_t seed = 1; seed <= kSeeds; ++seed) {
      SCOPED_TRACE("window " + std::to_string(window) + " seed " +
                   std::to_string(seed));
      LatencyRun blocking(seed, window);
      LatencyRun advancing(seed, window);
      LatencyRun stepping(seed, window);
      const auto expected = RunBlocking(blocking);
      ASSERT_FALSE(expected.empty());
      EXPECT_EQ(RunAdvancing(advancing, &total_waits), expected);
      EXPECT_EQ(RunStepping(stepping), expected);
      EXPECT_EQ(advancing.Joints(), blocking.Joints());
      EXPECT_EQ(stepping.Joints(), blocking.Joints());
      EXPECT_EQ(advancing.clock.NowSeconds(), blocking.clock.NowSeconds());
      EXPECT_EQ(stepping.clock.NowSeconds(), blocking.clock.NowSeconds());
    }
  }
  // The latency crowds really made the advance wait, capped waits included.
  EXPECT_GT(total_waits, 2 * kSeeds);
}

TEST(PipelinedAdvanceTest, EachCallPollsAnInFlightTicketAtMostOnce) {
  // The launch loop, the wait pass and the harvest share one collect per
  // ticket: over a remote crowd every collect is a round trip.
  using State = BudgetScheduler::Advance::State;
  int collected_calls = 0;
  for (const int window : {1, 4}) {
    for (uint64_t seed = 1; seed <= kSeeds; ++seed) {
      SCOPED_TRACE("window " + std::to_string(window) + " seed " +
                   std::to_string(seed));
      LatencyRun run(seed, window);
      std::vector<BudgetScheduler::StepRecord> records;
      for (;;) {
        for (auto& counter : run.counters) counter->collects.clear();
        const double now = run.clock.NowSeconds();
        auto advance = run.scheduler->AdvancePipelinedStep(now, records);
        ASSERT_TRUE(advance.ok()) << advance.status();
        for (const auto& counter : run.counters) {
          for (const auto& [ticket, collects] : counter->collects) {
            EXPECT_EQ(collects, 1) << "ticket " << ticket;
            ++collected_calls;
          }
        }
        if (advance->state == State::kDone) break;
        if (advance->state == State::kWaiting) {
          run.clock.AdvanceSeconds(advance->wait_seconds);
        }
      }
      EXPECT_FALSE(records.empty());
      for (const auto& counter : run.counters) {
        EXPECT_EQ(counter->collects_after_resolved, 0);
      }
    }
  }
  EXPECT_GT(collected_calls, 4 * kSeeds);
}

TEST(PipelinedAdvanceTest, OnlyTheOpeningCallLaunches) {
  // A one-task budget fills one slot of a window of 4. Budget added while
  // that quantum waits is spent from the next quantum on, as it is between
  // two blocking steps: a waiting call that launched would put more
  // tickets in flight and change the schedule.
  for (uint64_t seed = 1; seed <= kSeeds; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    LatencyRun blocking(seed, 4, 1);
    std::vector<BudgetScheduler::StepRecord> expected;
    ASSERT_TRUE(
        BudgetSchedulerPeer::BlockingStep(*blocking.scheduler, expected).ok());
    ASSERT_TRUE(blocking.scheduler->AddBudget(6).ok());
    for (auto& record : RunBlocking(blocking)) expected.push_back(record);

    LatencyRun advancing(seed, 4, 1);
    std::vector<BudgetScheduler::StepRecord> records;
    auto first = advancing.scheduler->AdvancePipelinedStep(
        advancing.clock.NowSeconds(), records);
    ASSERT_TRUE(first.ok()) << first.status();
    ASSERT_EQ(first->state, BudgetScheduler::Advance::State::kWaiting);
    ASSERT_TRUE(advancing.scheduler->AddBudget(6).ok());
    int waits = 0;
    for (auto& record : RunAdvancing(advancing, &waits)) {
      records.push_back(record);
    }
    EXPECT_EQ(records, expected);
    EXPECT_EQ(advancing.Joints(), blocking.Joints());
  }
}

/// Answers every fact `true` one second after submission; the first
/// `failures` tickets fail with kUnavailable instead.
class OneSecondProvider : public AsyncAnswerProvider {
 public:
  OneSecondProvider(common::Clock* clock, int failures)
      : ledger_(clock), failures_(failures) {}

  common::Result<TicketId> Submit(std::span<const int> fact_ids,
                                  const TicketOptions&) override {
    TicketLedger::Outcome outcome;
    outcome.latency_seconds = 1.0;
    if (failures_ > 0) {
      --failures_;
      outcome.result = common::Status::Unavailable("crowd outage");
    } else {
      outcome.result = std::vector<bool>(fact_ids.size(), true);
    }
    return ledger_.Add(std::move(outcome));
  }
  using AsyncAnswerProvider::Submit;
  common::Result<TicketStatus> Collect(TicketId ticket) override {
    return ledger_.Collect(ticket);
  }
  void Cancel(TicketId ticket) override { ledger_.Forget(ticket); }

 private:
  TicketLedger ledger_;
  int failures_;
};

TEST(PipelinedAdvanceTest, AFailedCallNeverRecollectsWhatItResolved) {
  using State = BudgetScheduler::Advance::State;
  ManualClock clock(1000.0);
  BudgetScheduler::Options options;
  options.total_budget = 4;
  options.tasks_per_step = 1;
  options.max_in_flight = 2;
  options.on_ticket_failure = BudgetScheduler::TicketFailurePolicy::kAbort;
  options.clock = &clock;
  auto crowd = CrowdModel::Create(0.8);
  ASSERT_TRUE(crowd.ok());
  GreedySelector selector;
  auto scheduler = BudgetScheduler::Create(*crowd, &selector, options);
  ASSERT_TRUE(scheduler.ok()) << scheduler.status();
  OneSecondProvider failing(&clock, /*failures=*/1);
  OneSecondProvider healthy(&clock, /*failures=*/0);
  CollectCountingProvider counted_failing(&failing);
  CollectCountingProvider counted_healthy(&healthy);
  const JointDistribution joint = RunningExample::Joint();
  ASSERT_TRUE(scheduler->AddInstance("failing", joint, &counted_failing).ok());
  ASSERT_TRUE(scheduler->AddInstance("healthy", joint, &counted_healthy).ok());

  // The opening call puts ticket 0 (instance 0) and ticket 1 (instance 1)
  // in flight.
  std::vector<BudgetScheduler::StepRecord> records;
  auto opened = scheduler->AdvancePipelinedStep(clock.NowSeconds(), records);
  ASSERT_TRUE(opened.ok()) << opened.status();
  ASSERT_EQ(opened->state, State::kWaiting);
  ASSERT_EQ(counted_failing.collects.size(), 1u);
  ASSERT_EQ(counted_healthy.collects.size(), 1u);

  // One call collects both resolved tickets: ticket 0's failure aborts it
  // before ticket 1's answers merge.
  clock.AdvanceSeconds(1.0);
  auto failed = scheduler->AdvancePipelinedStep(clock.NowSeconds(), records);
  ASSERT_FALSE(failed.ok());
  EXPECT_EQ(failed.status().code(), common::StatusCode::kUnavailable);
  EXPECT_TRUE(records.empty());
  ASSERT_EQ(counted_failing.resolved.size(), 1u);
  ASSERT_EQ(counted_healthy.resolved.size(), 1u);

  // The next call merges ticket 1's held answers without collecting it
  // again, and the run goes on to spend the budget.
  auto next = scheduler->AdvancePipelinedStep(clock.NowSeconds(), records);
  ASSERT_TRUE(next.ok()) << next.status();
  EXPECT_EQ(next->state, State::kStepped);
  ASSERT_EQ(records.size(), 1u);
  EXPECT_EQ(records[0].instance, 1);
  EXPECT_EQ(records[0].answers, std::vector<bool>{true});
  for (;;) {
    auto advance = scheduler->AdvancePipelinedStep(clock.NowSeconds(), records);
    ASSERT_TRUE(advance.ok()) << advance.status();
    if (advance->state == State::kDone) break;
    if (advance->state == State::kWaiting) {
      clock.AdvanceSeconds(advance->wait_seconds);
    }
  }
  EXPECT_EQ(scheduler->total_cost_spent(), 4);
  EXPECT_EQ(counted_failing.collects_after_resolved, 0);
  EXPECT_EQ(counted_healthy.collects_after_resolved, 0);
}

}  // namespace
}  // namespace crowdfusion::core
