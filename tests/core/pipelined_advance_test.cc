/// BudgetScheduler::AdvancePipelinedStep against the blocking step it
/// replaced. The old RunPipelinedStep launched, then polled and slept on
/// the clock until a ticket resolved, then harvested; the advance does
/// one poll per call and hands the wait to its caller. Driven on a
/// ManualClock over latency crowds, the advance loop (as the served
/// frontend drives it, and as RunPipelinedStep now drives it) must
/// produce records == to the old step's, and the same final joints.

#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/clock.h"
#include "common/random.h"
#include "core/greedy_selector.h"
#include "core/scheduler.h"
#include "crowd/latency_model.h"
#include "crowd/simulated_crowd.h"
#include "support/status_printing.h"

namespace crowdfusion::core {

/// The blocking step as it was before AdvancePipelinedStep, verbatim but
/// for the member accesses and the kSkipInstance branch (these runs keep
/// the default kAbort policy, under which that branch never runs).
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
      CF_ASSIGN_OR_RETURN(const TicketStatus ticket_status,
                          launched.provider->Poll(launched.ticket));
      if (ticket_status.phase != TicketPhase::kInFlight) break;
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
        CF_ASSIGN_OR_RETURN(const TicketStatus ticket_status,
                            instance.provider->Poll(instance.ticket));
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
      CF_ASSIGN_OR_RETURN(const TicketStatus ticket_status,
                          instance.provider->Poll(instance.ticket));
      if (ticket_status.phase == TicketPhase::kInFlight) continue;
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

/// Forwards to a provider, counting Poll calls per ticket.
class PollCountingProvider : public AsyncAnswerProvider {
 public:
  explicit PollCountingProvider(AsyncAnswerProvider* inner) : inner_(inner) {}

  common::Result<TicketId> Submit(std::span<const int> fact_ids,
                                  const TicketOptions& options) override {
    return inner_->Submit(fact_ids, options);
  }
  using AsyncAnswerProvider::Submit;
  common::Result<TicketStatus> Poll(TicketId ticket) override {
    ++polls[ticket];
    return inner_->Poll(ticket);
  }
  common::Result<std::vector<bool>> Take(TicketId ticket) override {
    return inner_->Take(ticket);
  }
  void Cancel(TicketId ticket) override { inner_->Cancel(ticket); }

  std::map<TicketId, int> polls;

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
          std::make_unique<PollCountingProvider>(crowds.back().get()));
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
  std::vector<std::unique_ptr<PollCountingProvider>> counters;
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
  // The launch loop, the wait pass and the harvest share one poll per
  // ticket: over a remote crowd every Poll is a round trip.
  using State = BudgetScheduler::Advance::State;
  int polled_calls = 0;
  for (const int window : {1, 4}) {
    for (uint64_t seed = 1; seed <= kSeeds; ++seed) {
      SCOPED_TRACE("window " + std::to_string(window) + " seed " +
                   std::to_string(seed));
      LatencyRun run(seed, window);
      std::vector<BudgetScheduler::StepRecord> records;
      for (;;) {
        for (auto& counter : run.counters) counter->polls.clear();
        const double now = run.clock.NowSeconds();
        auto advance = run.scheduler->AdvancePipelinedStep(now, records);
        ASSERT_TRUE(advance.ok()) << advance.status();
        for (const auto& counter : run.counters) {
          for (const auto& [ticket, polls] : counter->polls) {
            EXPECT_EQ(polls, 1) << "ticket " << ticket;
            ++polled_calls;
          }
        }
        if (advance->state == State::kDone) break;
        if (advance->state == State::kWaiting) {
          run.clock.AdvanceSeconds(advance->wait_seconds);
        }
      }
      EXPECT_FALSE(records.empty());
    }
  }
  EXPECT_GT(polled_calls, 4 * kSeeds);
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

}  // namespace
}  // namespace crowdfusion::core
