#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "common/clock.h"
#include "common/random.h"
#include "core/bayes.h"
#include "core/greedy_selector.h"
#include "core/scheduler.h"
#include "crowd/simulated_crowd.h"
#include "support/oracles.h"
#include "support/status_printing.h"

namespace crowdfusion::core {
namespace {

using common::ManualClock;

CrowdModel MakeCrowd(double pc) {
  auto crowd = CrowdModel::Create(pc);
  EXPECT_TRUE(crowd.ok());
  return std::move(crowd).value();
}

JointDistribution RandomMarginalJoint(int n, common::Rng& rng) {
  std::vector<double> marginals(static_cast<size_t>(n));
  for (double& m : marginals) m = rng.NextUniform(0.2, 0.8);
  auto joint = JointDistribution::FromIndependentMarginals(marginals);
  EXPECT_TRUE(joint.ok());
  return std::move(joint).value();
}

std::vector<bool> RandomTruths(int n, common::Rng& rng) {
  std::vector<bool> truths(static_cast<size_t>(n));
  for (size_t i = 0; i < truths.size(); ++i) {
    truths[i] = rng.NextBernoulli(0.5);
  }
  return truths;
}

/// One seeded multi-book workload: the joints and the zero-latency
/// deterministic crowds that answer them.
struct Workload {
  std::vector<JointDistribution> joints;
  std::vector<std::unique_ptr<crowd::SimulatedCrowd>> providers;
};

Workload MakeWorkload(uint64_t seed) {
  Workload workload;
  common::Rng rng(seed * 7919 + 13);
  const int num_instances = 2 + static_cast<int>(rng.NextBounded(3));
  for (int i = 0; i < num_instances; ++i) {
    const int n = 3 + static_cast<int>(rng.NextBounded(3));
    workload.joints.push_back(RandomMarginalJoint(n, rng));
    workload.providers.push_back(std::make_unique<crowd::SimulatedCrowd>(
        crowd::SimulatedCrowd::WithUniformAccuracy(
            RandomTruths(n, rng), 0.8, seed * 131 + static_cast<uint64_t>(i))));
  }
  return workload;
}

struct SchedulerFixture {
  std::unique_ptr<BudgetScheduler> scheduler;
  std::vector<std::unique_ptr<crowd::SimulatedCrowd>> providers;
};

/// Registers a fresh MakeWorkload(seed) with a new scheduler: same seeds
/// everywhere, so any divergence between two runs is the scheduler's
/// doing.
SchedulerFixture MakeFixture(uint64_t seed, TaskSelector* selector,
                             BudgetScheduler::Options options) {
  SchedulerFixture fixture;
  auto scheduler = BudgetScheduler::Create(MakeCrowd(0.8), selector, options);
  EXPECT_TRUE(scheduler.ok());
  fixture.scheduler =
      std::make_unique<BudgetScheduler>(std::move(scheduler).value());
  Workload workload = MakeWorkload(seed);
  fixture.providers = std::move(workload.providers);
  for (size_t i = 0; i < workload.joints.size(); ++i) {
    auto id = fixture.scheduler->AddInstance(
        "book" + std::to_string(i), std::move(workload.joints[i]),
        fixture.providers[i].get());
    EXPECT_TRUE(id.ok());
  }
  return fixture;
}

/// The global-budget schedule written from scratch as the paper's
/// Figure-1 loop, with no selection cache, tickets or reservations: each
/// step re-selects every book in ascending order, spends on the best
/// per-task expected gain (strict >, so the first book wins ties),
/// submits one ticket, awaits it and merges.
struct ReferenceRun {
  std::vector<BudgetScheduler::StepRecord> records;
  std::vector<JointDistribution> joints;
  std::vector<int> costs;
};

ReferenceRun RunReference(uint64_t seed,
                          const BudgetScheduler::Options& options) {
  Workload workload = MakeWorkload(seed);
  const CrowdModel crowd = MakeCrowd(0.8);
  GreedySelector selector;
  ReferenceRun run;
  run.joints = std::move(workload.joints);
  run.costs.assign(run.joints.size(), 0);
  const auto total_utility = [&run] {
    double total = 0.0;
    for (const JointDistribution& joint : run.joints) {
      total += -joint.EntropyBits();
    }
    return total;
  };
  int spent = 0;
  while (spent < options.total_budget) {
    const int k =
        std::min(options.tasks_per_step, options.total_budget - spent);
    int best = -1;
    double best_gain = 0.0;
    Selection best_selection;
    for (size_t i = 0; i < run.joints.size(); ++i) {
      SelectionRequest request;
      request.joint = &run.joints[i];
      request.crowd = &crowd;
      request.k = k;
      auto selection = selector.Select(request);
      EXPECT_TRUE(selection.ok());
      if (selection->tasks.empty()) continue;  // no positive gain left
      const double tasks = static_cast<double>(selection->tasks.size());
      const double gain =
          (selection->entropy_bits - tasks * crowd.EntropyBits()) / tasks;
      if (best < 0 || gain > best_gain) {
        best = static_cast<int>(i);
        best_gain = gain;
        best_selection = *std::move(selection);
      }
    }
    BudgetScheduler::StepRecord record;
    record.step = static_cast<int>(run.records.size());
    record.instance = best;
    if (best >= 0) {
      const size_t b = static_cast<size_t>(best);
      const int tasks = static_cast<int>(best_selection.tasks.size());
      record.tasks = best_selection.tasks;
      record.expected_gain_bits =
          best_selection.entropy_bits - tasks * crowd.EntropyBits();
      auto ticket = workload.providers[b]->Submit(
          record.tasks, TicketOptions{.max_attempts = 1});
      EXPECT_TRUE(ticket.ok());
      auto answers = workload.providers[b]->Await(*ticket);
      EXPECT_TRUE(answers.ok());
      record.answers = *answers;
      auto posterior = PosteriorGivenAnswers(
          run.joints[b], AnswerSet{record.tasks, record.answers}, crowd);
      EXPECT_TRUE(posterior.ok());
      run.joints[b] = *std::move(posterior);
      spent += tasks;
      run.costs[b] += tasks;
    }
    record.cumulative_cost = spent;
    record.total_utility_bits = total_utility();
    run.records.push_back(std::move(record));
    if (best < 0) break;  // the exhaustion marker ends the run
  }
  return run;
}

/// With a zero-latency deterministic provider the serving loop must
/// reproduce the independent reference exactly — same step sequence,
/// task sets, answers, utilities and final joints — across many seeds,
/// at a window of 1 (the "blocking" spelling) and a wide window alike.
TEST(PipelinedSchedulerDifferentialTest, ZeroLatencyPipelinedEqualsReference) {
  constexpr int kSeeds = 32;
  for (const int window : {1, 4}) {
    for (uint64_t seed = 1; seed <= kSeeds; ++seed) {
      SCOPED_TRACE("window " + std::to_string(window) + " seed " +
                   std::to_string(seed));
      GreedySelector selector;
      BudgetScheduler::Options options;
      options.total_budget = 14;
      options.tasks_per_step = 1 + static_cast<int>(seed % 3);
      options.max_in_flight = window;

      const ReferenceRun reference = RunReference(seed, options);
      SchedulerFixture pipelined = MakeFixture(seed, &selector, options);
      auto records = pipelined.scheduler->RunPipelined();
      ASSERT_TRUE(records.ok()) << records.status();

      ASSERT_EQ(records->size(), reference.records.size());
      for (size_t s = 0; s < records->size(); ++s) {
        SCOPED_TRACE("step " + std::to_string(s));
        const auto& expected = reference.records[s];
        const auto& actual = (*records)[s];
        EXPECT_EQ(actual.step, expected.step);
        EXPECT_EQ(actual.instance, expected.instance);
        EXPECT_EQ(actual.tasks, expected.tasks);
        EXPECT_EQ(actual.answers, expected.answers);
        EXPECT_EQ(actual.expected_gain_bits, expected.expected_gain_bits);
        EXPECT_EQ(actual.total_utility_bits, expected.total_utility_bits);
        EXPECT_EQ(actual.cumulative_cost, expected.cumulative_cost);
      }
      ASSERT_EQ(pipelined.scheduler->num_instances(),
                static_cast<int>(reference.joints.size()));
      for (int i = 0; i < pipelined.scheduler->num_instances(); ++i) {
        const size_t r = static_cast<size_t>(i);
        EXPECT_EQ(pipelined.scheduler->cost_spent(i), reference.costs[r]);
        EXPECT_EQ(pipelined.scheduler->joint(i), reference.joints[r])
            << "instance " << i;
      }
    }
  }
}

/// Concurrent selection compute must be invisible in results: with a
/// ConcurrentSelectSafe selector (the greedy), running stale-book
/// refreshes on the shared pool in parallel has to reproduce the serial
/// sweep record-for-record — the overlap changes wall-clock only. Runs
/// a window of 1 and a wide window, so the concurrent refresh is
/// exercised from single-ticket and window-filling launch decisions.
TEST(PipelinedSchedulerDifferentialTest, ConcurrentSelectionEqualsSerial) {
  constexpr int kSeeds = 32;
  for (const int window : {1, 4}) {
    for (uint64_t seed = 1; seed <= kSeeds; ++seed) {
      GreedySelector selector;
      BudgetScheduler::Options options;
      options.total_budget = 14;
      options.tasks_per_step = 1 + static_cast<int>(seed % 3);
      options.max_in_flight = window;

      options.concurrent_selection = false;
      SchedulerFixture serial = MakeFixture(seed, &selector, options);
      auto serial_records = serial.scheduler->RunPipelined();
      ASSERT_TRUE(serial_records.ok()) << "seed " << seed;

      options.concurrent_selection = true;
      SchedulerFixture concurrent = MakeFixture(seed, &selector, options);
      auto concurrent_records = concurrent.scheduler->RunPipelined();
      ASSERT_TRUE(concurrent_records.ok()) << "seed " << seed;

      ASSERT_EQ(concurrent_records->size(), serial_records->size())
          << "seed " << seed;
      for (size_t s = 0; s < serial_records->size(); ++s) {
        SCOPED_TRACE("window " + std::to_string(window) + " seed " +
                     std::to_string(seed) + " step " + std::to_string(s));
        const auto& serial_step = (*serial_records)[s];
        const auto& concurrent_step = (*concurrent_records)[s];
        EXPECT_EQ(concurrent_step.instance, serial_step.instance);
        EXPECT_EQ(concurrent_step.tasks, serial_step.tasks);
        EXPECT_EQ(concurrent_step.answers, serial_step.answers);
        EXPECT_DOUBLE_EQ(concurrent_step.expected_gain_bits,
                         serial_step.expected_gain_bits);
        EXPECT_DOUBLE_EQ(concurrent_step.total_utility_bits,
                         serial_step.total_utility_bits);
      }
      EXPECT_EQ(concurrent.scheduler->total_cost_spent(),
                serial.scheduler->total_cost_spent());
      // Both runs log every Select() they actually ran.
      EXPECT_EQ(concurrent.scheduler->selection_compute_seconds().size(),
                serial.scheduler->selection_compute_seconds().size())
          << "seed " << seed;
    }
  }
}

/// Starvation regression: while a slow instance's ticket is in flight, the
/// other instances with positive gain must keep being scheduled — nobody
/// waits on someone else's latency.
TEST(PipelinedSchedulerTest, FastInstanceIsNotStarvedBySlowTicket) {
  ManualClock clock;
  GreedySelector selector;
  BudgetScheduler::Options options;
  options.total_budget = 10;
  options.tasks_per_step = 2;
  options.max_in_flight = 2;
  options.clock = &clock;
  options.max_poll_seconds = 1000.0;  // ManualClock: jump straight to ready
  auto scheduler = BudgetScheduler::Create(MakeCrowd(0.8), &selector, options);
  ASSERT_TRUE(scheduler.ok());

  // Instance 0: maximally uncertain (always wins the first pick) but its
  // crowd takes 500 virtual seconds per batch.
  auto slow_joint = Uniform(6);
  ASSERT_TRUE(slow_joint.ok());
  crowd::SimulatedCrowd slow_crowd = crowd::SimulatedCrowd::WithUniformAccuracy(
      {true, false, true, false, true, false}, 0.8, 7);
  crowd::LatencyOptions slow_latency;
  slow_latency.median_seconds = 500.0;
  slow_latency.sigma = 0.0;
  slow_crowd.ConfigureAsync(slow_latency, &clock);
  ASSERT_TRUE(scheduler
                  ->AddInstance("slow", std::move(slow_joint).value(),
                                &slow_crowd)
                  .ok());

  // Instance 1: less uncertain, but answers instantly.
  auto fast_joint = JointDistribution::FromIndependentMarginals(
      std::vector<double>{0.35, 0.65, 0.4, 0.6});
  ASSERT_TRUE(fast_joint.ok());
  crowd::SimulatedCrowd fast_crowd = crowd::SimulatedCrowd::WithUniformAccuracy(
      {true, true, false, false}, 0.8, 11);
  fast_crowd.ConfigureAsync(crowd::LatencyOptions{}, &clock);
  ASSERT_TRUE(scheduler
                  ->AddInstance("fast", std::move(fast_joint).value(),
                                &fast_crowd)
                  .ok());

  auto records = scheduler->RunPipelined();
  ASSERT_TRUE(records.ok());
  ASSERT_FALSE(records->empty());

  // The fast instance must land merges before the slow ticket does.
  int fast_merges_before_first_slow = 0;
  bool slow_seen = false;
  for (const auto& record : *records) {
    if (record.instance == 0) {
      slow_seen = true;
      break;
    }
    if (record.instance == 1) ++fast_merges_before_first_slow;
  }
  EXPECT_TRUE(slow_seen) << "slow ticket never landed";
  EXPECT_GE(fast_merges_before_first_slow, 1)
      << "fast instance starved behind the slow ticket";
  // Both instances got budget and the global budget was fully spent.
  EXPECT_EQ(scheduler->total_cost_spent(), 10);
  EXPECT_GT(scheduler->cost_spent(0), 0);
  EXPECT_GT(scheduler->cost_spent(1), 0);
}

/// Overlap accounting: in-flight reservations must never oversubscribe the
/// global budget even when the window is wider than what remains.
TEST(PipelinedSchedulerTest, InFlightReservationsRespectBudget) {
  ManualClock clock;
  GreedySelector selector;
  BudgetScheduler::Options options;
  options.total_budget = 6;
  options.tasks_per_step = 2;
  options.max_in_flight = 8;  // wider than budget/tasks_per_step
  options.clock = &clock;
  options.max_poll_seconds = 1000.0;
  auto scheduler = BudgetScheduler::Create(MakeCrowd(0.8), &selector, options);
  ASSERT_TRUE(scheduler.ok());

  std::vector<std::unique_ptr<crowd::SimulatedCrowd>> crowds;
  for (int i = 0; i < 5; ++i) {
    auto joint = Uniform(4);
    ASSERT_TRUE(joint.ok());
    crowds.push_back(std::make_unique<crowd::SimulatedCrowd>(
        crowd::SimulatedCrowd::WithUniformAccuracy(
            {true, false, true, false}, 0.8, 100 + static_cast<uint64_t>(i))));
    crowd::LatencyOptions latency;
    latency.median_seconds = 50.0;
    latency.sigma = 0.0;
    crowds.back()->ConfigureAsync(latency, &clock);
    ASSERT_TRUE(scheduler
                    ->AddInstance("book" + std::to_string(i),
                                  std::move(joint).value(),
                                  crowds.back().get())
                    .ok());
  }

  auto records = scheduler->RunPipelined();
  ASSERT_TRUE(records.ok());
  EXPECT_EQ(scheduler->total_cost_spent(), 6);
  int merged_tasks = 0;
  for (const auto& record : *records) {
    if (record.instance >= 0) {
      merged_tasks += static_cast<int>(record.tasks.size());
    }
  }
  EXPECT_EQ(merged_tasks, 6);
}

/// Regression: a selection cached under a larger k must never overspend a
/// budget that is not a multiple of tasks_per_step (stale-k cache bug).
TEST(PipelinedSchedulerTest, NonMultipleBudgetIsNeverOverspent) {
  for (const int window : {1, 4}) {
    GreedySelector selector;
    BudgetScheduler::Options options;
    options.total_budget = 7;  // not a multiple of tasks_per_step
    options.tasks_per_step = 2;
    options.max_in_flight = window;
    auto scheduler =
        BudgetScheduler::Create(MakeCrowd(0.8), &selector, options);
    ASSERT_TRUE(scheduler.ok());
    std::vector<std::unique_ptr<crowd::SimulatedCrowd>> crowds;
    for (int i = 0; i < 3; ++i) {
      auto joint = Uniform(5);
      ASSERT_TRUE(joint.ok());
      crowds.push_back(std::make_unique<crowd::SimulatedCrowd>(
          crowd::SimulatedCrowd::WithUniformAccuracy(
              {true, false, true, false, true}, 0.8,
              50 + static_cast<uint64_t>(i))));
      ASSERT_TRUE(scheduler
                      ->AddInstance("book" + std::to_string(i),
                                    std::move(joint).value(),
                                    crowds[static_cast<size_t>(i)].get())
                      .ok());
    }
    auto records = scheduler->RunPipelined();
    ASSERT_TRUE(records.ok());
    EXPECT_EQ(scheduler->total_cost_spent(), 7) << "window " << window;
  }
}

/// Regression: a pipelined run aborted with tickets still outstanding must
/// not leave instances stuck in_flight — a rerun has to schedule them
/// again (and the abandoned tickets must be released).
TEST(PipelinedSchedulerTest, RerunRecoversAfterAbortedPipelinedRun) {
  ManualClock clock;
  GreedySelector selector;
  BudgetScheduler::Options options;
  options.total_budget = 8;
  options.tasks_per_step = 2;
  options.max_in_flight = 2;
  options.clock = &clock;
  options.max_poll_seconds = 1000.0;
  auto scheduler = BudgetScheduler::Create(MakeCrowd(0.8), &selector, options);
  ASSERT_TRUE(scheduler.ok());

  // Instance 0: highest gain, slow and healthy — in flight when the run
  // aborts. Instance 1: lower gain, fast but terminally failing.
  auto healthy_joint = Uniform(6);
  ASSERT_TRUE(healthy_joint.ok());
  crowd::SimulatedCrowd healthy = crowd::SimulatedCrowd::WithUniformAccuracy(
      {true, false, true, false, true, false}, 0.8, 3);
  crowd::LatencyOptions slow_latency;
  slow_latency.median_seconds = 50.0;
  slow_latency.sigma = 0.0;
  healthy.ConfigureAsync(slow_latency, &clock);
  ASSERT_TRUE(scheduler
                  ->AddInstance("healthy",
                                std::move(healthy_joint).value(), &healthy)
                  .ok());

  auto doomed_joint = Uniform(3);
  ASSERT_TRUE(doomed_joint.ok());
  crowd::SimulatedCrowd doomed = crowd::SimulatedCrowd::WithUniformAccuracy(
      {true, false, true}, 0.8, 4);
  crowd::LatencyOptions failing_latency;
  failing_latency.median_seconds = 1.0;
  failing_latency.sigma = 0.0;
  failing_latency.failure_probability = 1.0;
  doomed.ConfigureAsync(failing_latency, &clock);
  ASSERT_TRUE(scheduler
                  ->AddInstance("doomed", std::move(doomed_joint).value(),
                                &doomed)
                  .ok());

  // Healthy (higher gain) launches first and is pending for 50s; doomed
  // launches second, fails at t=1, and aborts the run with healthy still
  // in flight.
  auto aborted = scheduler->RunPipelined();
  ASSERT_FALSE(aborted.ok());

  // Once the doomed crowd recovers, a rerun must serve the healthy
  // instance again rather than skip it as "in flight", and spend the
  // whole budget (the abandoned reservation was released).
  crowd::LatencyOptions recovered_latency = failing_latency;
  recovered_latency.failure_probability = 0.0;
  doomed.ConfigureAsync(recovered_latency, &clock);
  auto rerun = scheduler->RunPipelined();
  ASSERT_TRUE(rerun.ok()) << rerun.status().ToString();
  bool healthy_merged = false;
  for (const auto& record : *rerun) {
    if (record.instance == 0 && !record.tasks.empty()) healthy_merged = true;
  }
  EXPECT_TRUE(healthy_merged);
  EXPECT_GT(scheduler->cost_spent(0), 0);
  EXPECT_EQ(scheduler->total_cost_spent(), 8);
}

/// A terminally failing ticket aborts the pipelined run with its status.
TEST(PipelinedSchedulerTest, TerminalTicketFailureAbortsTheRun) {
  ManualClock clock;
  GreedySelector selector;
  BudgetScheduler::Options options;
  options.total_budget = 4;
  options.clock = &clock;
  options.max_poll_seconds = 1000.0;
  options.ticket.max_attempts = 2;
  auto scheduler = BudgetScheduler::Create(MakeCrowd(0.8), &selector, options);
  ASSERT_TRUE(scheduler.ok());

  auto joint = Uniform(3);
  ASSERT_TRUE(joint.ok());
  crowd::SimulatedCrowd crowd = crowd::SimulatedCrowd::WithUniformAccuracy(
      {true, false, true}, 0.8, 5);
  crowd::LatencyOptions latency;
  latency.median_seconds = 1.0;
  latency.sigma = 0.0;
  latency.failure_probability = 1.0;  // every attempt fails
  crowd.ConfigureAsync(latency, &clock);
  ASSERT_TRUE(
      scheduler->AddInstance("doomed", std::move(joint).value(), &crowd)
          .ok());

  auto records = scheduler->RunPipelined();
  ASSERT_FALSE(records.ok());
  EXPECT_EQ(records.status().code(), common::StatusCode::kUnavailable);
}

}  // namespace
}  // namespace crowdfusion::core
