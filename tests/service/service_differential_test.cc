/// The facade's zero-behavior-change pin: across 32 seeds,
/// FusionService-built runs reproduce the corresponding direct-API runs
/// bit-for-bit — engine mode against hand-wired CrowdFusionEngines,
/// pipelined mode against BudgetScheduler::RunPipelined — on records,
/// answers, utilities, and final joints, and the "blocking" wire spelling
/// is exactly a pipelined request with a window of 1. The service must
/// add an API, not a behavior.

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "common/random.h"
#include "core/greedy_selector.h"
#include "core/scheduler.h"
#include "crowd/simulated_crowd.h"
#include "service/fusion_service.h"
#include "service/request_json.h"
#include "support/status_printing.h"

namespace crowdfusion::service {
namespace {

constexpr int kSeeds = 32;
constexpr double kPc = 0.8;

core::CrowdModel MakeCrowd() {
  auto crowd = core::CrowdModel::Create(kPc);
  EXPECT_TRUE(crowd.ok());
  return std::move(crowd).value();
}

/// One seeded multi-book workload; both the direct and the service run
/// are built from exactly this data.
struct Workload {
  std::vector<std::string> names;
  std::vector<core::JointDistribution> joints;
  std::vector<std::vector<bool>> truths;
  int budget_per_instance = 0;
  int tasks_per_step = 0;
  int max_in_flight = 0;
  uint64_t provider_seed_base = 0;
};

Workload MakeWorkload(uint64_t seed) {
  Workload workload;
  common::Rng rng(seed * 7919 + 13);
  const int num_instances = 2 + static_cast<int>(rng.NextBounded(3));
  for (int i = 0; i < num_instances; ++i) {
    const int n = 3 + static_cast<int>(rng.NextBounded(3));
    std::vector<double> marginals(static_cast<size_t>(n));
    for (double& m : marginals) m = rng.NextUniform(0.2, 0.8);
    auto joint = core::JointDistribution::FromIndependentMarginals(marginals);
    EXPECT_TRUE(joint.ok());
    workload.joints.push_back(std::move(joint).value());
    workload.names.push_back("book" + std::to_string(i));
    std::vector<bool> truths(static_cast<size_t>(n));
    for (size_t f = 0; f < truths.size(); ++f) {
      truths[f] = rng.NextBernoulli(0.5);
    }
    workload.truths.push_back(std::move(truths));
  }
  workload.budget_per_instance = 4 + static_cast<int>(seed % 3);
  workload.tasks_per_step = 1 + static_cast<int>(seed % 2);
  workload.max_in_flight = 2 + static_cast<int>(seed % 3);
  workload.provider_seed_base = seed * 131;
  return workload;
}

std::vector<std::unique_ptr<crowd::SimulatedCrowd>> MakeCrowds(
    const Workload& workload) {
  std::vector<std::unique_ptr<crowd::SimulatedCrowd>> crowds;
  for (size_t i = 0; i < workload.joints.size(); ++i) {
    crowds.push_back(std::make_unique<crowd::SimulatedCrowd>(
        crowd::SimulatedCrowd::WithUniformAccuracy(
            workload.truths[i], kPc,
            workload.provider_seed_base + static_cast<uint64_t>(i))));
  }
  return crowds;
}

core::GreedySelector::Options GreedyOptions() {
  core::GreedySelector::Options options;
  options.use_pruning = true;
  options.use_preprocessing = true;
  return options;
}

FusionRequest MakeRequest(const Workload& workload, RunMode mode) {
  FusionRequest request;
  request.mode = mode;
  for (size_t i = 0; i < workload.joints.size(); ++i) {
    InstanceSpec instance;
    instance.name = workload.names[i];
    instance.joint = workload.joints[i];
    instance.truths = workload.truths[i];
    request.instances.push_back(std::move(instance));
  }
  request.selector.kind = "greedy";
  request.selector.use_pruning = true;
  request.selector.use_preprocessing = true;
  request.provider.kind = "simulated_crowd";
  request.provider.accuracy = kPc;
  request.provider.seed = workload.provider_seed_base;
  request.assumed_pc = kPc;
  request.budget.budget_per_instance = workload.budget_per_instance;
  request.budget.tasks_per_step = workload.tasks_per_step;
  request.pipeline.max_in_flight = workload.max_in_flight;
  return request;
}

/// Runs a service request to completion and returns (session, outcomes).
std::unique_ptr<Session> RunService(const FusionRequest& request,
                                    uint64_t seed) {
  FusionService service;
  auto session = service.CreateSession(request);
  EXPECT_TRUE(session.ok()) << "seed " << seed << ": " << session.status();
  while (!(*session)->done()) {
    auto outcomes = (*session)->Step();
    EXPECT_TRUE(outcomes.ok()) << "seed " << seed << ": "
                               << outcomes.status();
    if (!outcomes.ok()) break;
  }
  return std::move(session).value();
}

TEST(ServiceDifferentialTest, EngineModeReproducesDirectEngines) {
  for (uint64_t seed = 1; seed <= kSeeds; ++seed) {
    const Workload workload = MakeWorkload(seed);

    // Direct: one hand-wired engine per book, advanced round-robin (the
    // exact schedule the session runs).
    auto crowds = MakeCrowds(workload);
    core::GreedySelector selector(GreedyOptions());
    const core::CrowdModel crowd = MakeCrowd();
    std::vector<core::CrowdFusionEngine> engines;
    std::vector<bool> exhausted(workload.joints.size(), false);
    for (size_t i = 0; i < workload.joints.size(); ++i) {
      core::EngineOptions options;
      options.budget = workload.budget_per_instance;
      options.tasks_per_round = workload.tasks_per_step;
      auto engine = core::CrowdFusionEngine::Create(
          workload.joints[i], crowd, &selector, crowds[i].get(), options);
      ASSERT_TRUE(engine.ok());
      engines.push_back(std::move(engine).value());
    }
    std::vector<std::vector<core::RoundRecord>> direct_records(
        engines.size());
    bool progressed = true;
    while (progressed) {
      progressed = false;
      for (size_t i = 0; i < engines.size(); ++i) {
        if (exhausted[i] || !engines[i].HasBudget()) continue;
        auto record = engines[i].RunRound();
        ASSERT_TRUE(record.ok());
        if (record->tasks.empty()) exhausted[i] = true;
        direct_records[i].push_back(std::move(record).value());
        progressed = true;
      }
    }

    // Service: the same workload through the typed API.
    const std::unique_ptr<Session> session =
        RunService(MakeRequest(workload, RunMode::kEngine), seed);

    std::vector<std::vector<StepOutcome>> service_records(engines.size());
    for (const StepOutcome& outcome : session->steps()) {
      ASSERT_GE(outcome.instance, 0);
      service_records[static_cast<size_t>(outcome.instance)].push_back(
          outcome);
    }
    for (size_t i = 0; i < engines.size(); ++i) {
      ASSERT_EQ(direct_records[i].size(), service_records[i].size())
          << "seed " << seed << " instance " << i;
      for (size_t r = 0; r < direct_records[i].size(); ++r) {
        const core::RoundRecord& direct = direct_records[i][r];
        const StepOutcome& served = service_records[i][r];
        EXPECT_EQ(direct.round, served.round) << "seed " << seed;
        EXPECT_EQ(direct.tasks, served.tasks) << "seed " << seed;
        EXPECT_EQ(direct.answers, served.answers) << "seed " << seed;
        EXPECT_EQ(direct.selected_entropy_bits,
                  served.selected_entropy_bits)
            << "seed " << seed;
        EXPECT_EQ(direct.utility_bits, served.utility_bits)
            << "seed " << seed;
        EXPECT_EQ(direct.cumulative_cost, served.cumulative_cost)
            << "seed " << seed;
      }
      // Final joints bit-for-bit.
      EXPECT_EQ(engines[i].current(), session->joint(static_cast<int>(i)))
          << "seed " << seed << " instance " << i;
      EXPECT_EQ(engines[i].cost_spent(),
                session->cost_spent(static_cast<int>(i)))
          << "seed " << seed;
    }
  }
}

void ExpectStepRecordsEqual(
    const std::vector<core::BudgetScheduler::StepRecord>& direct,
    const std::vector<StepOutcome>& served, uint64_t seed) {
  ASSERT_EQ(direct.size(), served.size()) << "seed " << seed;
  for (size_t i = 0; i < direct.size(); ++i) {
    EXPECT_EQ(direct[i].step, served[i].step) << "seed " << seed;
    EXPECT_EQ(direct[i].instance, served[i].instance) << "seed " << seed;
    EXPECT_EQ(direct[i].tasks, served[i].tasks) << "seed " << seed;
    EXPECT_EQ(direct[i].answers, served[i].answers) << "seed " << seed;
    EXPECT_EQ(direct[i].expected_gain_bits, served[i].expected_gain_bits)
        << "seed " << seed;
    EXPECT_EQ(direct[i].total_utility_bits, served[i].utility_bits)
        << "seed " << seed;
    EXPECT_EQ(direct[i].cumulative_cost, served[i].cumulative_cost)
        << "seed " << seed;
  }
}

/// Direct scheduler fixture shared by the pipelined pins.
struct DirectSchedulerRun {
  std::vector<std::unique_ptr<crowd::SimulatedCrowd>> crowds;
  std::unique_ptr<core::GreedySelector> selector;
  std::unique_ptr<core::BudgetScheduler> scheduler;
};

DirectSchedulerRun MakeDirectScheduler(const Workload& workload) {
  DirectSchedulerRun run;
  run.crowds = MakeCrowds(workload);
  run.selector = std::make_unique<core::GreedySelector>(GreedyOptions());
  core::BudgetScheduler::Options options;
  options.total_budget = workload.budget_per_instance *
                         static_cast<int>(workload.joints.size());
  options.tasks_per_step = workload.tasks_per_step;
  options.max_in_flight = workload.max_in_flight;
  auto scheduler = core::BudgetScheduler::Create(MakeCrowd(),
                                                 run.selector.get(), options);
  EXPECT_TRUE(scheduler.ok());
  run.scheduler =
      std::make_unique<core::BudgetScheduler>(std::move(scheduler).value());
  for (size_t i = 0; i < workload.joints.size(); ++i) {
    auto id = run.scheduler->AddInstance(workload.names[i], workload.joints[i],
                                         run.crowds[i].get());
    EXPECT_TRUE(id.ok());
  }
  return run;
}

/// "blocking" is an alias: the JSON request spelled that way is a
/// pipelined request with a window of 1, and its session serves the same
/// steps bit for bit (and the same as a direct window-1 scheduler run).
TEST(ServiceDifferentialTest, BlockingModeReproducesSchedulerRun) {
  for (uint64_t seed = 1; seed <= kSeeds; ++seed) {
    Workload workload = MakeWorkload(seed);
    common::JsonValue json =
        FusionRequestToJson(MakeRequest(workload, RunMode::kPipelined));
    json.Set("mode", "blocking");
    auto blocking = FusionRequestFromJson(json);
    ASSERT_TRUE(blocking.ok()) << "seed " << seed << ": "
                               << blocking.status();
    workload.max_in_flight = 1;
    const FusionRequest window_one =
        MakeRequest(workload, RunMode::kPipelined);
    EXPECT_EQ(*blocking, window_one) << "seed " << seed;

    const std::unique_ptr<Session> blocking_session =
        RunService(*blocking, seed);
    const std::unique_ptr<Session> window_one_session =
        RunService(window_one, seed);
    // Everything but the wall-clock latency stamp, bit for bit.
    std::vector<StepOutcome> blocking_steps = blocking_session->steps();
    std::vector<StepOutcome> window_one_steps = window_one_session->steps();
    for (auto* steps : {&blocking_steps, &window_one_steps}) {
      for (StepOutcome& step : *steps) step.latency_seconds = 0.0;
    }
    EXPECT_EQ(blocking_steps, window_one_steps) << "seed " << seed;

    DirectSchedulerRun direct = MakeDirectScheduler(workload);
    auto direct_records = direct.scheduler->RunPipelined();
    ASSERT_TRUE(direct_records.ok()) << "seed " << seed;
    ExpectStepRecordsEqual(*direct_records, blocking_session->steps(), seed);
    for (int i = 0; i < blocking_session->num_instances(); ++i) {
      EXPECT_EQ(direct.scheduler->joint(i), blocking_session->joint(i))
          << "seed " << seed << " instance " << i;
    }
    EXPECT_EQ(direct.scheduler->total_cost_spent(),
              blocking_session->total_cost_spent())
        << "seed " << seed;
  }
}

TEST(ServiceDifferentialTest, PipelinedModeReproducesSchedulerRunPipelined) {
  for (uint64_t seed = 1; seed <= kSeeds; ++seed) {
    const Workload workload = MakeWorkload(seed);
    DirectSchedulerRun direct = MakeDirectScheduler(workload);
    auto direct_records = direct.scheduler->RunPipelined();
    ASSERT_TRUE(direct_records.ok()) << "seed " << seed;

    const std::unique_ptr<Session> session =
        RunService(MakeRequest(workload, RunMode::kPipelined), seed);
    ExpectStepRecordsEqual(*direct_records, session->steps(), seed);
    for (int i = 0; i < session->num_instances(); ++i) {
      EXPECT_EQ(direct.scheduler->joint(i), session->joint(i))
          << "seed " << seed << " instance " << i;
    }
  }
}

/// The request itself must survive the wire: parse(serialize(r)) == r for
/// every seeded differential request, inline joints included.
TEST(ServiceDifferentialTest, DifferentialRequestsRoundTripThroughJson) {
  for (uint64_t seed = 1; seed <= kSeeds; ++seed) {
    const Workload workload = MakeWorkload(seed);
    for (const RunMode mode : {RunMode::kEngine, RunMode::kPipelined}) {
      const FusionRequest request = MakeRequest(workload, mode);
      auto reparsed = ParseFusionRequest(SerializeFusionRequest(request));
      ASSERT_TRUE(reparsed.ok()) << "seed " << seed << ": "
                                 << reparsed.status();
      EXPECT_EQ(request, *reparsed) << "seed " << seed;
    }
  }
}

}  // namespace
}  // namespace crowdfusion::service
