/// BudgetScheduler::Options::on_ticket_failure: under kAbort a terminally
/// failed ticket still kills the whole run (the historical contract);
/// under kSkipInstance it kills only its instance — the run continues,
/// budget reservations are released, and healthy instances finish their
/// work. The policy holds for every window size, the "blocking" wire
/// spelling (a window of 1) included.

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "common/clock.h"
#include "core/greedy_selector.h"
#include "core/scheduler.h"
#include "core/scripted_provider.h"
#include "crowd/simulated_crowd.h"
#include "service/fusion_service.h"
#include "service/request_json.h"
#include "support/status_printing.h"

namespace crowdfusion::core {
namespace {

using common::ManualClock;

CrowdModel MakeCrowd() {
  auto crowd = CrowdModel::Create(0.8);
  EXPECT_TRUE(crowd.ok());
  return std::move(crowd).value();
}

JointDistribution SmallJoint() {
  const std::vector<double> marginals = {0.4, 0.55, 0.6};
  auto joint = JointDistribution::FromIndependentMarginals(marginals);
  EXPECT_TRUE(joint.ok());
  return std::move(joint).value();
}

struct Fixture {
  GreedySelector selector;
  ScriptedProvider doomed{ScriptedProvider::Options{
      .script = {true, false, true}, .failures_before_success = 1000000}};
  ScriptedProvider healthy{
      ScriptedProvider::Options{.script = {true, false, true}}};
  std::unique_ptr<BudgetScheduler> scheduler;

  explicit Fixture(BudgetScheduler::TicketFailurePolicy policy,
                   int total_budget = 6) {
    BudgetScheduler::Options options;
    options.total_budget = total_budget;
    options.tasks_per_step = 1;
    options.max_in_flight = 2;
    options.on_ticket_failure = policy;
    auto scheduler =
        BudgetScheduler::Create(MakeCrowd(), &selector, options);
    EXPECT_TRUE(scheduler.ok());
    this->scheduler =
        std::make_unique<BudgetScheduler>(std::move(scheduler).value());
    EXPECT_TRUE(
        this->scheduler->AddInstance("doomed", SmallJoint(), &doomed).ok());
    EXPECT_TRUE(
        this->scheduler->AddInstance("healthy", SmallJoint(), &healthy).ok());
  }
};

TEST(FailurePolicyTest, AbortIsTheDefaultAndStopsTheRun) {
  BudgetScheduler::Options defaults;
  EXPECT_EQ(defaults.on_ticket_failure,
            BudgetScheduler::TicketFailurePolicy::kAbort);

  Fixture fixture(BudgetScheduler::TicketFailurePolicy::kAbort);
  auto records = fixture.scheduler->RunPipelined();
  ASSERT_FALSE(records.ok());
  EXPECT_EQ(records.status().code(), common::StatusCode::kUnavailable);
  EXPECT_EQ(fixture.scheduler->dead_instances(), 0);
}

TEST(FailurePolicyTest, SkipInstanceKeepsServingTheHealthyInstance) {
  Fixture fixture(BudgetScheduler::TicketFailurePolicy::kSkipInstance);
  auto records = fixture.scheduler->RunPipelined();
  ASSERT_TRUE(records.ok()) << records.status();

  EXPECT_EQ(fixture.scheduler->dead_instances(), 1);
  EXPECT_TRUE(fixture.scheduler->instance_dead(0));
  EXPECT_FALSE(fixture.scheduler->instance_dead(1));

  // Every merged record belongs to the healthy instance, and the doomed
  // one spent nothing (its reservation was released, not leaked).
  EXPECT_FALSE(records->empty());
  for (const auto& record : *records) {
    if (record.instance < 0) continue;  // exhaustion marker
    EXPECT_EQ(record.instance, 1);
  }
  EXPECT_EQ(fixture.scheduler->cost_spent(0), 0);
  EXPECT_GT(fixture.scheduler->cost_spent(1), 0);
  EXPECT_EQ(fixture.scheduler->total_cost_spent(),
            fixture.scheduler->cost_spent(1));
  // The healthy instance's joint was refined; the doomed one's was not.
  EXPECT_NE(fixture.scheduler->joint(1), SmallJoint());
  EXPECT_EQ(fixture.scheduler->joint(0), SmallJoint());
  // The failing provider was tried exactly once (scheduler tickets
  // default to a single attempt).
  EXPECT_EQ(fixture.doomed.calls(), 1);
}

TEST(FailurePolicyTest, AllInstancesDeadEndsTheRunCleanly) {
  GreedySelector selector;
  ScriptedProvider doomed_a{ScriptedProvider::Options{
      .script = {true, false, true}, .failures_before_success = 1000000}};
  ScriptedProvider doomed_b{ScriptedProvider::Options{
      .script = {true, false, true}, .failures_before_success = 1000000}};
  BudgetScheduler::Options options;
  options.total_budget = 6;
  options.max_in_flight = 2;
  options.on_ticket_failure =
      BudgetScheduler::TicketFailurePolicy::kSkipInstance;
  auto scheduler = BudgetScheduler::Create(MakeCrowd(), &selector, options);
  ASSERT_TRUE(scheduler.ok());
  ASSERT_TRUE(scheduler->AddInstance("a", SmallJoint(), &doomed_a).ok());
  ASSERT_TRUE(scheduler->AddInstance("b", SmallJoint(), &doomed_b).ok());
  auto records = scheduler->RunPipelined();
  ASSERT_TRUE(records.ok()) << records.status();
  EXPECT_EQ(scheduler->dead_instances(), 2);
  EXPECT_EQ(scheduler->total_cost_spent(), 0);
  // Only the exhaustion marker may remain.
  for (const auto& record : *records) {
    EXPECT_EQ(record.instance, -1);
  }
}

TEST(FailurePolicyTest, DeadlineExpiredTicketIsSkippedToo) {
  // A latency-simulating crowd whose answers land after 10 s against a
  // 1 s ticket deadline: the ticket fails by deadline, not by outage.
  ManualClock clock;
  GreedySelector selector;
  crowd::SimulatedCrowd slow = crowd::SimulatedCrowd::WithUniformAccuracy(
      {true, false, true}, 0.8, 7);
  crowd::LatencyOptions latency;
  latency.median_seconds = 10.0;
  latency.sigma = 0.0;
  slow.ConfigureAsync(latency, &clock);
  crowd::SimulatedCrowd fast = crowd::SimulatedCrowd::WithUniformAccuracy(
      {true, false, true}, 0.8, 8);
  crowd::LatencyOptions instant;
  instant.median_seconds = 0.001;
  instant.sigma = 0.0;
  fast.ConfigureAsync(instant, &clock);

  BudgetScheduler::Options options;
  options.total_budget = 4;
  options.max_in_flight = 2;
  options.clock = &clock;
  options.ticket.deadline_seconds = 1.0;
  options.on_ticket_failure =
      BudgetScheduler::TicketFailurePolicy::kSkipInstance;
  auto scheduler = BudgetScheduler::Create(MakeCrowd(), &selector, options);
  ASSERT_TRUE(scheduler.ok());
  ASSERT_TRUE(scheduler->AddInstance("slow", SmallJoint(), &slow).ok());
  ASSERT_TRUE(scheduler->AddInstance("fast", SmallJoint(), &fast).ok());

  auto records = scheduler->RunPipelined();
  ASSERT_TRUE(records.ok()) << records.status();
  EXPECT_EQ(scheduler->dead_instances(), 1);
  EXPECT_TRUE(scheduler->instance_dead(0));
  EXPECT_GT(scheduler->cost_spent(1), 0);
  EXPECT_EQ(scheduler->cost_spent(0), 0);
}

/// "scripted" answers with the bound gold labels, except that instance 0
/// (seed base 0 + index 0) fails every attempt.
common::Result<std::shared_ptr<AsyncAnswerProvider>> MakeFlakyProvider(
    const ProviderSpec& spec) {
  ScriptedProvider::Options options;
  options.script = spec.truths;
  options.failures_before_success = spec.seed == 0 ? 1000000 : 0;
  return std::shared_ptr<AsyncAnswerProvider>(
      std::make_shared<ScriptedProvider>(std::move(options)));
}

TEST(FailurePolicyTest, BlockingSpellingHonoursSkipInstance) {
  service::FusionService service;
  ASSERT_TRUE(service.providers().Register("flaky", MakeFlakyProvider).ok());

  // The doomed instance is the most uncertain, so it is picked first; the
  // two healthy ones hold more positive-gain tasks than the budget.
  service::FusionRequest request;
  request.mode = service::RunMode::kPipelined;
  const std::vector<std::vector<double>> marginals = {
      {0.5, 0.5, 0.5},
      {0.4, 0.55, 0.6, 0.45, 0.65},
      {0.6, 0.35, 0.5, 0.55, 0.42},
  };
  for (size_t i = 0; i < marginals.size(); ++i) {
    service::InstanceSpec instance;
    instance.name = "book" + std::to_string(i);
    auto joint = JointDistribution::FromIndependentMarginals(marginals[i]);
    ASSERT_TRUE(joint.ok());
    instance.joint = std::move(joint).value();
    instance.truths.assign(marginals[i].size(), true);
    request.instances.push_back(std::move(instance));
  }
  request.selector.kind = "greedy";
  request.provider.kind = "flaky";
  request.budget.budget_per_instance = 2;
  request.pipeline.on_ticket_failure =
      BudgetScheduler::TicketFailurePolicy::kSkipInstance;
  common::JsonValue json = service::FusionRequestToJson(request);
  json.Set("mode", "blocking");
  auto parsed = service::FusionRequestFromJson(json);
  ASSERT_TRUE(parsed.ok()) << parsed.status();

  auto response = service.Run(*std::move(parsed));
  ASSERT_TRUE(response.ok()) << response.status();
  EXPECT_EQ(response->dead_instances, 1);
  ASSERT_EQ(response->instances.size(), 3u);
  EXPECT_TRUE(response->instances[0].dead);
  EXPECT_EQ(response->instances[0].cost_spent, 0);
  EXPECT_EQ(response->total_cost_spent, 6);
  EXPECT_EQ(response->instances[1].cost_spent +
                response->instances[2].cost_spent,
            6);
}

}  // namespace
}  // namespace crowdfusion::core
