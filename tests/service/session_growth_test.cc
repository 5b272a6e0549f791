/// Session growth contract (ISSUE PR 7 satellite): the universe may gain
/// instances mid-run via Session::AddInstances. Pins the budget
/// accounting per mode (engine grants budget_per_instance per arrival
/// and rejects additional_budget; schedulers bank additional_budget
/// globally), done-state revival, arrival validation, and that a grown
/// session keeps serving the ORIGINAL instances' streams untouched while
/// the arrivals get their own per-index provider seeds.

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "service/fusion_service.h"
#include "support/status_printing.h"

namespace crowdfusion::service {
namespace {

using common::StatusCode;

InstanceSpec MakeInstance(const std::string& name,
                          const std::vector<double>& marginals,
                          std::vector<bool> truths) {
  InstanceSpec instance;
  instance.name = name;
  auto joint = core::JointDistribution::FromIndependentMarginals(marginals);
  EXPECT_TRUE(joint.ok());
  instance.joint = std::move(joint).value();
  instance.truths = std::move(truths);
  return instance;
}

FusionRequest GrowableRequest(RunMode mode) {
  FusionRequest request;
  request.mode = mode;
  request.instances.push_back(
      MakeInstance("base0", {0.4, 0.6, 0.3}, {true, false, true}));
  request.instances.push_back(
      MakeInstance("base1", {0.7, 0.35, 0.55}, {false, true, false}));
  request.selector.kind = "greedy";
  request.selector.use_pruning = true;
  request.selector.use_preprocessing = true;
  request.provider.kind = "simulated_crowd";
  request.provider.accuracy = 0.8;
  request.provider.seed = 4242;
  request.assumed_pc = 0.8;
  request.budget.budget_per_instance = 3;
  request.budget.tasks_per_step = 1;
  return request;
}

/// The creating service must outlive its sessions (AddInstances binds
/// arrivals through the service's provider registry), so the fixture
/// owns it.
class SessionGrowthTest : public ::testing::Test {
 protected:
  std::unique_ptr<Session> CreateOrDie(const FusionRequest& request) {
    auto session = service_.CreateSession(request);
    EXPECT_TRUE(session.ok()) << session.status();
    return std::move(session).value();
  }

  void Drain(Session& session) {
    while (!session.done()) {
      auto outcomes = session.Step();
      ASSERT_TRUE(outcomes.ok()) << outcomes.status();
    }
  }

  FusionService service_;
};

TEST_F(SessionGrowthTest, EngineArrivalGrantsBudgetAndRevivesTheRun) {
  auto session = CreateOrDie(GrowableRequest(RunMode::kEngine));
  Drain(*session);
  EXPECT_TRUE(session->done());
  const int cost_before = session->total_cost_spent();
  EXPECT_EQ(session->Poll().total_budget, 6);

  const size_t steps_before = session->steps().size();
  auto first = session->AddInstances(
      {MakeInstance("late", {0.45, 0.65, 0.25, 0.6}, {true, true, false,
                                                      false})});
  ASSERT_TRUE(first.ok()) << first.status();
  EXPECT_EQ(*first, 2);
  EXPECT_EQ(session->num_instances(), 3);
  EXPECT_FALSE(session->done());
  // The arrival banked its own budget_per_instance.
  EXPECT_EQ(session->Poll().total_budget, 9);

  Drain(*session);
  // Only the arrival spent anything new, and only from its own grant.
  EXPECT_EQ(session->cost_spent(2), session->total_cost_spent() - cost_before);
  EXPECT_GT(session->cost_spent(2), 0);
  EXPECT_LE(session->cost_spent(2), 3);
  // Every post-arrival step belongs to the new instance: the exhausted
  // originals are not re-selected, so their streams stay untouched.
  ASSERT_GT(session->steps().size(), steps_before);
  for (size_t i = steps_before; i < session->steps().size(); ++i) {
    EXPECT_EQ(session->steps()[i].instance, 2) << "step " << i;
  }

  const FusionResponse response = session->Finish();
  EXPECT_EQ(response.instances.size(), 3u);
  EXPECT_EQ(response.instances[2].name, "late");
  EXPECT_EQ(response.instances[2].num_facts, 4);
}

TEST_F(SessionGrowthTest, EngineModeRejectsAdditionalBudget) {
  auto session = CreateOrDie(GrowableRequest(RunMode::kEngine));
  auto result = session->AddInstances(
      {MakeInstance("late", {0.5}, {true})}, /*additional_budget=*/5);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(result.status().message().find("budget_per_instance"),
            std::string::npos)
      << result.status();
  // The rejected call changed nothing.
  EXPECT_EQ(session->num_instances(), 2);
  EXPECT_EQ(session->Poll().total_budget, 6);
}

TEST_F(SessionGrowthTest, ValidatesArrivalsBeforeBindingAny) {
  auto session = CreateOrDie(GrowableRequest(RunMode::kEngine));
  EXPECT_EQ(session->AddInstances({}).status().code(),
            StatusCode::kInvalidArgument);

  auto no_facts = session->AddInstances(
      {MakeInstance("ok", {0.5}, {true}), [] {
         InstanceSpec empty;
         empty.name = "no-facts";
         return empty;
       }()});
  ASSERT_FALSE(no_facts.ok());
  EXPECT_EQ(no_facts.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(no_facts.status().message().find("no-facts"), std::string::npos)
      << no_facts.status();

  auto bad_truths = session->AddInstances(
      {MakeInstance("short-truths", {0.5, 0.5}, {true})});
  ASSERT_FALSE(bad_truths.ok());
  EXPECT_EQ(bad_truths.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(bad_truths.status().message().find("short-truths"),
            std::string::npos)
      << bad_truths.status();

  // Nothing bound: the batch is validated before any instance lands.
  EXPECT_EQ(session->num_instances(), 2);
}

TEST_F(SessionGrowthTest, SchedulerArrivalNeedsBudgetToRevive) {
  auto session = CreateOrDie(GrowableRequest(RunMode::kPipelined));
  Drain(*session);
  EXPECT_TRUE(session->done());
  const int cost_before = session->total_cost_spent();

  // Arrivals without budget bind but cannot run: the session stays done.
  auto first = session->AddInstances(
      {MakeInstance("broke", {0.45, 0.3}, {true, false})});
  ASSERT_TRUE(first.ok()) << first.status();
  EXPECT_EQ(*first, 2);
  EXPECT_TRUE(session->done());
  EXPECT_EQ(session->total_cost_spent(), cost_before);

  // Budget arriving with the next batch revives the whole pool.
  auto second = session->AddInstances(
      {MakeInstance("funded", {0.6, 0.4}, {false, true})},
      /*additional_budget=*/4);
  ASSERT_TRUE(second.ok()) << second.status();
  EXPECT_EQ(*second, 3);
  EXPECT_FALSE(session->done());
  EXPECT_EQ(session->Poll().total_budget, 6 + 4);

  Drain(*session);
  EXPECT_EQ(session->total_cost_spent(), cost_before + 4);
  EXPECT_EQ(session->num_instances(), 4);
  // The banked budget funded the arrivals (the originals were already at
  // zero marginal gain).
  EXPECT_GT(session->cost_spent(2) + session->cost_spent(3), 0);
}

TEST_F(SessionGrowthTest, NegativeBudgetRejectedInEveryMode) {
  for (const RunMode mode : {RunMode::kEngine, RunMode::kPipelined}) {
    auto session = CreateOrDie(GrowableRequest(mode));
    auto result = session->AddInstances(
        {MakeInstance("late", {0.5}, {true})}, /*additional_budget=*/-1);
    ASSERT_FALSE(result.ok());
    EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
  }
}

TEST_F(SessionGrowthTest, MidRunArrivalKeepsAccountingConsistent) {
  // Grow while the originals still have budget: per-instance costs must
  // sum to the total and the curve stays monotone across the arrival.
  auto session = CreateOrDie(GrowableRequest(RunMode::kEngine));
  auto outcomes = session->Step();
  ASSERT_TRUE(outcomes.ok());
  ASSERT_FALSE(session->done());

  ASSERT_TRUE(session
                  ->AddInstances({MakeInstance("mid", {0.55, 0.45, 0.35},
                                               {false, false, true})})
                  .ok());
  Drain(*session);

  int sum = 0;
  for (int i = 0; i < session->num_instances(); ++i) {
    sum += session->cost_spent(i);
  }
  EXPECT_EQ(sum, session->total_cost_spent());
  EXPECT_LE(session->total_cost_spent(), session->Poll().total_budget);
  // Engine-mode cumulative_cost is per instance; each instance's curve
  // stays monotone across the arrival.
  std::vector<int> last_cost(static_cast<size_t>(session->num_instances()),
                             0);
  for (const StepOutcome& outcome : session->steps()) {
    const size_t instance = static_cast<size_t>(outcome.instance);
    EXPECT_GE(outcome.cumulative_cost, last_cost[instance]);
    last_cost[instance] = outcome.cumulative_cost;
  }
  // All three instances were actually served.
  EXPECT_GT(session->cost_spent(2), 0);
}

}  // namespace
}  // namespace crowdfusion::service
