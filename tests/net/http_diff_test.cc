/// ISSUE 5 acceptance pin: across 32 seeds, serving a request through
/// net::HttpAnswerProvider against a LoopbackCrowdServer produces
/// bit-for-bit the records, answers, utilities, and final joints of the
/// same request served by the in-process simulated_crowd provider. The
/// wire must add a transport, not a behavior: the loopback server builds
/// its universes through the same crowd::FullProviderRegistry factory,
/// so both paths construct byte-identical SimulatedCrowds and the engine
/// or scheduler sees the same judgment streams in the same order.

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "common/random.h"
#include "net/loopback_crowd_server.h"
#include "service/fusion_service.h"
#include "service/request_json.h"
#include "support/status_printing.h"

namespace crowdfusion::net {
namespace {

using service::FusionRequest;
using service::InstanceSpec;
using service::RunMode;
using service::Session;
using service::StepOutcome;

constexpr int kSeeds = 32;
constexpr double kPc = 0.8;

/// Mirrors the seeded workloads of service_differential_test, so the two
/// differential suites pin the same serving space from different angles.
FusionRequest MakeRequest(uint64_t seed, const std::string& mode) {
  FusionRequest request;
  request.mode = RunMode::kPipelined;
  common::Rng rng(seed * 7919 + 13);
  const int num_instances = 2 + static_cast<int>(rng.NextBounded(3));
  for (int i = 0; i < num_instances; ++i) {
    const int n = 3 + static_cast<int>(rng.NextBounded(3));
    std::vector<double> marginals(static_cast<size_t>(n));
    for (double& m : marginals) m = rng.NextUniform(0.2, 0.8);
    auto joint = core::JointDistribution::FromIndependentMarginals(marginals);
    EXPECT_TRUE(joint.ok());
    InstanceSpec instance;
    instance.name = "book" + std::to_string(i);
    instance.joint = std::move(joint).value();
    instance.truths.resize(static_cast<size_t>(n));
    for (size_t f = 0; f < instance.truths.size(); ++f) {
      instance.truths[f] = rng.NextBernoulli(0.5);
    }
    request.instances.push_back(std::move(instance));
  }
  request.selector.kind = "greedy";
  request.provider.kind = "simulated_crowd";
  request.provider.accuracy = kPc;
  request.provider.seed = seed * 131;
  request.assumed_pc = kPc;
  request.budget.budget_per_instance = 4 + static_cast<int>(seed % 3);
  request.budget.tasks_per_step = 1 + static_cast<int>(seed % 2);
  request.pipeline.max_in_flight = 2 + static_cast<int>(seed % 3);
  // Spelled on the wire, so "blocking" gets its window-of-1 meaning.
  common::JsonValue json = service::FusionRequestToJson(request);
  json.Set("mode", mode);
  auto spelled = service::FusionRequestFromJson(json);
  EXPECT_TRUE(spelled.ok()) << mode << ": " << spelled.status();
  return std::move(spelled).value();
}

std::unique_ptr<Session> RunToCompletion(service::FusionService& fusion,
                                         FusionRequest request,
                                         uint64_t seed) {
  auto session = fusion.CreateSession(std::move(request));
  EXPECT_TRUE(session.ok()) << "seed " << seed << ": " << session.status();
  while (!(*session)->done()) {
    auto outcomes = (*session)->Step();
    EXPECT_TRUE(outcomes.ok()) << "seed " << seed << ": "
                               << outcomes.status();
    if (!outcomes.ok()) break;
  }
  return std::move(session).value();
}

/// Everything but latency_seconds must match bit-for-bit (the wire adds
/// real transport time; the in-process path reports 0).
void ExpectOutcomesEqual(const std::vector<StepOutcome>& in_process,
                         const std::vector<StepOutcome>& over_http,
                         uint64_t seed) {
  ASSERT_EQ(in_process.size(), over_http.size()) << "seed " << seed;
  for (size_t i = 0; i < in_process.size(); ++i) {
    EXPECT_EQ(in_process[i].step, over_http[i].step) << "seed " << seed;
    EXPECT_EQ(in_process[i].instance, over_http[i].instance)
        << "seed " << seed;
    EXPECT_EQ(in_process[i].tasks, over_http[i].tasks) << "seed " << seed;
    EXPECT_EQ(in_process[i].answers, over_http[i].answers)
        << "seed " << seed << " step " << i;
    EXPECT_EQ(in_process[i].selected_entropy_bits,
              over_http[i].selected_entropy_bits)
        << "seed " << seed;
    EXPECT_EQ(in_process[i].expected_gain_bits,
              over_http[i].expected_gain_bits)
        << "seed " << seed;
    EXPECT_EQ(in_process[i].utility_bits, over_http[i].utility_bits)
        << "seed " << seed;
    EXPECT_EQ(in_process[i].cumulative_cost, over_http[i].cumulative_cost)
        << "seed " << seed;
  }
}

void RunDifferential(const std::string& mode) {
  LoopbackCrowdServer server;  // port 0: the parallel-ctest rule
  ASSERT_TRUE(server.Start().ok());
  service::FusionService fusion;

  for (uint64_t seed = 1; seed <= kSeeds; ++seed) {
    const std::unique_ptr<Session> in_process =
        RunToCompletion(fusion, MakeRequest(seed, mode), seed);

    FusionRequest http_request = MakeRequest(seed, mode);
    http_request.provider.kind = "http";
    http_request.provider.endpoint = server.endpoint();
    // universe_kind defaults to simulated_crowd: the platform hosts the
    // very provider the in-process run used.
    const std::unique_ptr<Session> over_http =
        RunToCompletion(fusion, std::move(http_request), seed);

    ASSERT_FALSE(in_process->steps().empty()) << "seed " << seed;
    ExpectOutcomesEqual(in_process->steps(), over_http->steps(), seed);
    ASSERT_EQ(in_process->num_instances(), over_http->num_instances());
    for (int i = 0; i < in_process->num_instances(); ++i) {
      EXPECT_EQ(in_process->joint(i), over_http->joint(i))
          << "seed " << seed << " instance " << i;
      EXPECT_EQ(in_process->cost_spent(i), over_http->cost_spent(i))
          << "seed " << seed;
    }
    EXPECT_EQ(in_process->total_cost_spent(), over_http->total_cost_spent())
        << "seed " << seed;
    EXPECT_EQ(in_process->total_utility_bits(),
              over_http->total_utility_bits())
        << "seed " << seed;
    // The platform saw every judgment the in-process crowd served.
    const auto [local_served, local_correct] =
        in_process->answers_served_correct();
    const auto [remote_served, remote_correct] =
        over_http->answers_served_correct();
    EXPECT_EQ(local_served, remote_served) << "seed " << seed;
    EXPECT_EQ(local_correct, remote_correct) << "seed " << seed;
  }
}

TEST(HttpDifferentialTest, BlockingModeMatchesInProcessBitForBit) {
  RunDifferential("blocking");
}

TEST(HttpDifferentialTest, PipelinedModeMatchesInProcessBitForBit) {
  RunDifferential("pipelined");
}

// The paper's own loop over the network: each engine round is one
// single-attempt ticket through the same provider contract.
TEST(HttpDifferentialTest, EngineModeMatchesInProcessBitForBit) {
  RunDifferential("engine");
}

}  // namespace
}  // namespace crowdfusion::net
