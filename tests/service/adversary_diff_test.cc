/// The adversary-off differential pin (ISSUE PR 7 acceptance): across 32
/// seeds, a request whose JSON carries no adversary block at all, one
/// carrying the default (disabled) block, and one carrying a disabled
/// block with every hostile knob dialed up all reproduce each other
/// bit-for-bit — steps, joints, utilities, costs — in every run mode and
/// over the HTTP wire. Installing the adversary layer must have changed
/// nothing until someone turns it on.

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <utility>
#include <vector>

#include "common/json.h"
#include "common/random.h"
#include "net/http_client.h"
#include "service/fusion_service.h"
#include "service/http_frontend.h"
#include "service/request_json.h"

namespace crowdfusion::service {
namespace {

using common::JsonValue;

constexpr uint64_t kSeeds = 32;

FusionRequest MakeRequest(uint64_t seed, RunMode mode) {
  common::Rng rng(seed * 9176 + 5);
  FusionRequest request;
  request.mode = mode;
  request.label = "adversary-diff";
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
  request.selector.use_pruning = true;
  request.selector.use_preprocessing = true;
  request.provider.kind = "simulated_crowd";
  request.provider.accuracy = 0.7 + 0.05 * static_cast<double>(seed % 4);
  request.provider.seed = seed * 131 + 7;
  request.assumed_pc = 0.8;
  request.budget.budget_per_instance = 4 + static_cast<int>(seed % 3);
  request.budget.tasks_per_step = 1 + static_cast<int>(seed % 2);
  request.pipeline.max_in_flight = 2 + static_cast<int>(seed % 3);
  return request;
}

/// Disabled adversary with every hostile knob set: enabled == false must
/// make all of it inert.
FusionRequest WithDisabledHostileKnobs(FusionRequest request) {
  request.provider.adversary.enabled = false;
  request.provider.adversary.num_workers = 9;
  request.provider.adversary.colluder_fraction = 0.5;
  request.provider.adversary.collusion_target_fraction = 0.5;
  request.provider.adversary.sybil_fraction = 0.25;
  request.provider.adversary.spammer_fraction = 0.125;
  request.provider.adversary.drift_per_answer = -0.1;
  request.provider.adversary.drift_floor = 0.2;
  request.provider.adversary.seed = 987654321;
  return request;
}

/// Serializes the request and strips the provider's adversary block
/// entirely — the pre-PR wire format a fielded client still sends.
std::string SerializeWithoutAdversaryBlock(const FusionRequest& request) {
  auto json = JsonValue::Parse(SerializeFusionRequest(request));
  EXPECT_TRUE(json.ok()) << json.status();
  for (auto& [key, value] : json->object()) {
    if (key != "provider") continue;
    auto& provider = value.object();
    std::erase_if(provider,
                  [](const auto& entry) { return entry.first == "adversary"; });
  }
  return json->Dump();
}

/// The deterministic slice of a response: everything except the wall
/// clock (RunStats and StepOutcome::latency_seconds are wall times).
void ExpectResponsesEqual(const FusionResponse& a, const FusionResponse& b,
                          uint64_t seed) {
  ASSERT_EQ(a.steps.size(), b.steps.size()) << "seed " << seed;
  for (size_t i = 0; i < a.steps.size(); ++i) {
    StepOutcome lhs = a.steps[i];
    StepOutcome rhs = b.steps[i];
    lhs.latency_seconds = 0.0;
    rhs.latency_seconds = 0.0;
    EXPECT_EQ(lhs, rhs) << "seed " << seed << " step " << i;
  }
  EXPECT_EQ(a.instances, b.instances) << "seed " << seed;
  EXPECT_EQ(a.total_utility_bits, b.total_utility_bits) << "seed " << seed;
  EXPECT_EQ(a.total_cost_spent, b.total_cost_spent) << "seed " << seed;
  EXPECT_EQ(a.stats.answers_served, b.stats.answers_served)
      << "seed " << seed;
  EXPECT_EQ(a.stats.answers_correct, b.stats.answers_correct)
      << "seed " << seed;
}

FusionResponse RunOrDie(const FusionRequest& request, uint64_t seed) {
  FusionService service;
  auto response = service.Run(request);
  EXPECT_TRUE(response.ok()) << "seed " << seed << ": " << response.status();
  return response.ok() ? std::move(response).value() : FusionResponse{};
}

TEST(AdversaryDifferentialTest, AbsentDefaultAndDisabledAgreeBitForBit) {
  for (uint64_t seed = 1; seed <= kSeeds; ++seed) {
    // Engine, pipelined at a window of 1 (the "blocking" spelling), and
    // pipelined at the seed's window.
    for (const auto& [mode, window_one] :
         {std::pair{RunMode::kEngine, false},
          std::pair{RunMode::kPipelined, true},
          std::pair{RunMode::kPipelined, false}}) {
      FusionRequest baseline = MakeRequest(seed, mode);
      if (window_one) baseline.pipeline.max_in_flight = 1;

      // Variant 1: the adversary field left at its default.
      const FusionResponse from_default = RunOrDie(baseline, seed);

      // Variant 2: the wire format with no adversary block at all.
      auto absent =
          ParseFusionRequest(SerializeWithoutAdversaryBlock(baseline));
      ASSERT_TRUE(absent.ok()) << "seed " << seed << ": " << absent.status();
      EXPECT_EQ(*absent, baseline) << "seed " << seed;
      const FusionResponse from_absent = RunOrDie(*absent, seed);

      // Variant 3: disabled, with every hostile knob armed.
      const FusionResponse from_disabled =
          RunOrDie(WithDisabledHostileKnobs(baseline), seed);

      ExpectResponsesEqual(from_default, from_absent, seed);
      ExpectResponsesEqual(from_default, from_disabled, seed);
    }
  }
}

TEST(AdversaryDifferentialTest, HttpWireAgreesWithInProcess) {
  HttpFrontend::Options options;
  options.port = 0;
  HttpFrontend frontend(options);
  ASSERT_TRUE(frontend.Start().ok());
  net::HttpClient::Options client_options;
  client_options.host = "127.0.0.1";
  client_options.port = frontend.port();
  net::HttpClient client(client_options);

  for (uint64_t seed = 1; seed <= kSeeds; ++seed) {
    const FusionRequest baseline = MakeRequest(seed, RunMode::kEngine);
    const FusionResponse expected = RunOrDie(baseline, seed);

    for (const std::string& body :
         {SerializeWithoutAdversaryBlock(baseline),
          SerializeFusionRequest(WithDisabledHostileKnobs(baseline))}) {
      auto response = client.Post("/v1/fusion:run", body);
      ASSERT_TRUE(response.ok()) << "seed " << seed << ": "
                                 << response.status();
      ASSERT_EQ(response->status_code, 200) << "seed " << seed << ": "
                                            << response->body;
      auto served = ParseFusionResponse(response->body);
      ASSERT_TRUE(served.ok()) << "seed " << seed << ": " << served.status();
      ExpectResponsesEqual(expected, *served, seed);
    }

    // Adversary ON rides the same wire: the hostile run agrees with its
    // in-process twin (the JSON block reaches the provider), and a full
    // collusion detectably diverges from the honest baseline.
    FusionRequest hostile = baseline;
    hostile.provider.adversary.enabled = true;
    hostile.provider.adversary.colluder_fraction = 1.0;
    hostile.provider.adversary.collusion_target_fraction = 1.0;
    hostile.provider.adversary.seed = seed * 17 + 3;
    const FusionResponse expected_hostile = RunOrDie(hostile, seed);
    auto response =
        client.Post("/v1/fusion:run", SerializeFusionRequest(hostile));
    ASSERT_TRUE(response.ok()) << "seed " << seed << ": "
                               << response.status();
    ASSERT_EQ(response->status_code, 200) << "seed " << seed << ": "
                                          << response->body;
    auto served = ParseFusionResponse(response->body);
    ASSERT_TRUE(served.ok()) << "seed " << seed << ": " << served.status();
    ExpectResponsesEqual(expected_hostile, *served, seed);
    // Unanimous wrong answers: no served answer matches the truth.
    EXPECT_GT(expected_hostile.stats.answers_served, 0) << "seed " << seed;
    EXPECT_EQ(expected_hostile.stats.answers_correct, 0) << "seed " << seed;
  }
}

}  // namespace
}  // namespace crowdfusion::service
