/// HttpAnswerProvider over LoopbackCrowdServer: the async contract
/// (Submit/Collect/Cancel) across real sockets, the one :take route
/// answering every phase (in flight, ready, failed), judgment parity with
/// the in-process SimulatedCrowd it proxies, status transport for failing
/// universes, and the "http" registry kind's validation.

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "common/clock.h"
#include "crowd/simulated_crowd.h"
#include "crowd/worker.h"
#include "net/http_answer_provider.h"
#include "net/http_client.h"
#include "net/loopback_crowd_server.h"
#include "support/status_printing.h"

namespace crowdfusion::net {
namespace {

constexpr double kPc = 0.8;

core::ProviderSpec CrowdSpec(uint64_t seed) {
  core::ProviderSpec spec;
  spec.kind = "simulated_crowd";
  spec.truths = {true, false, true, true, false, true};
  spec.accuracy = kPc;
  spec.seed = seed;
  return spec;
}

class HttpAnswerProviderTest : public ::testing::Test {
 protected:
  void SetUp() override {
    server_ = std::make_unique<LoopbackCrowdServer>();  // port 0
    ASSERT_TRUE(server_->Start().ok());
  }

  std::unique_ptr<HttpAnswerProvider> MakeProvider(
      const core::ProviderSpec& spec) {
    HttpAnswerProvider::Options options;
    options.host = "127.0.0.1";
    options.port = server_->port();
    auto provider = std::make_unique<HttpAnswerProvider>(options);
    auto status = provider->CreateUniverse(spec);
    EXPECT_TRUE(status.ok()) << status;
    return provider;
  }

  std::unique_ptr<LoopbackCrowdServer> server_;
};

TEST_F(HttpAnswerProviderTest, AwaitMatchesInProcessSimulatedCrowd) {
  const core::ProviderSpec spec = CrowdSpec(/*seed=*/77);
  auto provider = MakeProvider(spec);

  crowd::SimulatedCrowd local = crowd::SimulatedCrowd::WithUniformAccuracy(
      spec.truths, kPc, spec.seed);

  const std::vector<std::vector<int>> batches = {
      {0, 1}, {2}, {3, 4, 5}, {0, 5}};
  for (const std::vector<int>& batch : batches) {
    auto remote = core::SubmitAndAwait(*provider, batch, common::Clock::Real());
    auto expected = core::SubmitAndAwait(local, batch, common::Clock::Real());
    ASSERT_TRUE(remote.ok()) << remote.status();
    ASSERT_TRUE(expected.ok());
    EXPECT_EQ(*remote, *expected);  // same RNG stream, bit-for-bit
  }
  const auto [served, correct] = provider->ServedCorrect();
  EXPECT_EQ(served, local.answers_served());
  EXPECT_EQ(correct, local.answers_correct());
}

TEST_F(HttpAnswerProviderTest, PollReportsReadyThenAwaitConsumes) {
  auto provider = MakeProvider(CrowdSpec(5));
  auto ticket = provider->Submit(std::vector<int>{0, 1});
  ASSERT_TRUE(ticket.ok());
  auto collected = provider->Collect(*ticket);
  ASSERT_TRUE(collected.ok()) << collected.status();
  EXPECT_EQ(collected->phase, core::TicketPhase::kReady);  // zero latency
  EXPECT_EQ(collected->attempts_used, 1);
  EXPECT_EQ(collected->answers.size(), 2u);
  // Consumed: the platform no longer knows the ticket.
  auto after = provider->Collect(*ticket);
  ASSERT_FALSE(after.ok());
  EXPECT_EQ(after.status().code(), common::StatusCode::kNotFound);
}

TEST_F(HttpAnswerProviderTest, UnknownTicketIsNotFound) {
  auto provider = MakeProvider(CrowdSpec(6));
  auto collected = provider->Collect(991199);
  ASSERT_FALSE(collected.ok());
  EXPECT_EQ(collected.status().code(), common::StatusCode::kNotFound);
}

TEST_F(HttpAnswerProviderTest, CancelReleasesTheTicketRemotely) {
  auto provider = MakeProvider(CrowdSpec(7));
  auto ticket = provider->Submit(std::vector<int>{1, 2, 3});
  ASSERT_TRUE(ticket.ok());
  provider->Cancel(*ticket);
  auto collected = provider->Collect(*ticket);
  ASSERT_FALSE(collected.ok());
  EXPECT_EQ(collected.status().code(), common::StatusCode::kNotFound);
}

TEST_F(HttpAnswerProviderTest, FailingUniverseTransportsItsStatus) {
  core::ProviderSpec spec = CrowdSpec(8);
  spec.latency_median_seconds = 1e-9;  // enable the async failure model
  spec.failure_probability = 1.0;
  auto provider = MakeProvider(spec);
  auto ticket = provider->Submit(std::vector<int>{0},
                                 core::TicketOptions{.max_attempts = 1});
  ASSERT_TRUE(ticket.ok()) << ticket.status();
  common::Result<core::TicketStatus> collected = provider->Collect(*ticket);
  while (collected.ok() && collected->phase == core::TicketPhase::kInFlight) {
    common::Clock::Real()->SleepSeconds(collected->seconds_until_ready);
    collected = provider->Collect(*ticket);
  }
  // The :take reports the failed phase and carries the simulated crowd's
  // injected failure: the wire must deliver that exact code and message,
  // not a generic HTTP error.
  ASSERT_TRUE(collected.ok()) << collected.status();
  EXPECT_EQ(collected->phase, core::TicketPhase::kFailed);
  EXPECT_EQ(collected->attempts_used, 1);
  EXPECT_EQ(collected->error.code(), common::StatusCode::kUnavailable);
  EXPECT_EQ(collected->error.message(), "injected crowd failure");
  // Collecting the failure consumed the ticket.
  EXPECT_EQ(provider->Collect(*ticket).status().code(),
            common::StatusCode::kNotFound);
  auto awaited = core::SubmitAndAwait(*provider, std::vector<int>{0},
                                      common::Clock::Real());
  ASSERT_FALSE(awaited.ok());
  EXPECT_EQ(awaited.status().code(), common::StatusCode::kUnavailable);
}

TEST_F(HttpAnswerProviderTest, ScriptedUniverseKindServesTheScript) {
  core::ProviderSpec spec;
  spec.kind = "scripted";
  spec.script = {true, false, true, false};
  auto provider = MakeProvider(spec);
  auto ticket = provider->Submit(std::vector<int>{0, 1, 2, 3});
  ASSERT_TRUE(ticket.ok()) << ticket.status();
  auto collected = provider->Collect(*ticket);
  ASSERT_TRUE(collected.ok()) << collected.status();
  EXPECT_EQ(collected->answers, (std::vector<bool>{true, false, true, false}));
}

TEST_F(HttpAnswerProviderTest, SubmitWithoutUniverseIsFailedPrecondition) {
  HttpAnswerProvider::Options options;
  options.host = "127.0.0.1";
  options.port = server_->port();
  HttpAnswerProvider provider(options);
  auto ticket = provider.Submit(std::vector<int>{0});
  ASSERT_FALSE(ticket.ok());
  EXPECT_EQ(ticket.status().code(),
            common::StatusCode::kFailedPrecondition);
}

TEST_F(HttpAnswerProviderTest, StoppedServerIsUnavailable) {
  auto provider = MakeProvider(CrowdSpec(9));
  server_->Stop();
  auto ticket = provider->Submit(std::vector<int>{0});
  ASSERT_FALSE(ticket.ok());
  EXPECT_EQ(ticket.status().code(), common::StatusCode::kUnavailable);
}

TEST_F(HttpAnswerProviderTest, HostingHttpUniversesIsRejected) {
  core::ProviderSpec spec = CrowdSpec(10);
  spec.kind = "http";
  HttpAnswerProvider::Options options;
  options.host = "127.0.0.1";
  options.port = server_->port();
  HttpAnswerProvider provider(options);
  auto status = provider.CreateUniverse(spec);
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.code(), common::StatusCode::kInvalidArgument);
}

TEST(HttpTakeContractTest, TakeOnAnInFlightTicketKeepsIt) {
  common::ManualClock clock;
  LoopbackCrowdServer::Options server_options;
  server_options.clock = &clock;
  LoopbackCrowdServer server(server_options);  // port 0
  ASSERT_TRUE(server.Start().ok());
  HttpAnswerProvider::Options options;
  options.port = server.port();
  HttpAnswerProvider provider(options);
  core::ProviderSpec spec = CrowdSpec(12);
  spec.latency_median_seconds = 2.0;
  ASSERT_TRUE(provider.CreateUniverse(spec).ok());

  auto ticket = provider.Submit(std::vector<int>{0, 1});
  ASSERT_TRUE(ticket.ok()) << ticket.status();
  // :take on an in-flight ticket answers at once with its ETA, and the
  // ticket lives on.
  auto pending = provider.Collect(*ticket);
  ASSERT_TRUE(pending.ok()) << pending.status();
  EXPECT_EQ(pending->phase, core::TicketPhase::kInFlight);
  EXPECT_EQ(pending->attempts_used, 1);
  ASSERT_GT(pending->seconds_until_ready, 0.0);
  EXPECT_TRUE(pending->answers.empty());

  clock.AdvanceSeconds(pending->seconds_until_ready + 1.0);
  auto ready = provider.Collect(*ticket);
  ASSERT_TRUE(ready.ok()) << ready.status();
  EXPECT_EQ(ready->phase, core::TicketPhase::kReady);
  EXPECT_EQ(ready->answers.size(), 2u);
  auto after = provider.Collect(*ticket);
  ASSERT_FALSE(after.ok());
  EXPECT_EQ(after.status().code(), common::StatusCode::kNotFound);

  // The wire has no ticket status GET: :take is the one collection route.
  HttpClient::Options client_options;
  client_options.port = server.port();
  HttpClient client(client_options);
  auto get = client.Get("/v1/universes/" + provider.universe() +
                        "/tickets/" + std::to_string(*ticket));
  ASSERT_TRUE(get.ok()) << get.status();
  EXPECT_EQ(get->status_code, 400);
}

TEST(HttpProviderRegistryTest, EndpointValidation) {
  core::ProviderRegistry registry = core::BuiltinProviderRegistry();
  ASSERT_TRUE(RegisterHttpProvider(registry).ok());

  core::ProviderSpec spec;
  spec.kind = "http";
  spec.truths = {true, false};
  auto missing = registry.Create("http", spec);
  ASSERT_FALSE(missing.ok());
  EXPECT_EQ(missing.status().code(), common::StatusCode::kInvalidArgument);

  spec.endpoint = "not-an-endpoint";
  auto malformed = registry.Create("http", spec);
  ASSERT_FALSE(malformed.ok());
  EXPECT_EQ(malformed.status().code(),
            common::StatusCode::kInvalidArgument);

  spec.endpoint = "127.0.0.1:0";
  auto bad_port = registry.Create("http", spec);
  EXPECT_FALSE(bad_port.ok());
}

TEST(HttpProviderRegistryTest, FactoryBindsAUniversePerInstance) {
  LoopbackCrowdServer server;  // port 0
  ASSERT_TRUE(server.Start().ok());

  core::ProviderRegistry registry = core::BuiltinProviderRegistry();
  ASSERT_TRUE(RegisterHttpProvider(registry).ok());

  core::ProviderSpec spec = CrowdSpec(21);
  spec.kind = "http";
  spec.endpoint = server.endpoint();
  {
    auto first = registry.Create("http", spec);
    ASSERT_TRUE(first.ok()) << first.status();
    auto second = registry.Create("http", spec);
    ASSERT_TRUE(second.ok()) << second.status();
    EXPECT_EQ(server.universes_live(), 2);
    ASSERT_NE(*first, nullptr);

    auto ticket = (*first)->Submit(std::vector<int>{0, 1, 2});
    ASSERT_TRUE(ticket.ok()) << ticket.status();
    auto collected = (*first)->Collect(*ticket);
    ASSERT_TRUE(collected.ok()) << collected.status();
    EXPECT_EQ(collected->answers.size(), 3u);
  }
  // Dropping the providers reaps their universes remotely: a long-lived
  // platform serving many requests must not accumulate state.
  EXPECT_EQ(server.universes_live(), 0);
}

}  // namespace
}  // namespace crowdfusion::net
