/// HttpAnswerProvider over LoopbackCrowdServer: the async contract
/// (Submit/Poll/Await/Cancel) across real sockets, judgment parity with
/// the in-process SimulatedCrowd it proxies, status transport for failing
/// universes, and the "http" registry kind's validation.

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "crowd/simulated_crowd.h"
#include "crowd/worker.h"
#include "net/http_answer_provider.h"
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
    auto remote_ticket = provider->Submit(batch);
    ASSERT_TRUE(remote_ticket.ok()) << remote_ticket.status();
    auto local_ticket = local.Submit(batch);
    ASSERT_TRUE(local_ticket.ok());
    auto remote = provider->Await(*remote_ticket);
    auto expected = local.Await(*local_ticket);
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
  auto poll = provider->Poll(*ticket);
  ASSERT_TRUE(poll.ok()) << poll.status();
  EXPECT_EQ(poll->phase, core::TicketPhase::kReady);  // zero latency
  ASSERT_TRUE(provider->Await(*ticket).ok());
  // Consumed: the platform no longer knows the ticket.
  auto after = provider->Poll(*ticket);
  ASSERT_FALSE(after.ok());
  EXPECT_EQ(after.status().code(), common::StatusCode::kNotFound);
}

TEST_F(HttpAnswerProviderTest, UnknownTicketIsNotFound) {
  auto provider = MakeProvider(CrowdSpec(6));
  auto poll = provider->Poll(991199);
  ASSERT_FALSE(poll.ok());
  EXPECT_EQ(poll.status().code(), common::StatusCode::kNotFound);
}

TEST_F(HttpAnswerProviderTest, CancelReleasesTheTicketRemotely) {
  auto provider = MakeProvider(CrowdSpec(7));
  auto ticket = provider->Submit(std::vector<int>{1, 2, 3});
  ASSERT_TRUE(ticket.ok());
  provider->Cancel(*ticket);
  auto poll = provider->Poll(*ticket);
  ASSERT_FALSE(poll.ok());
  EXPECT_EQ(poll.status().code(), common::StatusCode::kNotFound);
}

TEST_F(HttpAnswerProviderTest, FailingUniverseTransportsItsStatus) {
  core::ProviderSpec spec = CrowdSpec(8);
  spec.latency_median_seconds = 1e-9;  // enable the async failure model
  spec.failure_probability = 1.0;
  auto provider = MakeProvider(spec);
  core::TicketOptions options;
  options.max_attempts = 1;
  auto ticket = provider->Submit(std::vector<int>{0}, options);
  ASSERT_TRUE(ticket.ok()) << ticket.status();
  auto answers = provider->Await(*ticket);
  ASSERT_FALSE(answers.ok());
  // The simulated crowd's injected failure is kUnavailable; the wire must
  // deliver that exact code, not a generic HTTP error.
  EXPECT_EQ(answers.status().code(), common::StatusCode::kUnavailable);
}

TEST_F(HttpAnswerProviderTest, AwaitTimeoutReturnsDeadlineExceeded) {
  core::ProviderSpec spec = CrowdSpec(11);
  spec.latency_median_seconds = 1e6;  // the crowd will "never" answer
  HttpAnswerProvider::Options options;
  options.host = "127.0.0.1";
  options.port = server_->port();
  options.await_timeout_seconds = 0.05;
  auto provider = std::make_unique<HttpAnswerProvider>(options);
  ASSERT_TRUE(provider->CreateUniverse(spec).ok());

  auto ticket = provider->Submit(std::vector<int>{0, 1});
  ASSERT_TRUE(ticket.ok()) << ticket.status();
  auto answers = provider->Await(*ticket);
  ASSERT_FALSE(answers.ok());
  // The bounded Await gives up with the code a failover pool resubmits
  // on — NOT kUnavailable, which would blame the platform.
  EXPECT_EQ(answers.status().code(),
            common::StatusCode::kDeadlineExceeded);
  // The ticket itself is still live server-side; the caller may poll,
  // cancel or hand it to another collection path.
  auto poll = provider->Poll(*ticket);
  ASSERT_TRUE(poll.ok()) << poll.status();
  EXPECT_EQ(poll->phase, core::TicketPhase::kInFlight);
  provider->Cancel(*ticket);
}

TEST_F(HttpAnswerProviderTest, ScriptedUniverseKindServesTheScript) {
  core::ProviderSpec spec;
  spec.kind = "scripted";
  spec.script = {true, false, true, false};
  auto provider = MakeProvider(spec);
  auto ticket = provider->Submit(std::vector<int>{0, 1, 2, 3});
  ASSERT_TRUE(ticket.ok()) << ticket.status();
  auto answers = provider->Await(*ticket);
  ASSERT_TRUE(answers.ok()) << answers.status();
  EXPECT_EQ(*answers, (std::vector<bool>{true, false, true, false}));
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
    auto answers = (*first)->Await(*ticket);
    ASSERT_TRUE(answers.ok()) << answers.status();
    EXPECT_EQ(answers->size(), 3u);
  }
  // Dropping the providers reaps their universes remotely: a long-lived
  // platform serving many requests must not accumulate state.
  EXPECT_EQ(server.universes_live(), 0);
}

}  // namespace
}  // namespace crowdfusion::net
