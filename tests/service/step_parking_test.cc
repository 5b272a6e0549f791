/// A /step waiting on the crowd parks its request with the frontend's
/// waker instead of holding a handler worker, in pipelined and engine
/// mode alike. Two workers serve four sessions over a latency crowd:
/// health checks answer while every step is parked, the four steps
/// overlap their waits, a second step on a parked session is refused with
/// 409, and Stop() with steps parked returns promptly and releases their
/// sessions. On an injected clock the waker sleeps the clock as the
/// blocking step did, so served replies are the bytes of in-process
/// steps.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/clock.h"
#include "common/json.h"
#include "net/http_client.h"
#include "net/loopback_crowd_server.h"
#include "service/fusion_service.h"
#include "service/http_frontend.h"
#include "service/request_json.h"
#include "support/status_printing.h"

namespace crowdfusion::service {
namespace {

using common::JsonValue;
using Seconds = std::chrono::duration<double>;
using SteadyClock = std::chrono::steady_clock;

constexpr int kSessions = 4;

/// One 6-fact book answered by the crowd server after exactly
/// `latency_seconds` per ticket, one task per step.
FusionRequest LatencyRequest(const std::string& endpoint,
                             double latency_seconds,
                             RunMode mode = RunMode::kPipelined) {
  FusionRequest request;
  request.mode = mode;
  InstanceSpec instance;
  instance.name = "book";
  const std::vector<double> marginals = {0.3, 0.6, 0.45, 0.7, 0.55, 0.4};
  auto joint = core::JointDistribution::FromIndependentMarginals(marginals);
  EXPECT_TRUE(joint.ok());
  instance.joint = std::move(joint).value();
  instance.truths = {true, false, true, true, false, true};
  request.instances.push_back(std::move(instance));
  request.selector.kind = "greedy";
  request.provider.kind = "http";
  request.provider.endpoint = endpoint;
  request.provider.accuracy = 0.8;
  request.provider.latency_median_seconds = latency_seconds;
  request.provider.latency_sigma = 0.0;
  request.budget.budget_per_instance = 4;
  request.pipeline.max_in_flight = 1;
  return request;
}

net::HttpClient::Options ClientOptions(int port) {
  net::HttpClient::Options options;
  options.port = port;
  return options;
}

class StepParkingTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ASSERT_TRUE(crowd_.Start().ok());
    StartFrontend(HttpFrontend::Options());
  }

  /// (Re)starts the frontend with two workers and `options` otherwise.
  void StartFrontend(HttpFrontend::Options options) {
    options.threads = 2;
    frontend_ = std::make_unique<HttpFrontend>(options);
    ASSERT_TRUE(frontend_->Start().ok());
  }

  void TearDown() override {
    frontend_.reset();
    crowd_.Stop();
  }

  std::string CreateSession(double latency_seconds,
                            RunMode mode = RunMode::kPipelined) {
    net::HttpClient client(ClientOptions(frontend_->port()));
    auto created = client.Post(
        "/v1/sessions", SerializeFusionRequest(LatencyRequest(
                            crowd_.endpoint(), latency_seconds, mode)));
    EXPECT_TRUE(created.ok()) << created.status();
    if (!created.ok()) return "";
    EXPECT_EQ(created->status_code, 201) << created->body;
    auto body = JsonValue::Parse(created->body);
    EXPECT_TRUE(body.ok()) << body.status();
    return body.ok() ? body->Find("session_id")->GetString().value() : "";
  }

  /// Polls the parked-step gauge until it reads `count` (or 10 s pass).
  bool AwaitParked(int count) {
    const auto deadline = SteadyClock::now() + Seconds(10.0);
    while (SteadyClock::now() < deadline) {
      if (frontend_->GetMetrics().steps_parked == count) return true;
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    return false;
  }

  /// Four sessions of `mode` step at once on two workers: every step
  /// parks, health checks answer meanwhile, and the waits overlap.
  void ExpectParkedStepsFreeTheWorkers(RunMode mode);

  net::LoopbackCrowdServer crowd_;
  std::unique_ptr<HttpFrontend> frontend_;
};

void StepParkingTest::ExpectParkedStepsFreeTheWorkers(RunMode mode) {
  constexpr double kLatency = 0.6;
  std::vector<std::string> ids;
  for (int s = 0; s < kSessions; ++s) {
    ids.push_back(CreateSession(kLatency, mode));
  }

  std::atomic<int> answered{0};
  std::vector<int> status(kSessions, 0);
  std::vector<std::string> bodies(kSessions);
  const SteadyClock::time_point fired = SteadyClock::now();
  std::vector<std::thread> steppers;
  for (int s = 0; s < kSessions; ++s) {
    steppers.emplace_back([&, s] {
      net::HttpClient client(ClientOptions(frontend_->port()));
      auto response = client.Post("/v1/sessions/" + ids[s] + "/step", "{}");
      if (response.ok()) {
        status[s] = response->status_code;
        bodies[s] = response->body;
      }
      ++answered;
    });
  }
  // All four steps wait on the crowd at once, with both workers idle.
  ASSERT_TRUE(AwaitParked(kSessions));
  net::HttpClient health(ClientOptions(frontend_->port()));
  auto healthz = health.Get("/healthz");
  ASSERT_TRUE(healthz.ok()) << healthz.status();
  EXPECT_EQ(healthz->status_code, 200);
  EXPECT_EQ(answered.load(), 0) << "a step answered before its latency";

  for (std::thread& stepper : steppers) stepper.join();
  const double elapsed = Seconds(SteadyClock::now() - fired).count();
  for (int s = 0; s < kSessions; ++s) {
    ASSERT_EQ(status[s], 200) << bodies[s];
    auto body = JsonValue::Parse(bodies[s]);
    ASSERT_TRUE(body.ok()) << body.status();
    EXPECT_EQ(body->Find("session_id")->GetString().value(), ids[s]);
    EXPECT_EQ(body->Find("outcomes")->array().size(), 1u) << bodies[s];
  }
  // Blocking workers would serve the four waits two at a time.
  EXPECT_GE(elapsed, kLatency);
  EXPECT_LT(elapsed, 1.5 * kLatency);
  EXPECT_EQ(frontend_->GetMetrics().steps_parked, 0);
}

TEST_F(StepParkingTest, ParkedStepsFreeTheWorkers) {
  ExpectParkedStepsFreeTheWorkers(RunMode::kPipelined);
}

TEST_F(StepParkingTest, ParkedEngineStepsFreeTheWorkers) {
  // An engine-mode pass over one book is one round on the book's own
  // scheduler: it parks on the crowd exactly as a pipelined step does.
  ExpectParkedStepsFreeTheWorkers(RunMode::kEngine);
}

TEST_F(StepParkingTest, SecondStepOnAParkedSessionIsRefused) {
  const std::string id = CreateSession(0.4);
  int first_status = 0;
  std::thread first([&] {
    net::HttpClient client(ClientOptions(frontend_->port()));
    auto response = client.Post("/v1/sessions/" + id + "/step", "{}");
    if (response.ok()) first_status = response->status_code;
  });
  ASSERT_TRUE(AwaitParked(1));

  net::HttpClient client(ClientOptions(frontend_->port()));
  auto second = client.Post("/v1/sessions/" + id + "/step", "{}");
  ASSERT_TRUE(second.ok()) << second.status();
  EXPECT_EQ(second->status_code, 409) << second->body;
  EXPECT_NE(second->body.find("FailedPrecondition"), std::string::npos)
      << second->body;
  // Growing the session would change the open step's schedule: refused.
  JsonValue arrivals = JsonValue::MakeObject();
  JsonValue instances = JsonValue::MakeArray();
  instances.Append(InstanceSpecToJson(
      LatencyRequest(crowd_.endpoint(), 0.4).instances.front()));
  arrivals.Set("instances", std::move(instances));
  auto grow =
      client.Post("/v1/sessions/" + id + "/instances", arrivals.Dump());
  ASSERT_TRUE(grow.ok()) << grow.status();
  EXPECT_EQ(grow->status_code, 409) << grow->body;
  // Reads answer while the step waits.
  auto progress = client.Get("/v1/sessions/" + id);
  ASSERT_TRUE(progress.ok()) << progress.status();
  EXPECT_EQ(progress->status_code, 200);

  first.join();
  EXPECT_EQ(first_status, 200);
  // Once the parked step answered, the session steps again.
  auto third = client.Post("/v1/sessions/" + id + "/step", "{}");
  ASSERT_TRUE(third.ok()) << third.status();
  EXPECT_EQ(third->status_code, 200) << third->body;
}

TEST_F(StepParkingTest, ParkedStepsCountAgainstTheQueueDepth) {
  HttpFrontend::Options options;
  options.max_queue_depth = 2;
  StartFrontend(options);
  const std::string first = CreateSession(0.5);
  const std::string second = CreateSession(0.5);
  std::vector<std::thread> steppers;
  std::vector<int> status(2, 0);
  for (int s = 0; s < 2; ++s) {
    steppers.emplace_back([&, s] {
      net::HttpClient client(ClientOptions(frontend_->port()));
      auto response = client.Post(
          "/v1/sessions/" + (s == 0 ? first : second) + "/step", "{}");
      if (response.ok()) status[s] = response->status_code;
    });
  }
  ASSERT_TRUE(AwaitParked(2));
  // Both queue slots are held by parked steps: the reactor sheds.
  net::HttpClient client(ClientOptions(frontend_->port()));
  auto shed = client.Get("/healthz");
  ASSERT_TRUE(shed.ok()) << shed.status();
  EXPECT_EQ(shed->status_code, 503);
  for (std::thread& stepper : steppers) stepper.join();
  EXPECT_EQ(status, std::vector<int>({200, 200}));
  auto healthy = client.Get("/healthz");
  ASSERT_TRUE(healthy.ok()) << healthy.status();
  EXPECT_EQ(healthy->status_code, 200);
  EXPECT_EQ(frontend_->GetMetrics().requests_shed, 1);
}

TEST_F(StepParkingTest, StopWithParkedStepsReturnsAndReleasesSessions) {
  // The crowd answers long after the test ends.
  std::vector<std::string> ids;
  for (int s = 0; s < 2; ++s) ids.push_back(CreateSession(60.0));
  std::vector<std::thread> steppers;
  std::atomic<int> failed{0};
  for (const std::string& id : ids) {
    steppers.emplace_back([&, id] {
      net::HttpClient client(ClientOptions(frontend_->port()));
      auto response = client.Post("/v1/sessions/" + id + "/step", "{}");
      if (!response.ok()) ++failed;
    });
  }
  ASSERT_TRUE(AwaitParked(2));
  // Deleted mid-wait: only the parked steps still hold the sessions.
  net::HttpClient client(ClientOptions(frontend_->port()));
  for (const std::string& id : ids) {
    auto deleted = client.Delete("/v1/sessions/" + id);
    ASSERT_TRUE(deleted.ok()) << deleted.status();
    EXPECT_EQ(deleted->status_code, 200);
  }
  EXPECT_EQ(crowd_.universes_live(), 2);

  const SteadyClock::time_point stopping = SteadyClock::now();
  frontend_->Stop();
  EXPECT_LT(Seconds(SteadyClock::now() - stopping).count(), 5.0);
  for (std::thread& stepper : steppers) stepper.join();
  // The dropped steps' connections closed unanswered...
  EXPECT_EQ(failed.load(), 2);
  EXPECT_EQ(frontend_->GetMetrics().steps_parked, 0);
  // ...and dropping them destroyed their sessions, whose providers
  // deleted their universes on the crowd server.
  EXPECT_EQ(crowd_.universes_live(), 0);
}

/// Three books answered by in-process latency crowds on the clock: every
/// /step reply of a served `mode` session is the bytes of the same
/// in-process Step().
void ExpectParkedStepsMatchInProcessSteps(RunMode mode) {
  FusionRequest request = LatencyRequest("", 0.0, mode);
  request.provider.kind = "simulated_crowd";
  request.provider.endpoint.clear();
  request.provider.latency_median_seconds = 0.03;
  request.provider.latency_sigma = 0.5;
  request.pipeline.max_in_flight = 2;
  for (int i = 1; i < 3; ++i) {
    InstanceSpec copy = request.instances.front();
    copy.name = "book" + std::to_string(i);
    request.instances.push_back(std::move(copy));
  }

  common::ManualClock served_clock(1000.0);
  HttpFrontend::Options options;
  options.threads = 2;
  options.clock = &served_clock;
  HttpFrontend frontend(options);
  ASSERT_TRUE(frontend.Start().ok());
  net::HttpClient client(ClientOptions(frontend.port()));
  auto created = client.Post("/v1/sessions", SerializeFusionRequest(request));
  ASSERT_TRUE(created.ok()) << created.status();
  ASSERT_EQ(created->status_code, 201) << created->body;
  const std::string id =
      JsonValue::Parse(created->body)->Find("session_id")->GetString().value();

  common::ManualClock clock(1000.0);
  const FusionService service(FusionService::Config{.clock = &clock});
  auto session = service.CreateSession(request);
  ASSERT_TRUE(session.ok()) << session.status();
  int replies = 0;
  while (!(*session)->done()) {
    const auto outcomes = (*session)->Step();
    ASSERT_TRUE(outcomes.ok()) << outcomes.status();
    std::string expected;
    WriteStepReply(id, (*session)->done(), *outcomes, expected);
    auto served = client.Post("/v1/sessions/" + id + "/step", "{}");
    ASSERT_TRUE(served.ok()) << served.status();
    EXPECT_EQ(served->body, expected) << "reply " << replies;
    ++replies;
  }
  EXPECT_GT(replies, 2);
  EXPECT_GT(clock.NowSeconds(), 1000.0);
  EXPECT_EQ(served_clock.NowSeconds(), clock.NowSeconds());
}

TEST(StepParkingClockTest, ParkedStepsOnAManualClockMatchInProcessSteps) {
  // Two tickets in flight at a time.
  ExpectParkedStepsMatchInProcessSteps(RunMode::kPipelined);
}

TEST(StepParkingClockTest, ParkedEngineStepsOnAManualClockMatchInProcessSteps) {
  // A pass waits on each book's ticket in turn, parking once per book.
  ExpectParkedStepsMatchInProcessSteps(RunMode::kEngine);
}

}  // namespace
}  // namespace crowdfusion::service
