/// net::Router over two in-process service::HttpFrontend backends: keyed
/// session ids ("s-1@7"), session affinity through the consistent-hash
/// ring, least-loaded proxying of /v1/fusion:run with transport-failure
/// retry, the kill-one-backend contract (only the dead backend's sessions
/// are lost), and the router's own /healthz + /metricsz. Every server
/// binds port 0 (parallel-ctest rule).

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "common/json.h"
#include "net/http_client.h"
#include "net/router.h"
#include "service/http_frontend.h"
#include "service/request_json.h"
#include "support/status_printing.h"

namespace crowdfusion::net {
namespace {

using common::JsonValue;
using service::FusionRequest;
using service::InstanceSpec;
using service::RunMode;

HttpClient::Options ClientOptions(int port) {
  HttpClient::Options options;
  options.host = "127.0.0.1";
  options.port = port;
  return options;
}

/// Fully deterministic request (scripted provider, engine mode) that
/// takes several steps to finish, so sessions stay live across calls.
FusionRequest ScriptedRequest() {
  FusionRequest request;
  request.mode = RunMode::kEngine;
  request.label = "router-test";
  InstanceSpec instance;
  instance.name = "inst";
  const std::vector<double> marginals = {0.4, 0.6, 0.3, 0.7};
  auto joint = core::JointDistribution::FromIndependentMarginals(marginals);
  EXPECT_TRUE(joint.ok());
  instance.joint = std::move(joint).value();
  instance.truths = {true, false, true, false};
  request.instances.push_back(std::move(instance));
  request.provider.kind = "scripted";
  request.provider.script = {true, false, true, false};
  request.budget.budget_per_instance = 4;
  request.budget.tasks_per_step = 1;
  return request;
}

JsonValue ParseBody(const HttpResponse& response) {
  auto parsed = JsonValue::Parse(response.body);
  EXPECT_TRUE(parsed.ok()) << response.body;
  return parsed.ok() ? std::move(parsed).value() : JsonValue::MakeObject();
}

class RouterTest : public ::testing::Test {
 protected:
  void SetUp() override {
    std::vector<std::string> endpoints;
    for (int i = 0; i < 2; ++i) {
      service::HttpFrontend::Options options;
      options.port = 0;
      backends_.push_back(
          std::make_unique<service::HttpFrontend>(options));
      ASSERT_TRUE(backends_.back()->Start().ok());
      endpoints.push_back("127.0.0.1:" +
                          std::to_string(backends_.back()->port()));
    }
    Router::Options options;
    options.port = 0;
    options.backends = endpoints;
    options.reprobe_seconds = 0.2;  // keep kill tests fast
    router_ = std::make_unique<Router>(options);
    ASSERT_TRUE(router_->Start().ok());
    client_ = std::make_unique<HttpClient>(ClientOptions(router_->port()));
  }

  /// Creates a session through the router and returns its keyed id.
  std::string CreateSession() {
    auto created = client_->Post("/v1/sessions",
                                 SerializeFusionRequest(ScriptedRequest()));
    EXPECT_TRUE(created.ok()) << created.status();
    EXPECT_EQ(created->status_code, 201) << created->body;
    const JsonValue body = ParseBody(*created);
    const JsonValue* id = body.Find("session_id");
    EXPECT_NE(id, nullptr) << created->body;
    return id == nullptr ? std::string() : id->GetString().value();
  }

  std::vector<std::unique_ptr<service::HttpFrontend>> backends_;
  std::unique_ptr<Router> router_;
  std::unique_ptr<HttpClient> client_;
};

TEST_F(RouterTest, SessionLifecycleWorksThroughKeyedIds) {
  const std::string id = CreateSession();
  // The router rewrote the backend's "s-1" into a routable keyed id.
  ASSERT_NE(id.find('@'), std::string::npos) << id;

  // Poll, step to completion, fetch the result, delete — all through the
  // router, all routed by the key suffix.
  auto poll = client_->Get("/v1/sessions/" + id);
  ASSERT_TRUE(poll.ok());
  EXPECT_EQ(poll->status_code, 200) << poll->body;

  bool done = false;
  for (int step = 0; step < 64 && !done; ++step) {
    auto stepped = client_->Post("/v1/sessions/" + id + "/step", "");
    ASSERT_TRUE(stepped.ok());
    ASSERT_EQ(stepped->status_code, 200) << stepped->body;
    const JsonValue body = ParseBody(*stepped);
    // Responses keep the keyed id, so clients never see the bare one.
    EXPECT_EQ(body.Find("session_id")->GetString().value(), id);
    done = body.Find("done")->GetBool().value();
  }
  EXPECT_TRUE(done);

  auto result = client_->Get("/v1/sessions/" + id + "/result");
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->status_code, 200) << result->body;
  EXPECT_NE(result->body.find("stats"), std::string::npos);

  auto deleted = client_->Delete("/v1/sessions/" + id);
  ASSERT_TRUE(deleted.ok());
  EXPECT_EQ(deleted->status_code, 200);
}

TEST_F(RouterTest, SessionsSpreadAcrossBackendsWithAffinity) {
  std::vector<std::string> ids;
  for (int i = 0; i < 16; ++i) ids.push_back(CreateSession());

  int active = 0;
  for (const auto& backend : backends_) {
    active += backend->GetMetrics().sessions_active;
  }
  EXPECT_EQ(active, 16);
  // The ring actually spreads keys: neither backend hosts everything.
  for (const auto& backend : backends_) {
    EXPECT_GT(backend->GetMetrics().sessions_active, 0);
    EXPECT_LT(backend->GetMetrics().sessions_active, 16);
  }
  // Affinity: every keyed id keeps resolving (a wrong-backend route
  // would 404, since only the owner knows the session).
  for (const std::string& id : ids) {
    auto poll = client_->Get("/v1/sessions/" + id);
    ASSERT_TRUE(poll.ok());
    EXPECT_EQ(poll->status_code, 200) << id << ": " << poll->body;
  }
  EXPECT_GE(router_->GetMetrics().sessions_created, 16);
}

TEST_F(RouterTest, UnkeyedSessionIdsAreNotFoundAtTheRouter) {
  auto poll = client_->Get("/v1/sessions/s-1");
  ASSERT_TRUE(poll.ok());
  EXPECT_EQ(poll->status_code, 404);
  // The error envelope explains the keyed-id format.
  EXPECT_NE(poll->body.find("@"), std::string::npos) << poll->body;
}

TEST_F(RouterTest, FusionRunIsProxiedToABackend) {
  auto response = client_->Post("/v1/fusion:run",
                                SerializeFusionRequest(ScriptedRequest()));
  ASSERT_TRUE(response.ok()) << response.status();
  ASSERT_EQ(response->status_code, 200) << response->body;
  const JsonValue body = ParseBody(*response);
  EXPECT_NE(body.Find("stats"), nullptr) << response->body;
  int64_t proxied = 0;
  for (const auto& backend : router_->GetMetrics().backends) {
    proxied += backend.proxied;
  }
  EXPECT_GE(proxied, 1);
}

TEST_F(RouterTest, KillingOneBackendOnlyLosesItsOwnSessions) {
  std::vector<std::string> ids;
  for (int i = 0; i < 16; ++i) ids.push_back(CreateSession());
  const int survivors_expected = backends_[1]->GetMetrics().sessions_active;
  ASSERT_GT(survivors_expected, 0);
  ASSERT_LT(survivors_expected, 16);

  backends_[0]->Stop();

  // Sessions owned by the dead backend answer 503 — never a 200 or 404
  // from the other backend, whose identically-named bare sessions must
  // stay unreachable through these keys. Everyone else keeps serving.
  int alive = 0;
  int lost = 0;
  for (const std::string& id : ids) {
    auto poll = client_->Get("/v1/sessions/" + id);
    ASSERT_TRUE(poll.ok());
    if (poll->status_code == 200) {
      ++alive;
    } else {
      EXPECT_EQ(poll->status_code, 503) << poll->body;
      ++lost;
    }
  }
  EXPECT_EQ(alive, survivors_expected);
  EXPECT_EQ(lost, 16 - survivors_expected);

  // Surviving sessions still step.
  int stepped_ok = 0;
  for (const std::string& id : ids) {
    auto stepped = client_->Post("/v1/sessions/" + id + "/step", "");
    ASSERT_TRUE(stepped.ok());
    if (stepped->status_code == 200) ++stepped_ok;
  }
  EXPECT_EQ(stepped_ok, survivors_expected);

  // Stateless work routes around the corpse (least-loaded retries the
  // next backend on transport failure).
  auto run = client_->Post("/v1/fusion:run",
                           SerializeFusionRequest(ScriptedRequest()));
  ASSERT_TRUE(run.ok()) << run.status();
  EXPECT_EQ(run->status_code, 200) << run->body;
  // And new sessions still land somewhere — and actually serve: each id's
  // routing key must map to the backend that holds the session (the
  // survivor), not to the ring choice the create skipped over. Several
  // creates so a placement/affinity mismatch can't luck its way past.
  std::vector<std::string> fresh;
  for (int i = 0; i < 8; ++i) {
    fresh.push_back(CreateSession());
    ASSERT_NE(fresh.back().find('@'), std::string::npos);
    auto poll = client_->Get("/v1/sessions/" + fresh.back());
    ASSERT_TRUE(poll.ok());
    ASSERT_EQ(poll->status_code, 200) << fresh.back() << ": " << poll->body;
  }

  // Resurrect backend 0 on its old port, as a fresh process with an empty
  // session table. Every post-kill session must keep resolving to the
  // SAME session on the survivor: a key owned by the revived backend
  // would now 404 there — or, worse, alias a stranger's identical bare
  // id.
  const int port0 = backends_[0]->port();
  service::HttpFrontend::Options revived;
  revived.port = port0;
  backends_[0] = std::make_unique<service::HttpFrontend>(revived);
  ASSERT_TRUE(backends_[0]->Start().ok());
  for (const std::string& id : fresh) {
    auto after = client_->Get("/v1/sessions/" + id);
    ASSERT_TRUE(after.ok());
    ASSERT_EQ(after->status_code, 200) << id << ": " << after->body;
    // Step echoes the keyed id: still the same session, on the survivor.
    auto stepped = client_->Post("/v1/sessions/" + id + "/step", "");
    ASSERT_TRUE(stepped.ok());
    ASSERT_EQ(stepped->status_code, 200) << stepped->body;
    const JsonValue body = ParseBody(*stepped);
    ASSERT_NE(body.Find("session_id"), nullptr) << stepped->body;
    EXPECT_EQ(body.Find("session_id")->GetString().value(), id);
  }
}

TEST_F(RouterTest, HealthzAndMetricszAreServedLocally) {
  auto health = client_->Get("/healthz");
  ASSERT_TRUE(health.ok());
  EXPECT_EQ(health->status_code, 200);
  const JsonValue health_body = ParseBody(*health);
  EXPECT_EQ(health_body.Find("backends")->GetInt().value(), 2);

  ASSERT_TRUE(client_->Get("/v1/sessions/s-9@9").ok());  // 404 downstream?
  auto metrics = client_->Get("/metricsz");
  ASSERT_TRUE(metrics.ok());
  EXPECT_EQ(metrics->status_code, 200);
  const JsonValue body = ParseBody(*metrics);
  EXPECT_GE(body.Find("requests_routed")->GetInt().value(), 1);
  ASSERT_NE(body.Find("backends"), nullptr);
  EXPECT_EQ(body.Find("backends")->array().size(), 2u);
}

}  // namespace
}  // namespace crowdfusion::net
