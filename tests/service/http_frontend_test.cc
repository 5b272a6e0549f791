/// service::HttpFrontend endpoint contract: one-shot fusion:run parity
/// with a direct FusionService::Run, the incremental session lifecycle
/// (create/step/poll/result/delete), the TTL-eviction contract on an
/// injected ManualClock, /metricsz gauges, and error mapping. Every
/// server binds port 0 (parallel-ctest rule).

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include "common/clock.h"
#include "common/json.h"
#include "loadgen/trace.h"
#include "net/http_client.h"
#include "net/loopback_crowd_server.h"
#include "service/http_frontend.h"
#include "service/request_json.h"
#include "support/response_json.h"
#include "support/status_printing.h"

namespace crowdfusion::service {
namespace {

using common::JsonValue;

net::HttpClient::Options ClientOptions(int port) {
  net::HttpClient::Options options;
  options.host = "127.0.0.1";
  options.port = port;
  return options;
}

/// Fully deterministic request: scripted provider, engine mode — wall
/// times aside, the response must be identical wherever it runs.
FusionRequest ScriptedRequest() {
  FusionRequest request;
  request.mode = RunMode::kEngine;
  request.label = "frontend-test";
  for (int i = 0; i < 2; ++i) {
    InstanceSpec instance;
    instance.name = "inst" + std::to_string(i);
    const std::vector<double> marginals = {0.4, 0.6, 0.3, 0.7};
    auto joint = core::JointDistribution::FromIndependentMarginals(marginals);
    EXPECT_TRUE(joint.ok());
    instance.joint = std::move(joint).value();
    instance.truths = {true, false, true, false};
    request.instances.push_back(std::move(instance));
  }
  request.provider.kind = "scripted";
  request.provider.script = {true, false, true, false};
  request.budget.budget_per_instance = 5;
  return request;
}

class HttpFrontendTest : public ::testing::Test {
 protected:
  void StartFrontend(HttpFrontend::Options options) {
    options.port = 0;
    frontend_ = std::make_unique<HttpFrontend>(options);
    ASSERT_TRUE(frontend_->Start().ok());
    client_ =
        std::make_unique<net::HttpClient>(ClientOptions(frontend_->port()));
  }

  void SetUp() override { StartFrontend(HttpFrontend::Options()); }

  JsonValue ParseBody(const net::HttpResponse& response) {
    auto body = JsonValue::Parse(response.body);
    EXPECT_TRUE(body.ok()) << body.status() << "\n" << response.body;
    return body.ok() ? *body : JsonValue();
  }

  std::unique_ptr<HttpFrontend> frontend_;
  std::unique_ptr<net::HttpClient> client_;
};

TEST_F(HttpFrontendTest, HealthzAnswersOk) {
  auto response = client_->Get("/healthz");
  ASSERT_TRUE(response.ok()) << response.status();
  EXPECT_EQ(response->status_code, 200);
  const JsonValue body = ParseBody(*response);
  ASSERT_NE(body.Find("status"), nullptr);
  EXPECT_EQ(body.Find("status")->GetString().value(), "ok");
}

TEST_F(HttpFrontendTest, RunEndpointMatchesDirectRun) {
  const FusionRequest request = ScriptedRequest();
  auto response =
      client_->Post("/v1/fusion:run", SerializeFusionRequest(request));
  ASSERT_TRUE(response.ok()) << response.status();
  ASSERT_EQ(response->status_code, 200) << response->body;
  auto served = ParseFusionResponse(response->body);
  ASSERT_TRUE(served.ok()) << served.status();

  FusionService direct;
  auto expected = direct.Run(ScriptedRequest());
  ASSERT_TRUE(expected.ok());
  EXPECT_EQ(served->steps, expected->steps);
  EXPECT_EQ(served->instances, expected->instances);
  EXPECT_EQ(served->total_utility_bits, expected->total_utility_bits);
  EXPECT_EQ(served->total_cost_spent, expected->total_cost_spent);
  EXPECT_EQ(served->label, "frontend-test");
}

TEST_F(HttpFrontendTest, EngineModeRunsOverAnHttpCrowd) {
  // Engine rounds collect through the ticket contract, so engine mode
  // serves a remote crowd exactly like the in-process scripted provider.
  net::LoopbackCrowdServer crowd;  // port 0
  ASSERT_TRUE(crowd.Start().ok());
  FusionRequest request = ScriptedRequest();
  request.provider.kind = "http";
  request.provider.endpoint = crowd.endpoint();
  request.provider.universe_kind = "scripted";
  auto response =
      client_->Post("/v1/fusion:run", SerializeFusionRequest(request));
  ASSERT_TRUE(response.ok()) << response.status();
  ASSERT_EQ(response->status_code, 200) << response->body;
  auto served = ParseFusionResponse(response->body);
  ASSERT_TRUE(served.ok()) << served.status();

  FusionService direct;
  auto expected = direct.Run(ScriptedRequest());
  ASSERT_TRUE(expected.ok());
  EXPECT_EQ(served->steps, expected->steps);
  EXPECT_EQ(served->instances, expected->instances);
  EXPECT_EQ(served->total_cost_spent, expected->total_cost_spent);
  EXPECT_GT(crowd.tickets_submitted(), 0);
}

TEST_F(HttpFrontendTest, SessionLifecycleReproducesOneShotRun) {
  auto created = client_->Post("/v1/sessions",
                               SerializeFusionRequest(ScriptedRequest()));
  ASSERT_TRUE(created.ok()) << created.status();
  ASSERT_EQ(created->status_code, 201) << created->body;
  const JsonValue create_body = ParseBody(*created);
  ASSERT_NE(create_body.Find("session_id"), nullptr);
  const std::string id =
      create_body.Find("session_id")->GetString().value();
  EXPECT_EQ(create_body.Find("num_instances")->GetInt().value(), 2);

  // Step until done, collecting streamed outcomes.
  std::vector<StepOutcome> streamed;
  bool done = false;
  for (int i = 0; i < 64 && !done; ++i) {
    auto stepped = client_->Post("/v1/sessions/" + id + "/step", "{}");
    ASSERT_TRUE(stepped.ok()) << stepped.status();
    ASSERT_EQ(stepped->status_code, 200) << stepped->body;
    const JsonValue body = ParseBody(*stepped);
    done = body.Find("done")->GetBool().value();
    for (const JsonValue& item : body.Find("outcomes")->array()) {
      auto outcome = StepOutcomeFromJson(item);
      ASSERT_TRUE(outcome.ok()) << outcome.status();
      streamed.push_back(std::move(outcome).value());
    }
  }
  ASSERT_TRUE(done);

  // Progress reflects completion.
  auto polled = client_->Get("/v1/sessions/" + id);
  ASSERT_TRUE(polled.ok());
  ASSERT_EQ(polled->status_code, 200);
  const JsonValue progress = ParseBody(*polled);
  EXPECT_TRUE(progress.Find("done")->GetBool().value());

  // The assembled result equals the one-shot run, and its steps equal
  // what was streamed.
  auto result = client_->Get("/v1/sessions/" + id + "/result");
  ASSERT_TRUE(result.ok());
  ASSERT_EQ(result->status_code, 200);
  auto assembled = ParseFusionResponse(result->body);
  ASSERT_TRUE(assembled.ok()) << assembled.status();
  EXPECT_EQ(assembled->steps, streamed);
  FusionService direct;
  auto expected = direct.Run(ScriptedRequest());
  ASSERT_TRUE(expected.ok());
  EXPECT_EQ(assembled->steps, expected->steps);
  EXPECT_EQ(assembled->instances, expected->instances);

  // Delete, then the session is gone.
  auto deleted = client_->Delete("/v1/sessions/" + id);
  ASSERT_TRUE(deleted.ok());
  EXPECT_EQ(deleted->status_code, 200);
  auto after = client_->Get("/v1/sessions/" + id);
  ASSERT_TRUE(after.ok());
  EXPECT_EQ(after->status_code, 404);
  // DELETE is idempotent.
  auto again = client_->Delete("/v1/sessions/" + id);
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(again->status_code, 200);
}

TEST_F(HttpFrontendTest, InstancesEndpointGrowsTheSessionMidRun) {
  // Create, drain to done, then stream in an arrival over the wire: the
  // revived session must serve the newcomer and match the same growth
  // driven in-process through Session::AddInstances.
  auto created = client_->Post("/v1/sessions",
                               SerializeFusionRequest(ScriptedRequest()));
  ASSERT_TRUE(created.ok()) << created.status();
  ASSERT_EQ(created->status_code, 201) << created->body;
  const std::string id =
      ParseBody(*created).Find("session_id")->GetString().value();
  bool done = false;
  for (int i = 0; i < 64 && !done; ++i) {
    auto stepped = client_->Post("/v1/sessions/" + id + "/step", "{}");
    ASSERT_TRUE(stepped.ok()) << stepped.status();
    ASSERT_EQ(stepped->status_code, 200) << stepped->body;
    done = ParseBody(*stepped).Find("done")->GetBool().value();
  }
  ASSERT_TRUE(done);

  InstanceSpec arrival;
  arrival.name = "late";
  const std::vector<double> marginals = {0.45, 0.65, 0.25, 0.6};
  auto joint = core::JointDistribution::FromIndependentMarginals(marginals);
  ASSERT_TRUE(joint.ok());
  arrival.joint = std::move(joint).value();
  arrival.truths = {true, true, false, false};
  JsonValue grow_body = JsonValue::MakeObject();
  grow_body.Set("instances", common::JsonValue::Array{
                                 InstanceSpecToJson(arrival)});
  auto grown = client_->Post("/v1/sessions/" + id + "/instances",
                             grow_body.Dump());
  ASSERT_TRUE(grown.ok()) << grown.status();
  ASSERT_EQ(grown->status_code, 200) << grown->body;
  const JsonValue grow_response = ParseBody(*grown);
  EXPECT_EQ(grow_response.Find("num_instances")->GetInt().value(), 3);
  EXPECT_EQ(grow_response.Find("first_new_instance")->GetInt().value(), 2);
  EXPECT_FALSE(grow_response.Find("done")->GetBool().value());

  // Step the revived session to done and assemble the result.
  done = false;
  for (int i = 0; i < 64 && !done; ++i) {
    auto stepped = client_->Post("/v1/sessions/" + id + "/step", "{}");
    ASSERT_TRUE(stepped.ok()) << stepped.status();
    ASSERT_EQ(stepped->status_code, 200) << stepped->body;
    done = ParseBody(*stepped).Find("done")->GetBool().value();
  }
  ASSERT_TRUE(done);
  auto result = client_->Get("/v1/sessions/" + id + "/result");
  ASSERT_TRUE(result.ok());
  ASSERT_EQ(result->status_code, 200);
  auto assembled = ParseFusionResponse(result->body);
  ASSERT_TRUE(assembled.ok()) << assembled.status();
  ASSERT_EQ(assembled->instances.size(), 3u);
  EXPECT_EQ(assembled->instances[2].name, "late");
  EXPECT_EQ(assembled->instances[2].num_facts, 4);
  EXPECT_GT(assembled->instances[2].cost_spent, 0);

  // The same growth in-process, bit-for-bit (scripted -> deterministic).
  FusionService direct;
  auto session = direct.CreateSession(ScriptedRequest());
  ASSERT_TRUE(session.ok());
  while (!(*session)->done()) {
    ASSERT_TRUE((*session)->Step().ok());
  }
  InstanceSpec same = arrival;
  ASSERT_TRUE((*session)->AddInstances({std::move(same)}).ok());
  while (!(*session)->done()) {
    ASSERT_TRUE((*session)->Step().ok());
  }
  const FusionResponse expected = (*session)->Finish();
  EXPECT_EQ(assembled->steps, expected.steps);
  EXPECT_EQ(assembled->instances, expected.instances);
}

TEST_F(HttpFrontendTest, InstancesEndpointRejectsBadGrowth) {
  auto created = client_->Post("/v1/sessions",
                               SerializeFusionRequest(ScriptedRequest()));
  ASSERT_TRUE(created.ok());
  ASSERT_EQ(created->status_code, 201);
  const std::string id =
      ParseBody(*created).Find("session_id")->GetString().value();
  const std::string path = "/v1/sessions/" + id + "/instances";

  // POST-only.
  auto got = client_->Get(path);
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(got->status_code, 400);
  // Malformed body.
  auto bad_json = client_->Post(path, "{not json");
  ASSERT_TRUE(bad_json.ok());
  EXPECT_EQ(bad_json->status_code, 400);
  // Empty body: the same error every other JSON route gives.
  auto empty = client_->Post(path, "");
  ASSERT_TRUE(empty.ok());
  EXPECT_EQ(empty->status_code, 400);
  EXPECT_NE(empty->body.find("request body must be a JSON document"),
            std::string::npos)
      << empty->body;
  // Missing instances array.
  auto missing = client_->Post(path, "{}");
  ASSERT_TRUE(missing.ok());
  EXPECT_EQ(missing->status_code, 400);
  // Engine mode refuses additional_budget, and the error says why.
  InstanceSpec arrival;
  arrival.name = "late";
  const std::vector<double> marginals = {0.5};
  auto joint = core::JointDistribution::FromIndependentMarginals(marginals);
  ASSERT_TRUE(joint.ok());
  arrival.joint = std::move(joint).value();
  arrival.truths = {true};
  JsonValue body = JsonValue::MakeObject();
  body.Set("instances",
           common::JsonValue::Array{InstanceSpecToJson(arrival)});
  body.Set("additional_budget", 5);
  auto funded = client_->Post(path, body.Dump());
  ASSERT_TRUE(funded.ok());
  EXPECT_EQ(funded->status_code, 400);
  EXPECT_NE(funded->body.find("budget_per_instance"), std::string::npos)
      << funded->body;
  // Unknown session.
  auto orphan = client_->Post("/v1/sessions/s-404/instances", body.Dump());
  ASSERT_TRUE(orphan.ok());
  EXPECT_EQ(orphan->status_code, 404);
  // The rejected calls changed nothing.
  auto polled = client_->Get("/v1/sessions/" + id);
  ASSERT_TRUE(polled.ok());
  EXPECT_EQ(ParseBody(*polled).Find("total_budget")->GetInt().value(), 10);
}

TEST_F(HttpFrontendTest, SessionIdsAreStableAndDistinct) {
  const std::string body = SerializeFusionRequest(ScriptedRequest());
  auto first = client_->Post("/v1/sessions", body);
  auto second = client_->Post("/v1/sessions", body);
  ASSERT_TRUE(first.ok() && second.ok());
  const std::string id1 =
      ParseBody(*first).Find("session_id")->GetString().value();
  const std::string id2 =
      ParseBody(*second).Find("session_id")->GetString().value();
  EXPECT_NE(id1, id2);
  EXPECT_EQ(id1, "s-1");  // counter-based: the e2e goldens rely on this
  EXPECT_EQ(id2, "s-2");
}

TEST_F(HttpFrontendTest, ErrorMapping) {
  // Unknown route.
  auto missing = client_->Get("/v1/nope");
  ASSERT_TRUE(missing.ok());
  EXPECT_EQ(missing->status_code, 404);
  // Unknown session.
  auto session = client_->Get("/v1/sessions/s-404");
  ASSERT_TRUE(session.ok());
  EXPECT_EQ(session->status_code, 404);
  // Malformed JSON body.
  auto bad_json = client_->Post("/v1/fusion:run", "{not json");
  ASSERT_TRUE(bad_json.ok());
  EXPECT_EQ(bad_json->status_code, 400);
  // Valid JSON, invalid request (bad provider kind) — and the error
  // envelope names the registered alternatives.
  FusionRequest request = ScriptedRequest();
  request.provider.kind = "carrier-pigeon";
  auto bad_kind =
      client_->Post("/v1/fusion:run", SerializeFusionRequest(request));
  ASSERT_TRUE(bad_kind.ok());
  EXPECT_EQ(bad_kind->status_code, 400);
  EXPECT_NE(bad_kind->body.find("carrier-pigeon"), std::string::npos);
  // Wrong method.
  auto wrong_method = client_->Get("/v1/fusion:run");
  ASSERT_TRUE(wrong_method.ok());
  EXPECT_EQ(wrong_method->status_code, 400);
}

TEST_F(HttpFrontendTest, MetricszTracksServingActivity) {
  ASSERT_TRUE(client_->Get("/healthz").ok());
  ASSERT_TRUE(client_->Get("/v1/unknown").ok());  // a rejected request (404)
  ASSERT_TRUE(
      client_
          ->Post("/v1/sessions", SerializeFusionRequest(ScriptedRequest()))
          .ok());
  auto response = client_->Get("/metricsz");
  ASSERT_TRUE(response.ok());
  const JsonValue body = ParseBody(*response);
  EXPECT_GE(body.Find("requests_served")->GetInt().value(), 3);
  // 4xx is the client's mistake, not the server failing: it lands in
  // requests_rejected and leaves requests_failed (5xx only) at zero.
  EXPECT_GE(body.Find("requests_rejected")->GetInt().value(), 1);
  EXPECT_EQ(body.Find("requests_failed")->GetInt().value(), 0);
  EXPECT_EQ(body.Find("sessions_created")->GetInt().value(), 1);
  EXPECT_EQ(body.Find("sessions_active")->GetInt().value(), 1);
  ASSERT_NE(body.Find("p50_handler_ms"), nullptr);
  ASSERT_NE(body.Find("p95_handler_ms"), nullptr);
}

TEST(HttpFrontendUptimeTest, MetricszExportsUptimeAndConnections) {
  common::ManualClock clock(100.0);
  HttpFrontend::Options options;
  options.port = 0;
  options.clock = &clock;
  HttpFrontend frontend(options);
  ASSERT_TRUE(frontend.Start().ok());

  net::HttpClient client(ClientOptions(frontend.port()));
  auto first = client.Get("/metricsz");
  ASSERT_TRUE(first.ok()) << first.status();
  auto first_body = JsonValue::Parse(first->body);
  ASSERT_TRUE(first_body.ok());
  ASSERT_NE(first_body->Find("uptime_seconds"), nullptr);
  const double uptime0 =
      first_body->Find("uptime_seconds")->GetDouble().value();
  EXPECT_GE(uptime0, 0.0);
  const int64_t accepted0 =
      first_body->Find("connections_accepted")->GetInt().value();
  EXPECT_GE(accepted0, 1);

  // Uptime is monotonic on the injected clock...
  clock.AdvanceSeconds(7.5);
  // ...and every fresh client connection bumps the acceptance counter.
  net::HttpClient second_client(ClientOptions(frontend.port()));
  auto second = second_client.Get("/metricsz");
  ASSERT_TRUE(second.ok()) << second.status();
  auto second_body = JsonValue::Parse(second->body);
  ASSERT_TRUE(second_body.ok());
  EXPECT_GE(second_body->Find("uptime_seconds")->GetDouble().value(),
            uptime0 + 7.5);
  EXPECT_GT(second_body->Find("connections_accepted")->GetInt().value(),
            accepted0);

  const HttpFrontend::Metrics metrics = frontend.GetMetrics();
  EXPECT_GE(metrics.uptime_seconds, 7.5);
  EXPECT_GT(metrics.connections_accepted, accepted0);
}

TEST(HttpFrontendTraceTest, RecorderHookCapturesReplayableTrace) {
  const std::string path =
      (std::filesystem::temp_directory_path() / "frontend_trace.jsonl")
          .string();
  common::ManualClock clock(50.0);
  auto recorder = loadgen::TraceRecorder::Open(path, &clock);
  ASSERT_TRUE(recorder.ok()) << recorder.status().ToString();

  HttpFrontend::Options options;
  options.port = 0;
  options.clock = &clock;
  options.trace_recorder = recorder->get();
  {
    HttpFrontend frontend(options);
    ASSERT_TRUE(frontend.Start().ok());
    net::HttpClient client(ClientOptions(frontend.port()));
    ASSERT_TRUE(client.Get("/healthz").ok());
    clock.AdvanceSeconds(0.25);
    const std::string body = SerializeFusionRequest(ScriptedRequest());
    ASSERT_TRUE(client.Post("/v1/fusion:run", body).ok());
    clock.AdvanceSeconds(0.25);
    // Even a 404 is traffic: the recorder sits before routing.
    ASSERT_TRUE(client.Get("/v1/unknown").ok());
    EXPECT_EQ((*recorder)->records_written(), 3);
  }
  recorder->reset();  // close the file before reading it back

  auto trace = loadgen::LoadTraceFile(path);
  ASSERT_TRUE(trace.ok()) << trace.status().ToString();
  ASSERT_EQ(trace->records.size(), 3u);
  EXPECT_DOUBLE_EQ(trace->records[0].t, 0.0);
  EXPECT_EQ(trace->records[0].method, "GET");
  EXPECT_EQ(trace->records[0].target, "/healthz");
  EXPECT_DOUBLE_EQ(trace->records[1].t, 0.25);
  EXPECT_EQ(trace->records[1].method, "POST");
  EXPECT_EQ(trace->records[1].target, "/v1/fusion:run");
  EXPECT_DOUBLE_EQ(trace->records[2].t, 0.5);
  EXPECT_EQ(trace->records[2].target, "/v1/unknown");
  // The recorded fusion body is the exact request the client sent, so a
  // replay reproduces the workload bit-for-bit.
  auto replayed = ParseFusionRequest(trace->records[1].body);
  ASSERT_TRUE(replayed.ok()) << replayed.status().ToString();
  EXPECT_EQ(*replayed, ScriptedRequest());
  std::remove(path.c_str());
}

TEST_F(HttpFrontendTest, MetricszExportsSelectionComputeGauges) {
  // Before any selection ran, the gauges exist and are zero.
  auto before = client_->Get("/metricsz");
  ASSERT_TRUE(before.ok());
  const JsonValue empty = ParseBody(*before);
  ASSERT_NE(empty.Find("selection_computes"), nullptr);
  EXPECT_EQ(empty.Find("selection_computes")->GetInt().value(), 0);
  ASSERT_NE(empty.Find("selection_compute_p50_ms"), nullptr);
  ASSERT_NE(empty.Find("selection_compute_p95_ms"), nullptr);

  // A one-shot run drains its Select() wall times into the window...
  ASSERT_EQ(client_
                ->Post("/v1/fusion:run",
                       SerializeFusionRequest(ScriptedRequest()))
                ->status_code,
            200);
  auto after_run = client_->Get("/metricsz");
  ASSERT_TRUE(after_run.ok());
  const JsonValue ran = ParseBody(*after_run);
  const int64_t after_run_count =
      ran.Find("selection_computes")->GetInt().value();
  EXPECT_GT(after_run_count, 0);
  EXPECT_GT(ran.Find("selection_compute_p50_ms")->GetDouble().value(), 0.0);
  EXPECT_GE(ran.Find("selection_compute_p95_ms")->GetDouble().value(),
            ran.Find("selection_compute_p50_ms")->GetDouble().value());

  // ...and session steps feed the same counter incrementally.
  auto created = client_->Post("/v1/sessions",
                               SerializeFusionRequest(ScriptedRequest()));
  ASSERT_EQ(created->status_code, 201);
  auto created_body = JsonValue::Parse(created->body);
  ASSERT_TRUE(created_body.ok());
  const std::string id =
      created_body->Find("session_id")->GetString().value();
  ASSERT_EQ(client_->Post("/v1/sessions/" + id + "/step", "{}")->status_code,
            200);
  auto after_step = client_->Get("/metricsz");
  ASSERT_TRUE(after_step.ok());
  const JsonValue stepped = ParseBody(*after_step);
  EXPECT_GT(stepped.Find("selection_computes")->GetInt().value(),
            after_run_count);
}

TEST(HttpFrontendTtlTest, IdleSessionsEvictAfterTtlOnTheInjectedClock) {
  common::ManualClock clock;
  HttpFrontend::Options options;
  options.port = 0;
  options.session_ttl_seconds = 60.0;
  options.clock = &clock;
  HttpFrontend frontend(options);
  ASSERT_TRUE(frontend.Start().ok());
  net::HttpClient client(ClientOptions(frontend.port()));

  auto created = client.Post("/v1/sessions",
                             SerializeFusionRequest(ScriptedRequest()));
  ASSERT_TRUE(created.ok());
  ASSERT_EQ(created->status_code, 201);
  auto body = JsonValue::Parse(created->body);
  ASSERT_TRUE(body.ok());
  const std::string id = body->Find("session_id")->GetString().value();

  // Touches within the TTL keep re-arming it.
  clock.AdvanceSeconds(50.0);
  ASSERT_EQ(client.Get("/v1/sessions/" + id)->status_code, 200);
  clock.AdvanceSeconds(50.0);
  ASSERT_EQ(client.Get("/v1/sessions/" + id)->status_code, 200);

  // An idle gap past the TTL evicts.
  clock.AdvanceSeconds(61.0);
  ASSERT_EQ(client.Get("/v1/sessions/" + id)->status_code, 404);
  EXPECT_EQ(frontend.GetMetrics().sessions_evicted, 1);
  EXPECT_EQ(frontend.GetMetrics().sessions_active, 0);
}

TEST(HttpFrontendCapTest, SessionTableCapAnswers429) {
  HttpFrontend::Options options;
  options.port = 0;
  options.max_sessions = 1;
  HttpFrontend frontend(options);
  ASSERT_TRUE(frontend.Start().ok());
  net::HttpClient client(ClientOptions(frontend.port()));
  const std::string body = SerializeFusionRequest(ScriptedRequest());
  ASSERT_EQ(client.Post("/v1/sessions", body)->status_code, 201);
  EXPECT_EQ(client.Post("/v1/sessions", body)->status_code, 429);
}

}  // namespace
}  // namespace crowdfusion::service
