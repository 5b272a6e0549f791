/// The crowd wire's traffic per ticket, counted by a forwarding server
/// that sits between a pipelined session's "http" provider and a
/// LoopbackCrowdServer: a ticket costs its submit and one :take per
/// collect, the last of which carries the answers. No status GET is sent.

#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "common/json.h"
#include "common/string_util.h"
#include "core/running_example.h"
#include "net/http_client.h"
#include "net/http_server.h"
#include "net/loopback_crowd_server.h"
#include "net/wire.h"
#include "service/fusion_service.h"
#include "support/status_printing.h"

namespace crowdfusion::net {
namespace {

/// One forwarded request and the body it was answered with.
struct Exchange {
  std::string method;
  std::string target;
  std::string response_body;
};

HttpClient::Options Upstream(int port) {
  HttpClient::Options options;
  options.port = port;
  return options;
}

/// Forwards every request to one upstream server and logs it.
class CountingProxy {
 public:
  explicit CountingProxy(int upstream_port)
      : client_(Upstream(upstream_port)) {}

  common::Status Start() {
    server_ = std::make_unique<HttpServer>(
        SyncHandlerAdapter(
            [this](const HttpRequest& request) { return Forward(request); }),
        HttpServer::Options());
    return server_->Start();
  }
  std::string endpoint() const {
    return common::StrFormat("127.0.0.1:%d", server_->port());
  }
  std::vector<Exchange> log() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return log_;
  }

 private:
  HttpResponse Forward(const HttpRequest& request) {
    auto forwarded = client_.Call(request);
    const HttpResponse response =
        forwarded.ok() ? *forwarded : ErrorResponse(forwarded.status());
    std::lock_guard<std::mutex> lock(mutex_);
    log_.push_back({request.method, request.target, response.body});
    return response;
  }

  HttpClient client_;
  mutable std::mutex mutex_;
  std::vector<Exchange> log_;
  std::unique_ptr<HttpServer> server_;  // last: stops before the log goes
};

/// The exchanges of each ticket, in order, keyed by ticket id: the submit
/// (matched through its {"ticket": n} answer), then every request whose
/// path names the ticket.
std::map<int64_t, std::vector<Exchange>> ByTicket(
    const std::vector<Exchange>& log) {
  std::map<int64_t, std::vector<Exchange>> tickets;
  for (const Exchange& exchange : log) {
    const std::string& target = exchange.target;
    const size_t at = target.find("/tickets");
    if (at == std::string::npos) continue;
    if (at + 8 == target.size()) {  // the submit: POST .../tickets
      auto body = common::JsonValue::Parse(exchange.response_body);
      EXPECT_TRUE(body.ok()) << exchange.response_body;
      if (!body.ok()) continue;
      const common::JsonValue* ticket = body->Find("ticket");
      EXPECT_NE(ticket, nullptr) << exchange.response_body;
      if (ticket == nullptr) continue;
      tickets[ticket->GetInt().value()].push_back(exchange);
      continue;
    }
    tickets[std::stoll(target.substr(at + 9))].push_back(exchange);
  }
  return tickets;
}

bool IsTake(const Exchange& exchange) {
  return exchange.method == "POST" && exchange.target.ends_with(":take");
}

bool HasPhase(const Exchange& exchange, const std::string& phase) {
  return exchange.response_body.find("\"phase\":\"" + phase + "\"") !=
         std::string::npos;
}

bool HasAnswers(const Exchange& exchange) {
  return exchange.response_body.find("\"answers\":[") != std::string::npos;
}

/// Runs a one-book pipelined session over the "http" kind through a
/// counting proxy and returns what the proxy saw.
std::vector<Exchange> RunOneBook(double latency_median_seconds) {
  LoopbackCrowdServer crowd;  // port 0
  EXPECT_TRUE(crowd.Start().ok());
  CountingProxy proxy(crowd.port());
  EXPECT_TRUE(proxy.Start().ok());

  service::FusionRequest request;
  request.mode = service::RunMode::kPipelined;
  service::InstanceSpec instance;
  instance.name = "hong-kong";
  instance.joint = core::RunningExample::Joint();
  instance.truths = {true, true, true, false};
  request.instances.push_back(std::move(instance));
  request.provider.kind = "http";
  request.provider.endpoint = proxy.endpoint();
  request.provider.seed = 7;
  request.provider.latency_median_seconds = latency_median_seconds;
  request.provider.latency_sigma = 0.0;
  request.budget.budget_per_instance = 4;
  request.budget.tasks_per_step = 1;
  service::FusionService service;
  auto response = service.Run(std::move(request));
  EXPECT_TRUE(response.ok()) << response.status();
  if (response.ok()) {
    EXPECT_EQ(response->total_cost_spent, 4);
  }
  return proxy.log();
}

TEST(CrowdTrafficTest, ZeroLatencyTicketCostsSubmitAndOneTake) {
  const auto tickets = ByTicket(RunOneBook(/*latency_median_seconds=*/0.0));
  EXPECT_EQ(tickets.size(), 4u);  // one task per ticket, budget 4
  for (const auto& [id, exchanges] : tickets) {
    ASSERT_EQ(exchanges.size(), 2u) << "ticket " << id;
    EXPECT_EQ(exchanges[0].method, "POST") << "ticket " << id;
    EXPECT_TRUE(IsTake(exchanges[1])) << exchanges[1].target;
    EXPECT_TRUE(HasPhase(exchanges[1], "ready")) << exchanges[1].response_body;
    EXPECT_TRUE(HasAnswers(exchanges[1])) << exchanges[1].response_body;
  }
}

TEST(CrowdTrafficTest, InFlightTakesEndInOneTakeWithTheAnswers) {
  const std::vector<Exchange> log = RunOneBook(/*latency_median_seconds=*/0.05);
  for (const Exchange& exchange : log) {
    EXPECT_FALSE(exchange.method == "GET" &&
                 exchange.target.find("/tickets/") != std::string::npos)
        << "ticket GET " << exchange.target;
  }
  const auto tickets = ByTicket(log);
  EXPECT_EQ(tickets.size(), 4u);
  for (const auto& [id, exchanges] : tickets) {
    ASSERT_GE(exchanges.size(), 3u) << "ticket " << id;
    EXPECT_EQ(exchanges.front().method, "POST") << "ticket " << id;
    // :take requests that report the ticket in flight, then exactly one
    // that carries the answers.
    const size_t n = exchanges.size();
    for (size_t i = 1; i + 1 < n; ++i) {
      EXPECT_TRUE(IsTake(exchanges[i])) << exchanges[i].target;
      EXPECT_TRUE(HasPhase(exchanges[i], "in_flight"))
          << exchanges[i].response_body;
      EXPECT_FALSE(HasAnswers(exchanges[i])) << exchanges[i].response_body;
    }
    EXPECT_TRUE(IsTake(exchanges[n - 1])) << exchanges[n - 1].target;
    EXPECT_TRUE(HasPhase(exchanges[n - 1], "ready"))
        << exchanges[n - 1].response_body;
    EXPECT_TRUE(HasAnswers(exchanges[n - 1])) << exchanges[n - 1].response_body;
  }
}

}  // namespace
}  // namespace crowdfusion::net
