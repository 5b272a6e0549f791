#include "service/http_frontend.h"

#include <algorithm>
#include <utility>
#include <vector>

#include "common/json_util.h"
#include "common/string_util.h"
#include "common/math_util.h"
#include "net/wire.h"
#include "service/request_json.h"

namespace crowdfusion::service {

using common::JsonValue;
using common::Status;
using net::ErrorResponse;
using net::HttpRequest;
using net::HttpResponse;
using net::JsonResponse;

namespace {

/// Window for the latency percentile gauges: big enough to smooth, small
/// enough that /metricsz reflects the recent regime, not all of history.
constexpr size_t kLatencyWindow = 1024;

JsonValue ProgressToJson(const SessionProgress& progress) {
  JsonValue json = JsonValue::MakeObject();
  json.Set("done", progress.done);
  json.Set("steps_completed", progress.steps_completed);
  json.Set("total_cost_spent", progress.total_cost_spent);
  json.Set("total_budget", progress.total_budget);
  json.Set("total_utility_bits", progress.total_utility_bits);
  json.Set("dead_instances", progress.dead_instances);
  return json;
}

}  // namespace

HttpFrontend::HttpFrontend(Options options)
    : options_(options),
      service_(FusionService::Config{.clock = options.clock}),
      server_(net::SyncHandlerAdapter([this](const HttpRequest& request) {
                return Handle(request);
              }),
              static_cast<const net::ServerConfig&>(options)) {}

HttpFrontend::~HttpFrontend() { Stop(); }

common::Status HttpFrontend::Start() {
  CF_RETURN_IF_ERROR(server_.Start());
  start_seconds_ = clock()->NowSeconds();
  return Status::Ok();
}

void HttpFrontend::Stop() { server_.Stop(); }

HttpFrontend::Metrics HttpFrontend::GetMetrics() const {
  Metrics metrics;
  {
    std::lock_guard<std::mutex> lock(metrics_mutex_);
    metrics.requests_served = requests_served_;
    metrics.requests_failed = requests_failed_;
    metrics.requests_rejected = requests_rejected_;
    std::vector<double> sorted(latencies_ms_.begin(), latencies_ms_.end());
    std::sort(sorted.begin(), sorted.end());
    metrics.p50_handler_ms = common::PercentileOfSorted(sorted, 0.50);
    metrics.p95_handler_ms = common::PercentileOfSorted(sorted, 0.95);
    metrics.selection_computes = selection_computes_;
    std::vector<double> selection(selection_compute_ms_.begin(),
                                  selection_compute_ms_.end());
    std::sort(selection.begin(), selection.end());
    metrics.selection_compute_p50_ms =
        common::PercentileOfSorted(selection, 0.50);
    metrics.selection_compute_p95_ms =
        common::PercentileOfSorted(selection, 0.95);
  }
  {
    std::lock_guard<std::mutex> lock(sessions_mutex_);
    metrics.sessions_created = sessions_created_;
    metrics.sessions_evicted = sessions_evicted_;
    metrics.sessions_active = static_cast<int>(sessions_.size());
  }
  metrics.uptime_seconds =
      std::max(0.0, clock()->NowSeconds() - start_seconds_);
  metrics.connections_accepted = server_.connections_accepted();
  metrics.connections_rejected = server_.connections_rejected();
  metrics.requests_shed = server_.requests_shed();
  metrics.connections_current = server_.connections_current();
  return metrics;
}

void HttpFrontend::RecordLatency(double ms, int status_code) {
  std::lock_guard<std::mutex> lock(metrics_mutex_);
  ++requests_served_;
  // 4xx is the client's problem (or admission control doing its job);
  // only 5xx may page anyone.
  if (status_code >= 400 && status_code < 500) {
    ++requests_rejected_;
  } else if (status_code >= 500) {
    ++requests_failed_;
  }
  latencies_ms_.push_back(ms);
  while (latencies_ms_.size() > kLatencyWindow) latencies_ms_.pop_front();
}

void HttpFrontend::RecordSelectionSamples(
    const std::vector<double>& samples_seconds, size_t& exported) {
  if (samples_seconds.size() <= exported) return;
  std::lock_guard<std::mutex> lock(metrics_mutex_);
  for (size_t i = exported; i < samples_seconds.size(); ++i) {
    selection_compute_ms_.push_back(samples_seconds[i] * 1e3);
    ++selection_computes_;
  }
  while (selection_compute_ms_.size() > kLatencyWindow) {
    selection_compute_ms_.pop_front();
  }
  exported = samples_seconds.size();
}

net::HttpResponse HttpFrontend::Handle(const HttpRequest& request) {
  if (options_.trace_recorder != nullptr) {
    options_.trace_recorder->Record(request.method, request.target,
                                    request.body);
  }
  const double start = clock()->NowSeconds();
  HttpResponse response = Route(request);
  const double elapsed_ms = (clock()->NowSeconds() - start) * 1e3;
  RecordLatency(elapsed_ms, response.status_code);
  return response;
}

net::HttpResponse HttpFrontend::Route(const HttpRequest& request) {
  const std::string& target = request.target;
  if (target == "/healthz") {
    if (request.method != "GET") {
      return ErrorResponse(Status::InvalidArgument("healthz is GET-only"));
    }
    JsonValue body = JsonValue::MakeObject();
    body.Set("status", "ok");
    return JsonResponse(200, body);
  }
  if (target == "/metricsz") {
    if (request.method != "GET") {
      return ErrorResponse(Status::InvalidArgument("metricsz is GET-only"));
    }
    const Metrics metrics = GetMetrics();
    JsonValue body = JsonValue::MakeObject();
    body.Set("requests_served", metrics.requests_served);
    body.Set("requests_failed", metrics.requests_failed);
    body.Set("requests_rejected", metrics.requests_rejected);
    body.Set("sessions_created", metrics.sessions_created);
    body.Set("sessions_evicted", metrics.sessions_evicted);
    body.Set("sessions_active", metrics.sessions_active);
    body.Set("p50_handler_ms", metrics.p50_handler_ms);
    body.Set("p95_handler_ms", metrics.p95_handler_ms);
    body.Set("selection_computes", metrics.selection_computes);
    body.Set("selection_compute_p50_ms", metrics.selection_compute_p50_ms);
    body.Set("selection_compute_p95_ms", metrics.selection_compute_p95_ms);
    body.Set("uptime_seconds", metrics.uptime_seconds);
    body.Set("connections_accepted", metrics.connections_accepted);
    body.Set("connections_rejected", metrics.connections_rejected);
    body.Set("requests_shed", metrics.requests_shed);
    body.Set("connections_current", metrics.connections_current);
    return JsonResponse(200, body);
  }
  if (target == "/v1/fusion:run") {
    return HandleRun(request);
  }
  const std::string sessions_prefix = "/v1/sessions";
  if (common::StartsWith(target, sessions_prefix)) {
    return HandleSessions(request, target.substr(sessions_prefix.size()));
  }
  return ErrorResponse(Status::NotFound("no route for " + target));
}

net::HttpResponse HttpFrontend::HandleRun(const HttpRequest& request) {
  if (request.method != "POST") {
    return ErrorResponse(Status::InvalidArgument("fusion:run is POST-only"));
  }
  auto body = net::ParseJsonBody(request);
  if (!body.ok()) return ErrorResponse(body.status());
  auto fusion_request = FusionRequestFromJson(*body);
  if (!fusion_request.ok()) return ErrorResponse(fusion_request.status());
  // CreateSession + Drain (what FusionService::Run does) so the run's
  // selection-compute samples can feed the /metricsz gauges.
  auto session = service_.CreateSession(std::move(fusion_request).value());
  if (!session.ok()) return ErrorResponse(session.status());
  if (Status drained = (*session)->Drain(); !drained.ok()) {
    return ErrorResponse(drained);
  }
  size_t exported = 0;
  RecordSelectionSamples((*session)->selection_compute_samples(), exported);
  std::string response;
  WriteFusionResponse((*session)->Finish(), response);
  return JsonResponse(200, std::move(response));
}

void HttpFrontend::SweepExpiredLocked(double now) {
  for (auto it = sessions_.begin(); it != sessions_.end();) {
    if (it->second->expires_at <= now) {
      it = sessions_.erase(it);
      ++sessions_evicted_;
    } else {
      ++it;
    }
  }
}

std::shared_ptr<HttpFrontend::SessionEntry> HttpFrontend::FindSession(
    const std::string& id) {
  const double now = clock()->NowSeconds();
  std::lock_guard<std::mutex> lock(sessions_mutex_);
  SweepExpiredLocked(now);
  auto it = sessions_.find(id);
  if (it == sessions_.end()) return nullptr;
  // Every touch re-arms the TTL.
  it->second->expires_at = now + options_.session_ttl_seconds;
  return it->second;
}

net::HttpResponse HttpFrontend::HandleSessions(const HttpRequest& request,
                                               const std::string& rest) {
  if (rest.empty()) {
    if (request.method != "POST") {
      return ErrorResponse(
          Status::InvalidArgument("session collection accepts POST only"));
    }
    const auto table_full = [this](double now) {
      std::lock_guard<std::mutex> lock(sessions_mutex_);
      SweepExpiredLocked(now);
      return static_cast<int>(sessions_.size()) >= options_.max_sessions;
    };
    // Admission control FIRST: CreateSession is the expensive part (for
    // "http" providers it registers remote universes), so a full table
    // must answer 429 before any of that work happens.
    if (table_full(clock()->NowSeconds())) {
      return ErrorResponse(Status::ResourceExhausted(common::StrFormat(
          "session table full (%d live sessions)", options_.max_sessions)));
    }
    auto body = net::ParseJsonBody(request);
    if (!body.ok()) return ErrorResponse(body.status());
    auto fusion_request = FusionRequestFromJson(*body);
    if (!fusion_request.ok()) return ErrorResponse(fusion_request.status());
    auto session = service_.CreateSession(std::move(fusion_request).value());
    if (!session.ok()) return ErrorResponse(session.status());

    auto entry = std::make_shared<SessionEntry>();
    entry->session = std::move(session).value();
    const double now = clock()->NowSeconds();
    entry->expires_at = now + options_.session_ttl_seconds;
    {
      std::lock_guard<std::mutex> lock(sessions_mutex_);
      SweepExpiredLocked(now);
      // Re-checked under the lock: concurrent creates may have raced the
      // admission check above.
      if (static_cast<int>(sessions_.size()) >= options_.max_sessions) {
        return ErrorResponse(Status::ResourceExhausted(common::StrFormat(
            "session table full (%d live sessions)", options_.max_sessions)));
      }
      entry->id = common::StrFormat("s-%lld",
                                    static_cast<long long>(next_session_++));
      sessions_[entry->id] = entry;
      ++sessions_created_;
    }
    JsonValue response = JsonValue::MakeObject();
    response.Set("session_id", entry->id);
    response.Set("num_instances", entry->session->num_instances());
    response.Set("ttl_seconds", options_.session_ttl_seconds);
    response.Set("label", entry->session->label());
    return JsonResponse(201, response);
  }

  if (rest.front() != '/') {
    return ErrorResponse(Status::NotFound("no route"));
  }
  const size_t slash = rest.find('/', 1);
  const std::string id = rest.substr(
      1, slash == std::string::npos ? std::string::npos : slash - 1);
  const std::string tail =
      slash == std::string::npos ? std::string() : rest.substr(slash);

  if (tail.empty() && request.method == "DELETE") {
    std::lock_guard<std::mutex> lock(sessions_mutex_);
    SweepExpiredLocked(clock()->NowSeconds());
    sessions_.erase(id);  // idempotent
    return JsonResponse(200, JsonValue::MakeObject());
  }

  std::shared_ptr<SessionEntry> entry = FindSession(id);
  if (entry == nullptr) {
    return ErrorResponse(
        Status::NotFound("unknown or expired session \"" + id + "\""));
  }

  if (tail.empty()) {
    if (request.method != "GET") {
      return ErrorResponse(Status::InvalidArgument(
          "session resource accepts GET and DELETE"));
    }
    std::lock_guard<std::mutex> lock(entry->mutex);
    return JsonResponse(200, ProgressToJson(entry->session->Poll()));
  }

  if (tail == "/step") {
    if (request.method != "POST") {
      return ErrorResponse(Status::InvalidArgument("step is POST-only"));
    }
    std::lock_guard<std::mutex> lock(entry->mutex);
    auto outcomes = entry->session->Step();
    if (!outcomes.ok()) return ErrorResponse(outcomes.status());
    RecordSelectionSamples(entry->session->selection_compute_samples(),
                           entry->selection_samples_exported);
    JsonValue response = JsonValue::MakeObject();
    response.Set("session_id", entry->id);
    response.Set("done", entry->session->done());
    JsonValue array = JsonValue::MakeArray();
    for (const StepOutcome& outcome : *outcomes) {
      array.Append(StepOutcomeToJson(outcome));
    }
    response.Set("outcomes", std::move(array));
    return JsonResponse(200, response);
  }

  if (tail == "/instances") {
    if (request.method != "POST") {
      return ErrorResponse(
          Status::InvalidArgument("instances is POST-only"));
    }
    auto body = net::ParseJsonBody(request);
    if (!body.ok()) return ErrorResponse(body.status());
    auto object = common::JsonRequireObject(*body, "instances request");
    if (!object.ok()) return ErrorResponse(object.status());
    int additional_budget = 0;
    if (auto read = common::JsonReadInt(*body, "additional_budget",
                                        &additional_budget);
        !read.ok()) {
      return ErrorResponse(read);
    }
    const JsonValue* items = body->Find("instances");
    if (items == nullptr || !items->is_array()) {
      return ErrorResponse(
          Status::InvalidArgument("instances must be an array"));
    }
    std::vector<InstanceSpec> specs;
    specs.reserve(items->array().size());
    for (const JsonValue& item : items->array()) {
      auto spec = InstanceSpecFromJson(item);
      if (!spec.ok()) return ErrorResponse(spec.status());
      specs.push_back(std::move(spec).value());
    }
    std::lock_guard<std::mutex> lock(entry->mutex);
    auto first = entry->session->AddInstances(std::move(specs),
                                              additional_budget);
    if (!first.ok()) return ErrorResponse(first.status());
    JsonValue response = JsonValue::MakeObject();
    response.Set("session_id", entry->id);
    response.Set("num_instances", entry->session->num_instances());
    response.Set("first_new_instance", *first);
    response.Set("done", entry->session->done());
    return JsonResponse(200, response);
  }

  if (tail == "/result") {
    if (request.method != "GET") {
      return ErrorResponse(Status::InvalidArgument("result is GET-only"));
    }
    std::lock_guard<std::mutex> lock(entry->mutex);
    std::string body;
    WriteFusionResponse(entry->session->Finish(), body);
    return JsonResponse(200, std::move(body));
  }

  return ErrorResponse(Status::NotFound("no route for " + request.target));
}

}  // namespace crowdfusion::service
