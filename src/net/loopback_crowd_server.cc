#include "net/loopback_crowd_server.h"

#include <charconv>
#include <tuple>
#include <utility>
#include <vector>

#include "common/string_util.h"
#include "core/spec_json.h"
#include "crowd/provider_registry.h"
#include "net/wire.h"

namespace crowdfusion::net {

using common::JsonValue;
using common::Status;

namespace {

common::Result<core::TicketId> ParseTicketId(std::string_view text) {
  core::TicketId ticket = 0;
  const auto [ptr, ec] =
      std::from_chars(text.data(), text.data() + text.size(), ticket);
  if (ec != std::errc() || ptr != text.data() + text.size()) {
    return Status::InvalidArgument("malformed ticket id");
  }
  return ticket;
}

const char* PhaseName(core::TicketPhase phase) {
  switch (phase) {
    case core::TicketPhase::kInFlight:
      return "in_flight";
    case core::TicketPhase::kReady:
      return "ready";
    case core::TicketPhase::kFailed:
      return "failed";
  }
  return "unknown";
}

}  // namespace

LoopbackCrowdServer::LoopbackCrowdServer()
    : LoopbackCrowdServer(Options()) {}

LoopbackCrowdServer::LoopbackCrowdServer(Options options)
    : options_(options),
      registry_(crowd::FullProviderRegistry(options.clock)),
      server_(SyncHandlerAdapter([this](const HttpRequest& request) {
                return Handle(request);
              }),
              static_cast<const ServerConfig&>(options)) {}

LoopbackCrowdServer::~LoopbackCrowdServer() { Stop(); }

common::Status LoopbackCrowdServer::Start() { return server_.Start(); }

void LoopbackCrowdServer::Stop() { server_.Stop(); }

std::string LoopbackCrowdServer::endpoint() const {
  return common::StrFormat("%s:%d", options_.host.c_str(), server_.port());
}

int64_t LoopbackCrowdServer::universes_live() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return static_cast<int64_t>(universes_.size());
}

int64_t LoopbackCrowdServer::tickets_submitted() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return tickets_submitted_;
}

HttpResponse LoopbackCrowdServer::Handle(const HttpRequest& request) {
  // Route on the path only (no query strings on this wire).
  const std::string& target = request.target;
  if (target == "/healthz") {
    if (request.method != "GET") {
      return ErrorResponse(Status::InvalidArgument("healthz is GET-only"));
    }
    JsonValue body = JsonValue::MakeObject();
    body.Set("status", "ok");
    return JsonResponse(200, body);
  }
  const std::string prefix = "/v1/universes";
  if (common::StartsWith(target, prefix)) {
    return HandleUniverses(request, target.substr(prefix.size()));
  }
  return ErrorResponse(Status::NotFound("no route for " + target));
}

/// `rest` is the target after "/v1/universes": "" for the collection,
/// "/{u}", "/{u}/stats", "/{u}/tickets", "/{u}/tickets/{t}[:take]".
HttpResponse LoopbackCrowdServer::HandleUniverses(const HttpRequest& request,
                                                 const std::string& rest) {
  if (rest.empty()) {
    if (request.method != "POST") {
      return ErrorResponse(
          Status::InvalidArgument("universe collection accepts POST only"));
    }
    auto body = ParseJsonBody(request);
    if (!body.ok()) return ErrorResponse(body.status());
    auto spec = core::ProviderSpecFromJson(*body);
    if (!spec.ok()) return ErrorResponse(spec.status());
    if (spec->kind == "http") {
      return ErrorResponse(Status::InvalidArgument(
          "a crowd server cannot host \"http\" universes (that would "
          "recurse); register a concrete provider kind"));
    }
    auto provider = registry_.Create(spec->kind, *spec);
    if (!provider.ok()) return ErrorResponse(provider.status());

    auto universe = std::make_shared<Universe>();
    universe->provider = std::move(provider).value();

    std::string id;
    {
      std::lock_guard<std::mutex> lock(mutex_);
      id = common::StrFormat("u-%lld",
                             static_cast<long long>(next_universe_++));
      universes_[id] = std::move(universe);
    }
    JsonValue response = JsonValue::MakeObject();
    response.Set("universe", id);
    return JsonResponse(201, response);
  }

  if (rest.front() != '/') {
    return ErrorResponse(Status::NotFound("no route"));
  }
  const size_t slash = rest.find('/', 1);
  const std::string universe_id =
      rest.substr(1, slash == std::string::npos ? std::string::npos
                                                : slash - 1);
  std::shared_ptr<Universe> universe;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    auto it = universes_.find(universe_id);
    if (it != universes_.end()) universe = it->second;
  }

  const std::string tail =
      slash == std::string::npos ? std::string() : rest.substr(slash);

  if (tail.empty()) {
    if (request.method == "DELETE") {
      std::lock_guard<std::mutex> lock(mutex_);
      universes_.erase(universe_id);  // idempotent
      return JsonResponse(200, JsonValue::MakeObject());
    }
    return ErrorResponse(
        Status::InvalidArgument("universe resource accepts DELETE only"));
  }

  if (universe == nullptr) {
    return ErrorResponse(
        Status::NotFound("unknown universe \"" + universe_id + "\""));
  }

  if (tail == "/stats") {
    if (request.method != "GET") {
      return ErrorResponse(Status::InvalidArgument("stats is GET-only"));
    }
    int64_t served = 0;
    int64_t correct = 0;
    {
      std::lock_guard<std::mutex> lock(universe->mutex);
      std::tie(served, correct) = universe->provider->ServedCorrect();
    }
    JsonValue body = JsonValue::MakeObject();
    body.Set("answers_served", served);
    body.Set("answers_correct", correct);
    return JsonResponse(200, body);
  }

  if (tail == "/tickets") {
    if (request.method != "POST") {
      return ErrorResponse(
          Status::InvalidArgument("ticket collection accepts POST only"));
    }
    auto body = ParseJsonBody(request);
    if (!body.ok()) return ErrorResponse(body.status());
    const JsonValue* fact_ids = body->Find("fact_ids");
    if (fact_ids == nullptr || !fact_ids->is_array()) {
      return ErrorResponse(
          Status::InvalidArgument("submit needs a \"fact_ids\" array"));
    }
    std::vector<int> ids;
    ids.reserve(fact_ids->array().size());
    for (const JsonValue& item : fact_ids->array()) {
      auto id = item.GetInt();
      if (!id.ok()) return ErrorResponse(id.status());
      ids.push_back(static_cast<int>(*id));
    }
    core::TicketOptions ticket_options;
    if (const JsonValue* options_json = body->Find("options")) {
      auto parsed = TicketOptionsFromJson(*options_json);
      if (!parsed.ok()) return ErrorResponse(parsed.status());
      ticket_options = *parsed;
    }
    common::Result<core::TicketId> ticket =
        Status::Internal("unreachable");
    {
      std::lock_guard<std::mutex> lock(universe->mutex);
      ticket = universe->provider->Submit(ids, ticket_options);
    }
    if (!ticket.ok()) return ErrorResponse(ticket.status());
    {
      std::lock_guard<std::mutex> lock(mutex_);
      ++tickets_submitted_;
    }
    JsonValue response = JsonValue::MakeObject();
    response.Set("ticket", static_cast<int64_t>(*ticket));
    return JsonResponse(201, response);
  }

  const std::string tickets_prefix = "/tickets/";
  if (common::StartsWith(tail, tickets_prefix) &&
      tail.size() > tickets_prefix.size()) {
    std::string ticket_text = tail.substr(tickets_prefix.size());
    const bool take = ticket_text.size() > 5 &&
                      ticket_text.substr(ticket_text.size() - 5) == ":take";
    if (take) ticket_text.resize(ticket_text.size() - 5);
    auto ticket = ParseTicketId(ticket_text);
    if (!ticket.ok()) return ErrorResponse(ticket.status());

    if (take) {
      if (request.method != "POST") {
        return ErrorResponse(Status::InvalidArgument(":take is POST-only"));
      }
      std::lock_guard<std::mutex> lock(universe->mutex);
      // The poll reads attempts_used; Take answers FailedPrecondition for
      // a ticket still in flight, so the client owns the waiting.
      auto poll = universe->provider->Poll(*ticket);
      if (!poll.ok()) return ErrorResponse(poll.status());
      auto answers = universe->provider->Take(*ticket);
      if (!answers.ok()) return ErrorResponse(answers.status());
      JsonValue response = JsonValue::MakeObject();
      JsonValue array = JsonValue::MakeArray();
      for (const bool answer : *answers) array.Append(JsonValue(answer));
      response.Set("answers", std::move(array));
      response.Set("attempts_used", poll->attempts_used);
      return JsonResponse(200, response);
    }

    if (request.method == "GET") {
      std::lock_guard<std::mutex> lock(universe->mutex);
      auto poll = universe->provider->Poll(*ticket);
      if (!poll.ok()) return ErrorResponse(poll.status());
      JsonValue response = JsonValue::MakeObject();
      response.Set("phase", PhaseName(poll->phase));
      response.Set("attempts_used", poll->attempts_used);
      response.Set("seconds_until_ready", poll->seconds_until_ready);
      if (poll->phase == core::TicketPhase::kFailed) {
        response.Set("error", StatusToJson(poll->error));
      }
      return JsonResponse(200, response);
    }
    if (request.method == "DELETE") {
      std::lock_guard<std::mutex> lock(universe->mutex);
      universe->provider->Cancel(*ticket);
      return JsonResponse(200, JsonValue::MakeObject());
    }
    return ErrorResponse(
        Status::InvalidArgument("tickets accept GET, POST :take, DELETE"));
  }

  return ErrorResponse(Status::NotFound("no route for " + request.target));
}

}  // namespace crowdfusion::net
