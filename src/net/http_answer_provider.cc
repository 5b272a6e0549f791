#include "net/http_answer_provider.h"

#include <cmath>
#include <memory>
#include <vector>

#include "common/string_util.h"
#include "core/spec_json.h"
#include "net/wire.h"

namespace crowdfusion::net {

using common::JsonValue;
using common::Status;

namespace {

common::Result<core::TicketPhase> ParsePhase(const std::string& name) {
  if (name == "in_flight") return core::TicketPhase::kInFlight;
  if (name == "ready") return core::TicketPhase::kReady;
  if (name == "failed") return core::TicketPhase::kFailed;
  return Status::Unavailable("platform reported unknown ticket phase \"" +
                             name + "\"");
}

}  // namespace

HttpAnswerProvider::HttpAnswerProvider(Options options)
    : options_(options), client_([&options] {
        HttpClient::Options client_options;
        client_options.host = options.host;
        client_options.port = options.port;
        client_options.timeout_seconds = options.request_timeout_seconds;
        return client_options;
      }()) {}

HttpAnswerProvider::~HttpAnswerProvider() {
  if (owns_universe_ && !options_.universe.empty()) {
    (void)client_.Delete("/v1/universes/" + options_.universe);
  }
}

common::Status HttpAnswerProvider::CreateUniverse(
    const core::ProviderSpec& spec) {
  CF_ASSIGN_OR_RETURN(
      const HttpResponse response,
      client_.Post("/v1/universes", core::ProviderSpecToJson(spec).Dump()));
  CF_ASSIGN_OR_RETURN(const JsonValue body, ExpectJson(response));
  CF_ASSIGN_OR_RETURN(const JsonValue* universe, body.Get("universe"));
  CF_ASSIGN_OR_RETURN(options_.universe, universe->GetString());
  owns_universe_ = true;
  return Status::Ok();
}

std::string HttpAnswerProvider::TicketPath(core::TicketId ticket,
                                           const char* suffix) const {
  return common::StrFormat("/v1/universes/%s/tickets/%lld%s",
                           options_.universe.c_str(),
                           static_cast<long long>(ticket), suffix);
}

common::Result<core::TicketId> HttpAnswerProvider::Submit(
    std::span<const int> fact_ids, const core::TicketOptions& options) {
  if (options_.universe.empty()) {
    return Status::FailedPrecondition(
        "no universe bound; call CreateUniverse first");
  }
  JsonValue body = JsonValue::MakeObject();
  JsonValue ids = JsonValue::MakeArray();
  for (const int id : fact_ids) ids.Append(JsonValue(id));
  body.Set("fact_ids", std::move(ids));
  body.Set("options", TicketOptionsToJson(options));
  CF_ASSIGN_OR_RETURN(
      const HttpResponse response,
      client_.Post("/v1/universes/" + options_.universe + "/tickets",
                   body.Dump()));
  CF_ASSIGN_OR_RETURN(const JsonValue parsed, ExpectJson(response));
  CF_ASSIGN_OR_RETURN(const JsonValue* ticket, parsed.Get("ticket"));
  CF_ASSIGN_OR_RETURN(const int64_t id, ticket->GetInt());
  return static_cast<core::TicketId>(id);
}

common::Result<core::TicketStatus> HttpAnswerProvider::Collect(
    core::TicketId ticket) {
  CF_ASSIGN_OR_RETURN(const HttpResponse response,
                      client_.Post(TicketPath(ticket, ":take"), "{}"));
  CF_ASSIGN_OR_RETURN(const JsonValue body, ExpectJson(response));
  core::TicketStatus status;
  CF_ASSIGN_OR_RETURN(const JsonValue* phase, body.Get("phase"));
  CF_ASSIGN_OR_RETURN(const std::string phase_name, phase->GetString());
  CF_ASSIGN_OR_RETURN(status.phase, ParsePhase(phase_name));
  if (const JsonValue* attempts = body.Find("attempts_used")) {
    CF_ASSIGN_OR_RETURN(const int64_t value, attempts->GetInt());
    status.attempts_used = static_cast<int>(value);
  }
  if (const JsonValue* eta = body.Find("seconds_until_ready")) {
    CF_ASSIGN_OR_RETURN(status.seconds_until_ready, eta->GetDouble());
  }
  const double eta = status.seconds_until_ready;
  if (status.phase == core::TicketPhase::kInFlight &&
      !(std::isfinite(eta) && eta >= 0)) {
    return Status::Unavailable("platform reported an invalid ETA");
  }
  if (status.phase == core::TicketPhase::kReady) {
    CF_ASSIGN_OR_RETURN(const JsonValue* answers, body.Get("answers"));
    if (!answers->is_array()) {
      return Status::Unavailable("platform returned non-array answers");
    }
    status.answers.reserve(answers->array().size());
    for (const JsonValue& item : answers->array()) {
      CF_ASSIGN_OR_RETURN(const bool value, item.GetBool());
      status.answers.push_back(value);
    }
  }
  if (status.phase == core::TicketPhase::kFailed) {
    const JsonValue* error = body.Find("error");
    status.error = error != nullptr
                       ? StatusFromJson(*error, 500)
                       : Status::Unavailable("platform reported failure");
  }
  return status;
}

void HttpAnswerProvider::Cancel(core::TicketId ticket) {
  (void)client_.Delete(TicketPath(ticket, ""));
}

std::pair<int64_t, int64_t> HttpAnswerProvider::ServedCorrect() {
  auto response = client_.Get("/v1/universes/" + options_.universe + "/stats");
  if (!response.ok()) return {0, 0};
  auto body = ExpectJson(*response);
  if (!body.ok()) return {0, 0};
  int64_t served = 0;
  int64_t correct = 0;
  if (const JsonValue* value = body->Find("answers_served")) {
    if (auto parsed = value->GetInt(); parsed.ok()) served = *parsed;
  }
  if (const JsonValue* value = body->Find("answers_correct")) {
    if (auto parsed = value->GetInt(); parsed.ok()) correct = *parsed;
  }
  return {served, correct};
}

common::Status RegisterHttpProvider(core::ProviderRegistry& registry) {
  return registry.Register(
      "http",
      [](const core::ProviderSpec& spec)
          -> common::Result<std::shared_ptr<core::AsyncAnswerProvider>> {
        if (spec.endpoint.empty()) {
          return Status::InvalidArgument(
              "http provider requires an \"endpoint\" (host:port) naming "
              "the crowd platform");
        }
        CF_ASSIGN_OR_RETURN(const Endpoint endpoint,
                            ParseEndpoint(spec.endpoint));
        HttpAnswerProvider::Options options;
        options.host = endpoint.host;
        options.port = endpoint.port;
        auto provider = std::make_shared<HttpAnswerProvider>(options);

        // The universe template is the spec itself, minus the transport
        // fields: the platform hosts the concrete provider (default:
        // simulated_crowd) that this spec describes.
        core::ProviderSpec universe_spec = spec;
        universe_spec.kind = spec.universe_kind.empty()
                                 ? "simulated_crowd"
                                 : spec.universe_kind;
        universe_spec.endpoint.clear();
        universe_spec.endpoints.clear();
        universe_spec.await_timeout_seconds = 0.0;
        CF_RETURN_IF_ERROR(provider->CreateUniverse(universe_spec));
        return std::shared_ptr<core::AsyncAnswerProvider>(
            std::move(provider));
      });
}

}  // namespace crowdfusion::net
