#include "net/wire.h"

#include <charconv>
#include <limits>
#include <utility>

#include "common/json_util.h"
#include "common/string_util.h"

namespace crowdfusion::net {

using common::JsonValue;
using common::Status;
using common::StatusCode;

int HttpStatusFromCode(StatusCode code) {
  switch (code) {
    case StatusCode::kOk:
      return 200;
    case StatusCode::kInvalidArgument:
    case StatusCode::kOutOfRange:
      return 400;
    case StatusCode::kFailedPrecondition:
      return 409;
    case StatusCode::kNotFound:
      return 404;
    case StatusCode::kResourceExhausted:
      return 429;
    case StatusCode::kDeadlineExceeded:
      return 408;
    case StatusCode::kUnavailable:
      return 503;
    case StatusCode::kInternal:
      return 500;
  }
  return 500;
}

namespace {

common::Result<StatusCode> ParseStatusCodeName(const std::string& name) {
  static constexpr StatusCode kCodes[] = {
      StatusCode::kOk,           StatusCode::kInvalidArgument,
      StatusCode::kOutOfRange,   StatusCode::kFailedPrecondition,
      StatusCode::kNotFound,     StatusCode::kResourceExhausted,
      StatusCode::kInternal,     StatusCode::kDeadlineExceeded,
      StatusCode::kUnavailable,
  };
  for (const StatusCode code : kCodes) {
    if (name == common::StatusCodeName(code)) return code;
  }
  return Status::InvalidArgument("unknown status code name \"" + name + "\"");
}

Status MakeStatus(StatusCode code, std::string message) {
  switch (code) {
    case StatusCode::kOk:
      return Status::Ok();
    case StatusCode::kInvalidArgument:
      return Status::InvalidArgument(std::move(message));
    case StatusCode::kOutOfRange:
      return Status::OutOfRange(std::move(message));
    case StatusCode::kFailedPrecondition:
      return Status::FailedPrecondition(std::move(message));
    case StatusCode::kNotFound:
      return Status::NotFound(std::move(message));
    case StatusCode::kResourceExhausted:
      return Status::ResourceExhausted(std::move(message));
    case StatusCode::kDeadlineExceeded:
      return Status::DeadlineExceeded(std::move(message));
    case StatusCode::kUnavailable:
      return Status::Unavailable(std::move(message));
    case StatusCode::kInternal:
      return Status::Internal(std::move(message));
  }
  return Status::Internal(std::move(message));
}

StatusCode CodeForHttpStatus(int http_status) {
  switch (http_status) {
    case 400:
      return StatusCode::kInvalidArgument;
    case 404:
    case 410:
      return StatusCode::kNotFound;
    case 408:
      return StatusCode::kDeadlineExceeded;
    case 409:
      return StatusCode::kFailedPrecondition;
    case 413:
    case 429:
    case 431:
      return StatusCode::kResourceExhausted;
    case 503:
      return StatusCode::kUnavailable;
    default:
      return StatusCode::kInternal;
  }
}

}  // namespace

JsonValue StatusToJson(const Status& status) {
  JsonValue error = JsonValue::MakeObject();
  error.Set("code", common::StatusCodeName(status.code()));
  error.Set("message", status.message());
  JsonValue body = JsonValue::MakeObject();
  body.Set("error", std::move(error));
  return body;
}

Status StatusFromJson(const JsonValue& body, int fallback_http_status) {
  if (const JsonValue* error = body.Find("error")) {
    std::string name;
    std::string message;
    if (const JsonValue* code = error->Find("code"); code != nullptr) {
      if (auto text = code->GetString(); text.ok()) name = *text;
    }
    if (const JsonValue* text = error->Find("message"); text != nullptr) {
      if (auto value = text->GetString(); value.ok()) message = *value;
    }
    if (auto code = ParseStatusCodeName(name); code.ok()) {
      return MakeStatus(*code, std::move(message));
    }
  }
  return MakeStatus(CodeForHttpStatus(fallback_http_status),
                    common::StrFormat("HTTP %d", fallback_http_status));
}

HttpResponse JsonResponse(int status_code, const JsonValue& body) {
  return JsonResponse(status_code, body.Dump());
}

HttpResponse JsonResponse(int status_code, std::string body) {
  HttpResponse response;
  response.status_code = status_code;
  response.headers.push_back({"Content-Type", "application/json"});
  response.body = std::move(body);
  return response;
}

HttpResponse ErrorResponse(const Status& status) {
  return JsonResponse(HttpStatusFromCode(status.code()),
                      StatusToJson(status));
}

common::Result<JsonValue> ParseJsonBody(const HttpRequest& request) {
  if (request.body.empty()) {
    return Status::InvalidArgument("request body must be a JSON document");
  }
  return JsonValue::Parse(request.body);
}

common::Result<JsonValue> ExpectJson(const HttpResponse& response) {
  if (response.status_code >= 200 && response.status_code < 300) {
    auto body = JsonValue::Parse(response.body);
    if (!body.ok()) {
      return Status::Unavailable("malformed JSON from server: " +
                                 body.status().message());
    }
    return body;
  }
  if (auto body = JsonValue::Parse(response.body); body.ok()) {
    return StatusFromJson(*body, response.status_code);
  }
  return MakeStatus(CodeForHttpStatus(response.status_code),
                    common::StrFormat("HTTP %d", response.status_code));
}

common::Result<Endpoint> ParseEndpoint(const std::string& text) {
  const size_t colon = text.rfind(':');
  if (colon == std::string::npos || colon == 0 ||
      colon + 1 == text.size()) {
    return Status::InvalidArgument("endpoint must be \"host:port\", got \"" +
                                   text + "\"");
  }
  Endpoint endpoint;
  endpoint.host = text.substr(0, colon);
  const std::string_view port_text = std::string_view(text).substr(colon + 1);
  const auto [ptr, ec] = std::from_chars(
      port_text.data(), port_text.data() + port_text.size(), endpoint.port);
  if (ec != std::errc() || ptr != port_text.data() + port_text.size() ||
      endpoint.port < 1 || endpoint.port > 65535) {
    return Status::InvalidArgument("bad endpoint port in \"" + text + "\"");
  }
  return endpoint;
}

JsonValue TicketOptionsToJson(const core::TicketOptions& options) {
  JsonValue json = JsonValue::MakeObject();
  json.Set("deadline_seconds", options.deadline_seconds);
  json.Set("max_attempts", options.max_attempts);
  json.Set("retry_backoff_seconds", options.retry_backoff_seconds);
  return json;
}

common::Result<core::TicketOptions> TicketOptionsFromJson(
    const JsonValue& json) {
  if (!json.is_object()) {
    return Status::InvalidArgument("ticket options must be an object");
  }
  core::TicketOptions options;
  CF_RETURN_IF_ERROR(common::JsonReadDouble(json, "deadline_seconds",
                                            &options.deadline_seconds));
  CF_RETURN_IF_ERROR(
      common::JsonReadInt(json, "max_attempts", &options.max_attempts));
  CF_RETURN_IF_ERROR(common::JsonReadDouble(json, "retry_backoff_seconds",
                                            &options.retry_backoff_seconds));
  return options;
}

}  // namespace crowdfusion::net
