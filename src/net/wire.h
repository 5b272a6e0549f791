#ifndef CROWDFUSION_NET_WIRE_H_
#define CROWDFUSION_NET_WIRE_H_

#include <string>

#include "common/json.h"
#include "common/status.h"
#include "core/async_provider.h"
#include "core/registry.h"
#include "net/http.h"

namespace crowdfusion::net {

/// JSON-over-HTTP conventions shared by every wire in this repo (the
/// serving front-end, the crowd ticket protocol, and their clients):
///
///  * Success bodies are JSON objects; errors are
///    {"error": {"code": "<StatusCodeName>", "message": "..."}} with the
///    HTTP status mapped from the StatusCode, so a common::Status survives
///    a round trip over the wire with code and message intact.
///  * Requests and responses are Content-Type: application/json.

/// HTTP status for a StatusCode (InvalidArgument -> 400, NotFound -> 404,
/// DeadlineExceeded -> 408, ResourceExhausted -> 429, Unavailable -> 503,
/// everything else -> 500; Ok -> 200).
int HttpStatusFromCode(common::StatusCode code);

/// The {"error": {...}} envelope.
common::JsonValue StatusToJson(const common::Status& status);

/// Reconstructs a Status from an error envelope (or from a bare HTTP
/// status when the body carries no envelope — `fallback_http_status`
/// picks the code then).
common::Status StatusFromJson(const common::JsonValue& body,
                              int fallback_http_status);

/// 200/xx response carrying a JSON body.
HttpResponse JsonResponse(int status_code, const common::JsonValue& body);
/// Same, for a body already serialized as JSON (e.g. by a JsonWriter).
HttpResponse JsonResponse(int status_code, std::string body);

/// Error response for a non-OK status.
HttpResponse ErrorResponse(const common::Status& status);

/// Parses a request body as one JSON document.
common::Result<common::JsonValue> ParseJsonBody(const HttpRequest& request);

/// Interprets an HTTP response under the conventions above: 2xx parses
/// the body as JSON; anything else reconstructs the transported Status.
common::Result<common::JsonValue> ExpectJson(const HttpResponse& response);

/// "host:port" spelling used by ProviderSpec::endpoint.
struct Endpoint {
  std::string host;
  int port = 0;
};
common::Result<Endpoint> ParseEndpoint(const std::string& text);

/// (Universe configs — remote provider templates — travel as
/// core::ProviderSpecToJson documents; see core/spec_json.h. One field
/// list serves the service request wire and this one.)

common::JsonValue TicketOptionsToJson(const core::TicketOptions& options);
common::Result<core::TicketOptions> TicketOptionsFromJson(
    const common::JsonValue& json);

}  // namespace crowdfusion::net

#endif  // CROWDFUSION_NET_WIRE_H_
