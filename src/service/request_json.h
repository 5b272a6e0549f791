#ifndef CROWDFUSION_SERVICE_REQUEST_JSON_H_
#define CROWDFUSION_SERVICE_REQUEST_JSON_H_

#include <span>
#include <string>
#include <string_view>

#include "common/json.h"
#include "common/status.h"
#include "service/fusion_service.h"

namespace crowdfusion::service {

/// JSON wire format of the service boundary, so a future HTTP/queue
/// front-end is a parse -> FusionService::Run -> dump shim.
///
/// Contract (pinned by the round-trip fuzz tests):
///  * Lossless: parse(dump(request)) == request for every representable
///    request, including inline joints (masks travel as decimal strings,
///    probabilities in their shortest round-trip spelling) and 64-bit
///    seeds (emitted as integers when they fit in int64, as decimal
///    strings otherwise; both spellings parse).
///  * Tolerant of missing members: absent fields keep their C++ defaults,
///    so a minimal request is just {"schema": ..., "mode": "engine", ...}.
///  * Strict about types and enum spellings: a wrong-typed member or an
///    unknown mode/policy/kind string is kInvalidArgument, never a crash.
///  * "mode": "blocking" is an alias: it parses as kPipelined with
///    pipeline.max_in_flight forced to 1 and dumps as "pipelined".

inline constexpr const char* kRequestSchema = "crowdfusion-request-v1";
inline constexpr const char* kResponseSchema = "crowdfusion-response-v1";

common::JsonValue FusionRequestToJson(const FusionRequest& request);
common::Result<FusionRequest> FusionRequestFromJson(
    const common::JsonValue& json);

/// Convenience string forms (Dump with 2-space indent / Parse).
std::string SerializeFusionRequest(const FusionRequest& request);
common::Result<FusionRequest> ParseFusionRequest(const std::string& text);

/// The reference encoder: the tree the tests and the traced replay read.
/// The served paths write through WriteFusionResponse instead.
common::JsonValue FusionResponseToJson(const FusionResponse& response);

/// Appends the compact JSON of `response` to `out` with no JsonValue tree:
/// exactly the bytes of FusionResponseToJson(response).Dump(). Reserves
/// the output up front.
void WriteFusionResponse(const FusionResponse& response, std::string& out);

std::string SerializeFusionResponse(const FusionResponse& response);

/// Joint distributions as {"num_facts": n, "entries": [["mask", p], ...]}
/// with masks as decimal strings (uint64-lossless). Shared by request
/// instances and response reports.
common::JsonValue JointToJson(const core::JointDistribution& joint);
common::Result<core::JointDistribution> JointFromJson(
    const common::JsonValue& json);

/// One inline fact universe, as embedded in request "instances" — exposed
/// for the streaming-arrivals wire (POST /v1/sessions/{id}/instances
/// ships an array of these to a live session).
common::JsonValue InstanceSpecToJson(const InstanceSpec& instance);
common::Result<InstanceSpec> InstanceSpecFromJson(
    const common::JsonValue& json);

/// One select-collect-merge quantum, as embedded in response "steps" —
/// the tree the tests and the traced replay read.
common::JsonValue StepOutcomeToJson(const StepOutcome& outcome);

/// Appends the compact JSON of one POST /v1/sessions/{id}/step reply to
/// `out` with no JsonValue tree: exactly the bytes of the object
/// {"session_id", "done", "outcomes": [StepOutcomeToJson(o)...]} dumped.
void WriteStepReply(std::string_view session_id, bool done,
                    std::span<const StepOutcome> outcomes, std::string& out);

}  // namespace crowdfusion::service

#endif  // CROWDFUSION_SERVICE_REQUEST_JSON_H_
