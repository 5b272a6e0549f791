#ifndef CROWDFUSION_TESTS_SUPPORT_RESPONSE_JSON_H_
#define CROWDFUSION_TESTS_SUPPORT_RESPONSE_JSON_H_

#include <string>
#include <vector>

#include "common/json.h"
#include "common/status.h"
#include "service/fusion_service.h"

/// The response side of the service wire, decoded: the inverse of
/// FusionResponseToJson / WriteFusionResponse. No server reads a response,
/// so this lives with the tests; the HTTP and adversary differentials
/// decode served bytes with it and compare against in-process results.

namespace crowdfusion::common {

/// Reads an optional array-of-numbers member, with the semantics of the
/// other JsonRead* helpers (common/json_util.h).
Status JsonReadDoubleVec(const JsonValue& obj, const char* key,
                         std::vector<double>* out);

}  // namespace crowdfusion::common

namespace crowdfusion::service {

common::Result<FusionResponse> FusionResponseFromJson(
    const common::JsonValue& json);

/// Parse + FusionResponseFromJson.
common::Result<FusionResponse> ParseFusionResponse(const std::string& text);

/// One StepOutcomeToJson object back into a StepOutcome.
common::Result<StepOutcome> StepOutcomeFromJson(const common::JsonValue& json);

}  // namespace crowdfusion::service

#endif  // CROWDFUSION_TESTS_SUPPORT_RESPONSE_JSON_H_
