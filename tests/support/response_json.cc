#include "support/response_json.h"

#include <utility>

#include "common/json_util.h"
#include "common/string_util.h"
#include "service/request_json.h"

namespace crowdfusion::common {

Status JsonReadDoubleVec(const JsonValue& obj, const char* key,
                         std::vector<double>* out) {
  const JsonValue* member = obj.Find(key);
  if (member == nullptr) return Status::Ok();
  if (!member->is_array()) {
    return Status::InvalidArgument(
        StrFormat("member \"%s\" must be an array", key));
  }
  std::vector<double> values;
  for (const JsonValue& item : member->array()) {
    CF_ASSIGN_OR_RETURN(const double value, item.GetDouble());
    values.push_back(value);
  }
  *out = std::move(values);
  return Status::Ok();
}

}  // namespace crowdfusion::common

namespace crowdfusion::service {

using common::JsonReadBool;
using common::JsonReadBoolVec;
using common::JsonReadDouble;
using common::JsonReadDoubleVec;
using common::JsonReadInt;
using common::JsonReadInt64;
using common::JsonReadIntVec;
using common::JsonReadString;
using common::JsonRequireObject;
using common::JsonValue;
using common::Status;

common::Result<StepOutcome> StepOutcomeFromJson(const JsonValue& json) {
  CF_RETURN_IF_ERROR(JsonRequireObject(json, "step").status());
  StepOutcome outcome;
  CF_RETURN_IF_ERROR(JsonReadInt(json, "step", &outcome.step));
  CF_RETURN_IF_ERROR(JsonReadInt(json, "instance", &outcome.instance));
  CF_RETURN_IF_ERROR(JsonReadInt(json, "round", &outcome.round));
  CF_RETURN_IF_ERROR(JsonReadIntVec(json, "tasks", &outcome.tasks));
  CF_RETURN_IF_ERROR(JsonReadBoolVec(json, "answers", &outcome.answers));
  CF_RETURN_IF_ERROR(JsonReadDouble(json, "selected_entropy_bits",
                                &outcome.selected_entropy_bits));
  CF_RETURN_IF_ERROR(
      JsonReadDouble(json, "expected_gain_bits", &outcome.expected_gain_bits));
  CF_RETURN_IF_ERROR(
      JsonReadDouble(json, "utility_bits", &outcome.utility_bits));
  CF_RETURN_IF_ERROR(
      JsonReadInt(json, "cumulative_cost", &outcome.cumulative_cost));
  CF_RETURN_IF_ERROR(
      JsonReadDouble(json, "latency_seconds", &outcome.latency_seconds));
  return outcome;
}

common::Result<FusionResponse> FusionResponseFromJson(const JsonValue& json) {
  CF_RETURN_IF_ERROR(JsonRequireObject(json, "response").status());
  if (const JsonValue* schema = json.Find("schema")) {
    CF_ASSIGN_OR_RETURN(const std::string text, schema->GetString());
    if (text != kResponseSchema) {
      return Status::InvalidArgument("unsupported response schema \"" + text +
                                     "\"");
    }
  }
  FusionResponse response;
  CF_RETURN_IF_ERROR(JsonReadString(json, "label", &response.label));
  std::string mode = RunModeName(response.mode);
  CF_RETURN_IF_ERROR(JsonReadString(json, "mode", &mode));
  CF_ASSIGN_OR_RETURN(response.mode, ParseRunMode(mode));
  CF_RETURN_IF_ERROR(
      JsonReadDouble(json, "total_utility_bits", &response.total_utility_bits));
  CF_RETURN_IF_ERROR(
      JsonReadInt(json, "total_cost_spent", &response.total_cost_spent));
  CF_RETURN_IF_ERROR(
      JsonReadInt(json, "dead_instances", &response.dead_instances));
  if (const JsonValue* stats = json.Find("stats")) {
    CF_RETURN_IF_ERROR(JsonRequireObject(*stats, "stats").status());
    CF_RETURN_IF_ERROR(
        JsonReadDouble(*stats, "wall_seconds", &response.stats.wall_seconds));
    CF_RETURN_IF_ERROR(JsonReadDouble(*stats, "selection_seconds",
                                  &response.stats.selection_seconds));
    CF_RETURN_IF_ERROR(JsonReadDouble(*stats, "steps_per_second",
                                  &response.stats.steps_per_second));
    CF_RETURN_IF_ERROR(JsonReadDouble(*stats, "p50_latency_ms",
                                      &response.stats.p50_latency_ms));
    CF_RETURN_IF_ERROR(JsonReadDouble(*stats, "p95_latency_ms",
                                      &response.stats.p95_latency_ms));
    CF_RETURN_IF_ERROR(
        JsonReadDouble(*stats, "selection_compute_p50_ms",
                       &response.stats.selection_compute_p50_ms));
    CF_RETURN_IF_ERROR(
        JsonReadDouble(*stats, "selection_compute_p95_ms",
                       &response.stats.selection_compute_p95_ms));
    CF_RETURN_IF_ERROR(JsonReadInt64(*stats, "answers_served",
                                     &response.stats.answers_served));
    CF_RETURN_IF_ERROR(JsonReadInt64(*stats, "answers_correct",
                                     &response.stats.answers_correct));
    CF_RETURN_IF_ERROR(JsonReadInt64(*stats, "tickets_resubmitted",
                                 &response.stats.tickets_resubmitted));
  }
  if (const JsonValue* steps = json.Find("steps")) {
    if (!steps->is_array()) {
      return Status::InvalidArgument("steps must be an array");
    }
    for (const JsonValue& item : steps->array()) {
      CF_ASSIGN_OR_RETURN(StepOutcome outcome, StepOutcomeFromJson(item));
      response.steps.push_back(std::move(outcome));
    }
  }
  if (const JsonValue* instances = json.Find("instances")) {
    if (!instances->is_array()) {
      return Status::InvalidArgument("instances must be an array");
    }
    for (const JsonValue& item : instances->array()) {
      CF_RETURN_IF_ERROR(JsonRequireObject(item, "instance report").status());
      InstanceReport report;
      CF_RETURN_IF_ERROR(JsonReadString(item, "name", &report.name));
      CF_ASSIGN_OR_RETURN(const JsonValue* joint, item.Get("final_joint"));
      CF_ASSIGN_OR_RETURN(report.final_joint, JointFromJson(*joint));
      CF_RETURN_IF_ERROR(JsonReadDoubleVec(item, "final_marginals",
                                       &report.final_marginals));
      CF_RETURN_IF_ERROR(
          JsonReadDouble(item, "utility_bits", &report.utility_bits));
      CF_RETURN_IF_ERROR(JsonReadInt(item, "cost_spent", &report.cost_spent));
      CF_RETURN_IF_ERROR(JsonReadInt(item, "num_facts", &report.num_facts));
      CF_RETURN_IF_ERROR(JsonReadBool(item, "dead", &report.dead));
      response.instances.push_back(std::move(report));
    }
  }
  return response;
}

common::Result<FusionResponse> ParseFusionResponse(const std::string& text) {
  CF_ASSIGN_OR_RETURN(const JsonValue json, JsonValue::Parse(text));
  return FusionResponseFromJson(json);
}

}  // namespace crowdfusion::service
