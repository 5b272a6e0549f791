#include "service/request_json.h"

#include <charconv>
#include <cstdint>
#include <limits>
#include <utility>

#include "common/json_util.h"
#include "common/string_util.h"
#include "core/spec_json.h"

namespace crowdfusion::service {

using common::JsonValue;
using common::Status;
using common::JsonFromBoolVec;
using common::JsonFromDoubleVec;
using common::JsonFromIntVec;
using common::JsonParseU64Text;
using common::JsonReadBool;
using common::JsonReadBoolVec;
using common::JsonReadDouble;
using common::JsonReadDoubleVec;
using common::JsonReadInt;
using common::JsonReadInt64;
using common::JsonReadIntVec;
using common::JsonReadString;
using common::JsonReadU64;
using common::JsonRequireObject;
using common::JsonU64;
using core::ProviderSpecFromJson;
using core::ProviderSpecToJson;

namespace {

// --- enums -----------------------------------------------------------------

const char* FailurePolicyName(
    core::BudgetScheduler::TicketFailurePolicy policy) {
  switch (policy) {
    case core::BudgetScheduler::TicketFailurePolicy::kAbort:
      return "abort";
    case core::BudgetScheduler::TicketFailurePolicy::kSkipInstance:
      return "skip_instance";
  }
  return "unknown";
}

common::Result<core::BudgetScheduler::TicketFailurePolicy>
ParseFailurePolicy(const std::string& name) {
  if (name == "abort") {
    return core::BudgetScheduler::TicketFailurePolicy::kAbort;
  }
  if (name == "skip_instance") {
    return core::BudgetScheduler::TicketFailurePolicy::kSkipInstance;
  }
  return Status::InvalidArgument(
      "unknown on_ticket_failure \"" + name +
      "\"; expected \"abort\" or \"skip_instance\"");
}

const char* CorrelationKindName(data::CorrelationKind kind) {
  switch (kind) {
    case data::CorrelationKind::kIndependent:
      return "independent";
    case data::CorrelationKind::kLatentTruth:
      return "latent_truth";
    case data::CorrelationKind::kMixture:
      return "mixture";
  }
  return "unknown";
}

common::Result<data::CorrelationKind> ParseCorrelationKind(
    const std::string& name) {
  if (name == "independent") return data::CorrelationKind::kIndependent;
  if (name == "latent_truth") return data::CorrelationKind::kLatentTruth;
  if (name == "mixture") return data::CorrelationKind::kMixture;
  return Status::InvalidArgument(
      "unknown correlation kind \"" + name +
      "\"; expected \"independent\", \"latent_truth\", or \"mixture\"");
}

// --- nested specs ----------------------------------------------------------

JsonValue SelectorSpecToJson(const core::SelectorSpec& spec) {
  JsonValue json = JsonValue::MakeObject();
  json.Set("kind", spec.kind);
  json.Set("use_pruning", spec.use_pruning);
  json.Set("use_preprocessing", spec.use_preprocessing);
  json.Set("preprocessing_threads", spec.preprocessing_threads);
  json.Set("brute_force_entropy", spec.brute_force_entropy);
  json.Set("max_subsets", spec.max_subsets);
  json.Set("samples", spec.samples);
  json.Set("bias_correction", spec.bias_correction);
  json.Set("seed", JsonU64(spec.seed));
  json.Set("foi", JsonFromIntVec(spec.foi));
  json.Set("min_gain_bits", spec.min_gain_bits);
  return json;
}

common::Result<core::SelectorSpec> SelectorSpecFromJson(
    const JsonValue& json) {
  CF_RETURN_IF_ERROR(JsonRequireObject(json, "selector").status());
  core::SelectorSpec spec;
  CF_RETURN_IF_ERROR(JsonReadString(json, "kind", &spec.kind));
  CF_RETURN_IF_ERROR(JsonReadBool(json, "use_pruning", &spec.use_pruning));
  CF_RETURN_IF_ERROR(
      JsonReadBool(json, "use_preprocessing", &spec.use_preprocessing));
  CF_RETURN_IF_ERROR(
      JsonReadInt(json, "preprocessing_threads", &spec.preprocessing_threads));
  CF_RETURN_IF_ERROR(
      JsonReadBool(json, "brute_force_entropy", &spec.brute_force_entropy));
  CF_RETURN_IF_ERROR(JsonReadInt64(json, "max_subsets", &spec.max_subsets));
  CF_RETURN_IF_ERROR(JsonReadInt(json, "samples", &spec.samples));
  CF_RETURN_IF_ERROR(
      JsonReadBool(json, "bias_correction", &spec.bias_correction));
  CF_RETURN_IF_ERROR(JsonReadU64(json, "seed", &spec.seed));
  CF_RETURN_IF_ERROR(JsonReadIntVec(json, "foi", &spec.foi));
  CF_RETURN_IF_ERROR(
      JsonReadDouble(json, "min_gain_bits", &spec.min_gain_bits));
  return spec;
}

JsonValue DatasetSpecToJson(const DatasetSpec& spec) {
  JsonValue generate = JsonValue::MakeObject();
  const data::BookDatasetOptions& g = spec.generate;
  generate.Set("num_books", g.num_books);
  generate.Set("num_sources", g.num_sources);
  generate.Set("min_authors", g.min_authors);
  generate.Set("max_authors", g.max_authors);
  generate.Set("textbook_fraction", g.textbook_fraction);
  generate.Set("coverage", g.coverage);
  generate.Set("strong_accuracy_low", g.strong_accuracy_low);
  generate.Set("strong_accuracy_high", g.strong_accuracy_high);
  generate.Set("weak_accuracy_low", g.weak_accuracy_low);
  generate.Set("weak_accuracy_high", g.weak_accuracy_high);
  generate.Set("skewed_source_fraction", g.skewed_source_fraction);
  generate.Set("true_variants", g.true_variants);
  generate.Set("false_variants", g.false_variants);
  generate.Set("reorder_fraction", g.reorder_fraction);
  generate.Set("weight_additional_info", g.weight_additional_info);
  generate.Set("weight_misspelling", g.weight_misspelling);
  generate.Set("weight_wrong_author", g.weight_wrong_author);
  generate.Set("weight_missing_author", g.weight_missing_author);
  generate.Set("seed", JsonU64(g.seed));

  JsonValue correlation = JsonValue::MakeObject();
  correlation.Set("kind", CorrelationKindName(spec.correlation.kind));
  correlation.Set("mixture_lambda", spec.correlation.mixture_lambda);
  correlation.Set("null_hypothesis_mass",
                  spec.correlation.null_hypothesis_mass);
  correlation.Set("max_facts", spec.correlation.max_facts);

  JsonValue fuser = JsonValue::MakeObject();
  fuser.Set("kind", spec.fuser.kind);
  fuser.Set("max_iterations", spec.fuser.max_iterations);

  JsonValue json = JsonValue::MakeObject();
  json.Set("generate", std::move(generate));
  json.Set("correlation", std::move(correlation));
  json.Set("fuser", std::move(fuser));
  json.Set("max_facts_per_book", spec.max_facts_per_book);
  return json;
}

common::Result<DatasetSpec> DatasetSpecFromJson(const JsonValue& json) {
  CF_RETURN_IF_ERROR(JsonRequireObject(json, "dataset").status());
  DatasetSpec spec;
  if (const JsonValue* generate = json.Find("generate")) {
    CF_RETURN_IF_ERROR(
        JsonRequireObject(*generate, "dataset.generate").status());
    data::BookDatasetOptions& g = spec.generate;
    CF_RETURN_IF_ERROR(JsonReadInt(*generate, "num_books", &g.num_books));
    CF_RETURN_IF_ERROR(JsonReadInt(*generate, "num_sources", &g.num_sources));
    CF_RETURN_IF_ERROR(JsonReadInt(*generate, "min_authors", &g.min_authors));
    CF_RETURN_IF_ERROR(JsonReadInt(*generate, "max_authors", &g.max_authors));
    CF_RETURN_IF_ERROR(
        JsonReadDouble(*generate, "textbook_fraction", &g.textbook_fraction));
    CF_RETURN_IF_ERROR(JsonReadDouble(*generate, "coverage", &g.coverage));
    CF_RETURN_IF_ERROR(JsonReadDouble(*generate, "strong_accuracy_low",
                                  &g.strong_accuracy_low));
    CF_RETURN_IF_ERROR(JsonReadDouble(*generate, "strong_accuracy_high",
                                  &g.strong_accuracy_high));
    CF_RETURN_IF_ERROR(
        JsonReadDouble(*generate, "weak_accuracy_low", &g.weak_accuracy_low));
    CF_RETURN_IF_ERROR(
        JsonReadDouble(*generate, "weak_accuracy_high", &g.weak_accuracy_high));
    CF_RETURN_IF_ERROR(JsonReadDouble(*generate, "skewed_source_fraction",
                                      &g.skewed_source_fraction));
    CF_RETURN_IF_ERROR(
        JsonReadInt(*generate, "true_variants", &g.true_variants));
    CF_RETURN_IF_ERROR(
        JsonReadInt(*generate, "false_variants", &g.false_variants));
    CF_RETURN_IF_ERROR(
        JsonReadDouble(*generate, "reorder_fraction", &g.reorder_fraction));
    CF_RETURN_IF_ERROR(JsonReadDouble(*generate, "weight_additional_info",
                                  &g.weight_additional_info));
    CF_RETURN_IF_ERROR(JsonReadDouble(*generate, "weight_misspelling",
                                  &g.weight_misspelling));
    CF_RETURN_IF_ERROR(JsonReadDouble(*generate, "weight_wrong_author",
                                  &g.weight_wrong_author));
    CF_RETURN_IF_ERROR(JsonReadDouble(*generate, "weight_missing_author",
                                  &g.weight_missing_author));
    CF_RETURN_IF_ERROR(JsonReadU64(*generate, "seed", &g.seed));
  }
  if (const JsonValue* correlation = json.Find("correlation")) {
    CF_RETURN_IF_ERROR(
        JsonRequireObject(*correlation, "dataset.correlation").status());
    std::string kind = CorrelationKindName(spec.correlation.kind);
    CF_RETURN_IF_ERROR(JsonReadString(*correlation, "kind", &kind));
    CF_ASSIGN_OR_RETURN(spec.correlation.kind, ParseCorrelationKind(kind));
    CF_RETURN_IF_ERROR(JsonReadDouble(*correlation, "mixture_lambda",
                                  &spec.correlation.mixture_lambda));
    CF_RETURN_IF_ERROR(JsonReadDouble(*correlation, "null_hypothesis_mass",
                                  &spec.correlation.null_hypothesis_mass));
    CF_RETURN_IF_ERROR(
        JsonReadInt(*correlation, "max_facts", &spec.correlation.max_facts));
  }
  if (const JsonValue* fuser = json.Find("fuser")) {
    CF_RETURN_IF_ERROR(JsonRequireObject(*fuser, "dataset.fuser").status());
    CF_RETURN_IF_ERROR(JsonReadString(*fuser, "kind", &spec.fuser.kind));
    CF_RETURN_IF_ERROR(
        JsonReadInt(*fuser, "max_iterations", &spec.fuser.max_iterations));
  }
  CF_RETURN_IF_ERROR(
      JsonReadInt(json, "max_facts_per_book", &spec.max_facts_per_book));
  return spec;
}

}  // namespace

JsonValue StepOutcomeToJson(const StepOutcome& outcome) {
  JsonValue json = JsonValue::MakeObject();
  json.Set("step", outcome.step);
  json.Set("instance", outcome.instance);
  json.Set("round", outcome.round);
  json.Set("tasks", JsonFromIntVec(outcome.tasks));
  json.Set("answers", JsonFromBoolVec(outcome.answers));
  json.Set("selected_entropy_bits", outcome.selected_entropy_bits);
  json.Set("expected_gain_bits", outcome.expected_gain_bits);
  json.Set("utility_bits", outcome.utility_bits);
  json.Set("cumulative_cost", outcome.cumulative_cost);
  json.Set("latency_seconds", outcome.latency_seconds);
  return json;
}

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

JsonValue JointToJson(const core::JointDistribution& joint) {
  JsonValue entries = JsonValue::MakeArray();
  for (const core::JointDistribution::Entry& entry : joint.entries()) {
    JsonValue pair = JsonValue::MakeArray();
    pair.Append(std::to_string(entry.mask));
    pair.Append(entry.prob);
    entries.Append(std::move(pair));
  }
  JsonValue json = JsonValue::MakeObject();
  json.Set("num_facts", joint.num_facts());
  json.Set("entries", std::move(entries));
  return json;
}

common::Result<core::JointDistribution> JointFromJson(const JsonValue& json) {
  CF_RETURN_IF_ERROR(JsonRequireObject(json, "joint").status());
  int num_facts = 0;
  CF_RETURN_IF_ERROR(JsonReadInt(json, "num_facts", &num_facts));
  CF_ASSIGN_OR_RETURN(const JsonValue* entries, json.Get("entries"));
  if (!entries->is_array()) {
    return Status::InvalidArgument("joint entries must be an array");
  }
  std::vector<core::JointDistribution::Entry> parsed;
  parsed.reserve(entries->array().size());
  for (const JsonValue& item : entries->array()) {
    if (!item.is_array() || item.array().size() != 2) {
      return Status::InvalidArgument(
          "joint entry must be a [mask, probability] pair");
    }
    core::JointDistribution::Entry entry;
    CF_ASSIGN_OR_RETURN(const std::string mask_text,
                        item.array()[0].GetString());
    CF_ASSIGN_OR_RETURN(entry.mask, JsonParseU64Text(mask_text));
    CF_ASSIGN_OR_RETURN(entry.prob, item.array()[1].GetDouble());
    parsed.push_back(entry);
  }
  return core::JointDistribution::FromEntries(num_facts, std::move(parsed));
}

JsonValue FusionRequestToJson(const FusionRequest& request) {
  JsonValue json = JsonValue::MakeObject();
  json.Set("schema", kRequestSchema);
  json.Set("mode", RunModeName(request.mode));
  json.Set("label", request.label);
  json.Set("assumed_pc", request.assumed_pc);
  json.Set("selector", SelectorSpecToJson(request.selector));
  json.Set("provider", ProviderSpecToJson(request.provider));

  JsonValue budget = JsonValue::MakeObject();
  budget.Set("budget_per_instance", request.budget.budget_per_instance);
  budget.Set("total_budget", request.budget.total_budget);
  budget.Set("tasks_per_step", request.budget.tasks_per_step);
  json.Set("budget", std::move(budget));

  JsonValue pipeline = JsonValue::MakeObject();
  pipeline.Set("max_in_flight", request.pipeline.max_in_flight);
  pipeline.Set("ticket_max_attempts", request.pipeline.ticket_max_attempts);
  pipeline.Set("ticket_deadline_seconds",
               request.pipeline.ticket_deadline_seconds);
  pipeline.Set("retry_backoff_seconds",
               request.pipeline.retry_backoff_seconds);
  pipeline.Set("on_ticket_failure",
               FailurePolicyName(request.pipeline.on_ticket_failure));
  pipeline.Set("max_poll_seconds", request.pipeline.max_poll_seconds);
  pipeline.Set("concurrent_selection",
               request.pipeline.concurrent_selection);
  json.Set("pipeline", std::move(pipeline));

  if (!request.instances.empty()) {
    JsonValue instances = JsonValue::MakeArray();
    for (const InstanceSpec& instance : request.instances) {
      instances.Append(InstanceSpecToJson(instance));
    }
    json.Set("instances", std::move(instances));
  }
  if (request.dataset.has_value()) {
    json.Set("dataset", DatasetSpecToJson(*request.dataset));
  }
  return json;
}

JsonValue InstanceSpecToJson(const InstanceSpec& instance) {
  JsonValue item = JsonValue::MakeObject();
  item.Set("name", instance.name);
  item.Set("joint", JointToJson(instance.joint));
  item.Set("truths", JsonFromBoolVec(instance.truths));
  item.Set("categories", JsonFromIntVec(instance.categories));
  return item;
}

common::Result<InstanceSpec> InstanceSpecFromJson(const JsonValue& json) {
  CF_RETURN_IF_ERROR(JsonRequireObject(json, "instance").status());
  InstanceSpec instance;
  CF_RETURN_IF_ERROR(JsonReadString(json, "name", &instance.name));
  CF_ASSIGN_OR_RETURN(const JsonValue* joint, json.Get("joint"));
  CF_ASSIGN_OR_RETURN(instance.joint, JointFromJson(*joint));
  CF_RETURN_IF_ERROR(JsonReadBoolVec(json, "truths", &instance.truths));
  CF_RETURN_IF_ERROR(
      JsonReadIntVec(json, "categories", &instance.categories));
  return instance;
}

common::Result<FusionRequest> FusionRequestFromJson(const JsonValue& json) {
  CF_RETURN_IF_ERROR(JsonRequireObject(json, "request").status());
  if (const JsonValue* schema = json.Find("schema")) {
    CF_ASSIGN_OR_RETURN(const std::string text, schema->GetString());
    if (text != kRequestSchema) {
      return Status::InvalidArgument("unsupported request schema \"" + text +
                                     "\"");
    }
  }
  FusionRequest request;
  std::string mode = RunModeName(request.mode);
  CF_RETURN_IF_ERROR(JsonReadString(json, "mode", &mode));
  CF_ASSIGN_OR_RETURN(request.mode, ParseRunMode(mode));
  CF_RETURN_IF_ERROR(JsonReadString(json, "label", &request.label));
  CF_RETURN_IF_ERROR(JsonReadDouble(json, "assumed_pc", &request.assumed_pc));
  if (const JsonValue* selector = json.Find("selector")) {
    CF_ASSIGN_OR_RETURN(request.selector, SelectorSpecFromJson(*selector));
  }
  if (const JsonValue* provider = json.Find("provider")) {
    CF_ASSIGN_OR_RETURN(request.provider, ProviderSpecFromJson(*provider));
  }
  if (const JsonValue* budget = json.Find("budget")) {
    CF_RETURN_IF_ERROR(JsonRequireObject(*budget, "budget").status());
    CF_RETURN_IF_ERROR(JsonReadInt(*budget, "budget_per_instance",
                               &request.budget.budget_per_instance));
    CF_RETURN_IF_ERROR(
        JsonReadInt(*budget, "total_budget", &request.budget.total_budget));
    CF_RETURN_IF_ERROR(
        JsonReadInt(*budget, "tasks_per_step", &request.budget.tasks_per_step));
  }
  if (const JsonValue* pipeline = json.Find("pipeline")) {
    CF_RETURN_IF_ERROR(JsonRequireObject(*pipeline, "pipeline").status());
    CF_RETURN_IF_ERROR(JsonReadInt(*pipeline, "max_in_flight",
                               &request.pipeline.max_in_flight));
    CF_RETURN_IF_ERROR(JsonReadInt(*pipeline, "ticket_max_attempts",
                               &request.pipeline.ticket_max_attempts));
    CF_RETURN_IF_ERROR(JsonReadDouble(*pipeline, "ticket_deadline_seconds",
                                  &request.pipeline.ticket_deadline_seconds));
    CF_RETURN_IF_ERROR(JsonReadDouble(*pipeline, "retry_backoff_seconds",
                                  &request.pipeline.retry_backoff_seconds));
    std::string policy =
        FailurePolicyName(request.pipeline.on_ticket_failure);
    CF_RETURN_IF_ERROR(JsonReadString(*pipeline, "on_ticket_failure", &policy));
    CF_ASSIGN_OR_RETURN(request.pipeline.on_ticket_failure,
                        ParseFailurePolicy(policy));
    CF_RETURN_IF_ERROR(JsonReadDouble(*pipeline, "max_poll_seconds",
                                  &request.pipeline.max_poll_seconds));
    CF_RETURN_IF_ERROR(JsonReadBool(*pipeline, "concurrent_selection",
                                &request.pipeline.concurrent_selection));
  }
  if (const JsonValue* instances = json.Find("instances")) {
    if (!instances->is_array()) {
      return Status::InvalidArgument("instances must be an array");
    }
    for (const JsonValue& item : instances->array()) {
      CF_ASSIGN_OR_RETURN(InstanceSpec instance, InstanceSpecFromJson(item));
      request.instances.push_back(std::move(instance));
    }
  }
  if (const JsonValue* dataset = json.Find("dataset")) {
    CF_ASSIGN_OR_RETURN(DatasetSpec spec, DatasetSpecFromJson(*dataset));
    request.dataset = std::move(spec);
  }
  return request;
}

std::string SerializeFusionRequest(const FusionRequest& request) {
  return FusionRequestToJson(request).Dump(2);
}

common::Result<FusionRequest> ParseFusionRequest(const std::string& text) {
  CF_ASSIGN_OR_RETURN(const JsonValue json, JsonValue::Parse(text));
  return FusionRequestFromJson(json);
}

JsonValue FusionResponseToJson(const FusionResponse& response) {
  JsonValue json = JsonValue::MakeObject();
  json.Set("schema", kResponseSchema);
  json.Set("label", response.label);
  json.Set("mode", RunModeName(response.mode));
  json.Set("total_utility_bits", response.total_utility_bits);
  json.Set("total_cost_spent", response.total_cost_spent);
  json.Set("dead_instances", response.dead_instances);

  JsonValue stats = JsonValue::MakeObject();
  stats.Set("wall_seconds", response.stats.wall_seconds);
  stats.Set("selection_seconds", response.stats.selection_seconds);
  stats.Set("steps_per_second", response.stats.steps_per_second);
  stats.Set("p50_latency_ms", response.stats.p50_latency_ms);
  stats.Set("p95_latency_ms", response.stats.p95_latency_ms);
  stats.Set("selection_compute_p50_ms",
            response.stats.selection_compute_p50_ms);
  stats.Set("selection_compute_p95_ms",
            response.stats.selection_compute_p95_ms);
  stats.Set("answers_served", response.stats.answers_served);
  stats.Set("answers_correct", response.stats.answers_correct);
  stats.Set("tickets_resubmitted", response.stats.tickets_resubmitted);
  json.Set("stats", std::move(stats));

  JsonValue steps = JsonValue::MakeArray();
  for (const StepOutcome& outcome : response.steps) {
    steps.Append(StepOutcomeToJson(outcome));
  }
  json.Set("steps", std::move(steps));

  JsonValue instances = JsonValue::MakeArray();
  for (const InstanceReport& report : response.instances) {
    JsonValue item = JsonValue::MakeObject();
    item.Set("name", report.name);
    item.Set("final_joint", JointToJson(report.final_joint));
    item.Set("final_marginals", JsonFromDoubleVec(report.final_marginals));
    item.Set("utility_bits", report.utility_bits);
    item.Set("cost_spent", report.cost_spent);
    item.Set("num_facts", report.num_facts);
    item.Set("dead", report.dead);
    instances.Append(std::move(item));
  }
  json.Set("instances", std::move(instances));
  return json;
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

std::string SerializeFusionResponse(const FusionResponse& response) {
  return FusionResponseToJson(response).Dump(2);
}

common::Result<FusionResponse> ParseFusionResponse(const std::string& text) {
  CF_ASSIGN_OR_RETURN(const JsonValue json, JsonValue::Parse(text));
  return FusionResponseFromJson(json);
}

}  // namespace crowdfusion::service
