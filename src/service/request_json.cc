#include "service/request_json.h"

#include <charconv>
#include <cstdint>
#include <limits>
#include <string_view>
#include <type_traits>
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
  // "blocking" is the one-ticket-at-a-time spelling of pipelined mode. It
  // overrides max_in_flight rather than rejecting it, because every
  // serialized request carries one (default 4), blocking ones included.
  if (mode == "blocking") request.pipeline.max_in_flight = 1;
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

namespace {

/// Writes one `"key": value` member, picking the writer call by type.
template <typename T>
void Member(common::JsonWriter& json, std::string_view key, const T& value) {
  json.Key(key);
  if constexpr (std::is_same_v<T, bool>) {
    json.Bool(value);
  } else if constexpr (std::is_integral_v<T>) {
    json.Int(value);
  } else if constexpr (std::is_floating_point_v<T>) {
    json.Double(value);
  } else {
    json.String(value);
  }
}

/// Mirrors StepOutcomeToJson member for member.
void WriteStepOutcome(const StepOutcome& outcome, common::JsonWriter& json) {
  json.BeginObject();
  Member(json, "step", outcome.step);
  Member(json, "instance", outcome.instance);
  Member(json, "round", outcome.round);
  json.Key("tasks");
  json.BeginArray();
  for (const int task : outcome.tasks) json.Int(task);
  json.EndArray();
  json.Key("answers");
  json.BeginArray();
  for (const bool answer : outcome.answers) json.Bool(answer);
  json.EndArray();
  Member(json, "selected_entropy_bits", outcome.selected_entropy_bits);
  Member(json, "expected_gain_bits", outcome.expected_gain_bits);
  Member(json, "utility_bits", outcome.utility_bits);
  Member(json, "cumulative_cost", outcome.cumulative_cost);
  Member(json, "latency_seconds", outcome.latency_seconds);
  json.EndObject();
}

/// Mirrors JointToJson.
void WriteJoint(const core::JointDistribution& joint,
                common::JsonWriter& json) {
  json.BeginObject();
  Member(json, "num_facts", joint.num_facts());
  json.Key("entries");
  json.BeginArray();
  char mask[24];  // uint64 needs at most 20
  for (const core::JointDistribution::Entry& entry : joint.entries()) {
    json.BeginArray();
    const char* end = std::to_chars(mask, mask + sizeof(mask), entry.mask).ptr;
    json.String(std::string_view(mask, static_cast<size_t>(end - mask)));
    json.Double(entry.prob);
    json.EndArray();
  }
  json.EndArray();
  json.EndObject();
}

}  // namespace

void WriteFusionResponse(const FusionResponse& response, std::string& out) {
  // Typical spellings: a step takes ~190 bytes, a joint entry ~30 and a
  // marginal ~20.
  size_t reserve = 640 + 224 * response.steps.size();
  for (const InstanceReport& report : response.instances) {
    reserve += 160 + 24 * report.final_marginals.size() +
               32 * static_cast<size_t>(report.final_joint.support_size());
  }
  out.reserve(out.size() + reserve);

  common::JsonWriter json(out);
  json.BeginObject();
  Member(json, "schema", kResponseSchema);
  Member(json, "label", response.label);
  Member(json, "mode", RunModeName(response.mode));
  Member(json, "total_utility_bits", response.total_utility_bits);
  Member(json, "total_cost_spent", response.total_cost_spent);
  Member(json, "dead_instances", response.dead_instances);

  const RunStats& stats = response.stats;
  json.Key("stats");
  json.BeginObject();
  Member(json, "wall_seconds", stats.wall_seconds);
  Member(json, "selection_seconds", stats.selection_seconds);
  Member(json, "steps_per_second", stats.steps_per_second);
  Member(json, "p50_latency_ms", stats.p50_latency_ms);
  Member(json, "p95_latency_ms", stats.p95_latency_ms);
  Member(json, "selection_compute_p50_ms", stats.selection_compute_p50_ms);
  Member(json, "selection_compute_p95_ms", stats.selection_compute_p95_ms);
  Member(json, "answers_served", stats.answers_served);
  Member(json, "answers_correct", stats.answers_correct);
  Member(json, "tickets_resubmitted", stats.tickets_resubmitted);
  json.EndObject();

  json.Key("steps");
  json.BeginArray();
  for (const StepOutcome& outcome : response.steps) {
    WriteStepOutcome(outcome, json);
  }
  json.EndArray();

  json.Key("instances");
  json.BeginArray();
  for (const InstanceReport& report : response.instances) {
    json.BeginObject();
    Member(json, "name", report.name);
    json.Key("final_joint");
    WriteJoint(report.final_joint, json);
    json.Key("final_marginals");
    json.BeginArray();
    for (const double marginal : report.final_marginals) {
      json.Double(marginal);
    }
    json.EndArray();
    Member(json, "utility_bits", report.utility_bits);
    Member(json, "cost_spent", report.cost_spent);
    Member(json, "num_facts", report.num_facts);
    Member(json, "dead", report.dead);
    json.EndObject();
  }
  json.EndArray();
  json.EndObject();
}

std::string SerializeFusionResponse(const FusionResponse& response) {
  return FusionResponseToJson(response).Dump(2);
}

}  // namespace crowdfusion::service
