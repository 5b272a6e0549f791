/// Wire-format coverage (ISSUE 4 satellite): FusionRequest JSON
/// round-trips losslessly for every registered selector/provider/fuser
/// key, responses serialize and parse, and seeded fuzz inputs (malformed
/// documents, truncations, type confusion) fail cleanly instead of
/// crashing.

#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <vector>

#include "common/json.h"
#include "common/random.h"
#include "core/running_example.h"
#include "service/fusion_service.h"
#include "service/request_json.h"
#include "support/response_json.h"
#include "support/status_printing.h"

namespace crowdfusion::service {
namespace {

FusionRequest BaseRequest() {
  FusionRequest request;
  request.mode = RunMode::kPipelined;
  request.label = "round-trip";
  InstanceSpec instance;
  instance.name = "hk";
  instance.joint = core::RunningExample::Joint();
  instance.truths = {true, true, true, false};
  instance.categories = {0, 1, 0, 3};
  request.instances.push_back(std::move(instance));
  request.assumed_pc = 0.85;
  request.budget.budget_per_instance = 7;
  request.budget.tasks_per_step = 2;
  request.pipeline.max_in_flight = 3;
  request.pipeline.on_ticket_failure =
      core::BudgetScheduler::TicketFailurePolicy::kSkipInstance;
  return request;
}

void ExpectRoundTrips(const FusionRequest& request, const std::string& what) {
  const std::string serialized = SerializeFusionRequest(request);
  auto reparsed = ParseFusionRequest(serialized);
  ASSERT_TRUE(reparsed.ok()) << what << ": " << reparsed.status();
  EXPECT_EQ(request, *reparsed) << what << "\n" << serialized;
  // Idempotence: dump(parse(dump(r))) == dump(r).
  EXPECT_EQ(serialized, SerializeFusionRequest(*reparsed)) << what;
}

TEST(RequestJsonTest, RoundTripsEverySelectorKey) {
  FusionService service;
  for (const std::string& key : service.selectors().Keys()) {
    FusionRequest request = BaseRequest();
    request.selector.kind = key;
    request.selector.foi = {0, 2};
    request.selector.seed = 0xDEADBEEFCAFEULL;
    request.selector.min_gain_bits = 1e-9;
    ExpectRoundTrips(request, "selector " + key);
  }
}

TEST(RequestJsonTest, RoundTripsEveryProviderKey) {
  FusionService service;
  for (const std::string& key : service.providers().Keys()) {
    FusionRequest request = BaseRequest();
    request.provider.kind = key;
    request.provider.accuracy = 0.77;
    request.provider.biased = true;
    request.provider.seed = 1234567890123ULL;
    request.provider.latency_median_seconds = 0.003;
    request.provider.script = {true, false, true, true};
    request.provider.failures_before_success = 2;
    request.provider.endpoint = "127.0.0.1:8792";
    request.provider.universe_kind = "scripted";
    request.provider.endpoints = {"127.0.0.1:8792", "127.0.0.1:8793"};
    request.provider.await_timeout_seconds = 2.5;
    ExpectRoundTrips(request, "provider " + key);
  }
}

TEST(RequestJsonTest, RoundTripsEveryFuserKeyInDatasetRequests) {
  FusionService service;
  for (const std::string& key : service.fusers().Keys()) {
    FusionRequest request;
    request.mode = RunMode::kPipelined;
    DatasetSpec dataset;
    dataset.generate.num_books = 17;
    dataset.generate.seed = 0xFFFFFFFFFFFFFFFFULL;  // uint64 extreme
    dataset.correlation.kind = data::CorrelationKind::kLatentTruth;
    dataset.correlation.mixture_lambda = 0.125;
    dataset.fuser.kind = key;
    dataset.fuser.max_iterations = 11;
    dataset.max_facts_per_book = 12;
    request.dataset = dataset;
    ExpectRoundTrips(request, "fuser " + key);
  }
}

TEST(RequestJsonTest, JointEntriesAreBitExact) {
  // Awkward doubles: probabilities that do not round-trip through fewer
  // than 17 significant digits.
  common::Rng rng(99);
  std::vector<core::JointDistribution::Entry> entries;
  double total = 0.0;
  for (int i = 0; i < 7; ++i) {
    const double p = rng.NextUniform(0.01, 0.2);
    entries.push_back({static_cast<uint64_t>(i * 9) % 64, p});
    total += p;
  }
  entries.push_back({63, 1.0 - total});
  auto joint = core::JointDistribution::FromEntries(6, entries);
  ASSERT_TRUE(joint.ok()) << joint.status();
  auto reparsed = JointFromJson(JointToJson(*joint));
  ASSERT_TRUE(reparsed.ok()) << reparsed.status();
  EXPECT_EQ(*joint, *reparsed);  // Entry-wise bit equality.
}

TEST(RequestJsonTest, MinimalDocumentGetsDefaults) {
  auto request = ParseFusionRequest(R"({"mode": "engine"})");
  ASSERT_TRUE(request.ok()) << request.status();
  const FusionRequest defaults;
  EXPECT_EQ(request->selector, defaults.selector);
  EXPECT_EQ(request->provider, defaults.provider);
  EXPECT_EQ(request->budget, defaults.budget);
  EXPECT_EQ(request->pipeline, defaults.pipeline);
  EXPECT_EQ(request->assumed_pc, defaults.assumed_pc);
}

TEST(RequestJsonTest, BlockingSpellingIsPipelinedWithAWindowOfOne) {
  // The window is forced whatever the key order, and overrides the
  // max_in_flight every serialized request carries.
  for (const char* text :
       {R"({"mode": "blocking", "pipeline": {"max_in_flight": 4}})",
        R"({"pipeline": {"max_in_flight": 4}, "mode": "blocking"})",
        R"({"mode": "blocking"})"}) {
    auto request = ParseFusionRequest(text);
    ASSERT_TRUE(request.ok()) << text << ": " << request.status();
    EXPECT_EQ(request->mode, RunMode::kPipelined) << text;
    EXPECT_EQ(request->pipeline.max_in_flight, 1) << text;
  }
  // Other pipeline knobs pass through untouched.
  auto skip = ParseFusionRequest(
      R"({"mode": "blocking",
          "pipeline": {"on_ticket_failure": "skip_instance"}})");
  ASSERT_TRUE(skip.ok()) << skip.status();
  EXPECT_EQ(skip->pipeline.on_ticket_failure,
            core::BudgetScheduler::TicketFailurePolicy::kSkipInstance);
  // "pipelined" keeps its window.
  auto pipelined = ParseFusionRequest(
      R"({"mode": "pipelined", "pipeline": {"max_in_flight": 4}})");
  ASSERT_TRUE(pipelined.ok()) << pipelined.status();
  EXPECT_EQ(pipelined->pipeline.max_in_flight, 4);
}

TEST(RequestJsonTest, InfinityDeadlineSurvivesTheWire) {
  FusionRequest request = BaseRequest();
  ASSERT_TRUE(std::isinf(request.pipeline.ticket_deadline_seconds));
  auto reparsed = ParseFusionRequest(SerializeFusionRequest(request));
  ASSERT_TRUE(reparsed.ok());
  EXPECT_TRUE(std::isinf(reparsed->pipeline.ticket_deadline_seconds));
}

TEST(RequestJsonTest, RejectsBadEnumsAndTypes) {
  EXPECT_FALSE(ParseFusionRequest(R"({"mode": "warp"})").ok());
  EXPECT_FALSE(ParseFusionRequest(R"({"mode": 3})").ok());
  EXPECT_FALSE(
      ParseFusionRequest(R"({"schema": "crowdfusion-request-v9"})").ok());
  EXPECT_FALSE(ParseFusionRequest(
                   R"({"pipeline": {"on_ticket_failure": "explode"}})")
                   .ok());
  EXPECT_FALSE(ParseFusionRequest(
                   R"({"dataset": {"correlation": {"kind": "psychic"}}})")
                   .ok());
  EXPECT_FALSE(
      ParseFusionRequest(R"({"budget": {"tasks_per_step": "many"}})").ok());
  EXPECT_FALSE(ParseFusionRequest(R"({"instances": [{"name": "x"}]})").ok())
      << "instance without a joint must fail";
  EXPECT_FALSE(ParseFusionRequest(
                   R"({"instances": [{"joint": {"num_facts": 2,
                       "entries": [["4", 1.0]]}}]})")
                   .ok())
      << "mask outside num_facts must fail";
}

TEST(RequestJsonTest, FuzzSeedsFailCleanly) {
  const std::vector<std::string> seeds = {
      "",
      "   ",
      "nul",
      "{",
      "}",
      "[",
      R"({"mode")",
      R"({"mode": })",
      R"({"mode": "engine", })",
      R"({"mode": "engine"} trailing)",
      R"({"mode": "engine", "mode": "blocking"})",  // duplicate key
      R"({"assumed_pc": "high"})",
      R"({"label": "\u12"})",
      R"({"label": "\q"})",
      R"({"label": "unterminated)",
      R"({"instances": {}})",
      R"({"instances": [42]})",
      R"({"selector": []})",
      R"({"selector": {"seed": -1}})",
      R"({"selector": {"seed": "99999999999999999999999999"}})",
      R"({"budget": {"budget_per_instance": 99999999999999999999}})",
      std::string(100, '['),  // nesting bomb
      std::string("{\"a\":") + std::string(80, '{'),
  };
  for (const std::string& seed : seeds) {
    auto request = ParseFusionRequest(seed);
    EXPECT_FALSE(request.ok()) << "accepted: " << seed;
  }
}

TEST(RequestJsonTest, TruncationFuzzNeverCrashes) {
  const std::string serialized = SerializeFusionRequest(BaseRequest());
  common::Rng rng(4242);
  for (int i = 0; i < 200; ++i) {
    const size_t cut = rng.NextBounded(serialized.size());
    // Parse must return (usually an error), never crash or hang.
    (void)ParseFusionRequest(serialized.substr(0, cut));
    // Also with a corrupted byte in the middle.
    std::string corrupted = serialized;
    corrupted[rng.NextBounded(corrupted.size())] =
        static_cast<char>('!' + rng.NextBounded(90));
    (void)ParseFusionRequest(corrupted);
  }
}

/// Every adversary knob at a non-default, bit-awkward value.
core::AdversarySpec FullAdversary() {
  core::AdversarySpec adversary;
  adversary.enabled = true;
  adversary.num_workers = 23;
  adversary.colluder_fraction = 1.0 / 3.0;  // 17-sig-digit double
  adversary.collusion_target_fraction = 0.1;
  adversary.sybil_fraction = 2.0 / 7.0;
  adversary.spammer_fraction = 0.125;
  adversary.parrot_fraction = 1.0 / 9.0;
  adversary.drift_per_answer = -1e-3;
  adversary.drift_floor = 0.15;
  adversary.drift_ceiling = 0.95;
  adversary.seed = 0xFEEDFACECAFEBEEFULL;
  return adversary;
}

TEST(RequestJsonTest, AdversaryBlockRoundTripsEveryField) {
  FusionRequest request = BaseRequest();
  request.provider.kind = "simulated_crowd";
  request.provider.accuracy = 0.8;
  request.provider.adversary = FullAdversary();
  ExpectRoundTrips(request, "adversary block");

  // Field-level check through the reparse: nothing silently dropped.
  auto reparsed = ParseFusionRequest(SerializeFusionRequest(request));
  ASSERT_TRUE(reparsed.ok());
  EXPECT_EQ(reparsed->provider.adversary, FullAdversary());
}

TEST(RequestJsonTest, AdversaryUnknownKeyRejectedByName) {
  // A typo'd knob must fail naming the offending key — a silently-ignored
  // adversary knob would quietly run an honest crowd where a hostile one
  // was requested.
  auto typo = ParseFusionRequest(
      R"({"provider": {"adversary": {"enabled": true,
          "colluder_fractoin": 0.5}}})");
  ASSERT_FALSE(typo.ok());
  EXPECT_NE(typo.status().message().find("colluder_fractoin"),
            std::string::npos)
      << typo.status();
  EXPECT_NE(typo.status().message().find("adversary"), std::string::npos)
      << typo.status();

  // Every documented key, however, parses.
  for (const std::string key :
       {"enabled", "num_workers", "colluder_fraction",
        "collusion_target_fraction", "sybil_fraction", "spammer_fraction",
        "parrot_fraction", "drift_per_answer", "drift_floor",
        "drift_ceiling", "seed"}) {
    const std::string value =
        key == "enabled" ? "true" : (key == "seed" ? "\"7\"" : "0");
    auto parsed = ParseFusionRequest(R"({"provider": {"adversary": {")" +
                                     key + R"(": )" + value + "}}}");
    EXPECT_TRUE(parsed.ok()) << key << ": " << parsed.status();
  }

  // Type confusion fails cleanly.
  EXPECT_FALSE(
      ParseFusionRequest(R"({"provider": {"adversary": []}})").ok());
  EXPECT_FALSE(ParseFusionRequest(
                   R"({"provider": {"adversary": {"enabled": "yes"}}})")
                   .ok());
  EXPECT_FALSE(ParseFusionRequest(
                   R"({"provider": {"adversary": {"num_workers": 1.5}}})")
                   .ok());
}

TEST(RequestJsonTest, AdversaryTruncationFuzzNeverCrashes) {
  FusionRequest request = BaseRequest();
  request.provider.kind = "simulated_crowd";
  request.provider.adversary = FullAdversary();
  const std::string serialized = SerializeFusionRequest(request);
  common::Rng rng(777);
  for (int i = 0; i < 200; ++i) {
    const size_t cut = rng.NextBounded(serialized.size());
    (void)ParseFusionRequest(serialized.substr(0, cut));
    std::string corrupted = serialized;
    corrupted[rng.NextBounded(corrupted.size())] =
        static_cast<char>('!' + rng.NextBounded(90));
    (void)ParseFusionRequest(corrupted);
  }
}

TEST(RequestJsonTest, ConcurrentSelectionKnobRoundTripsWhenDisabled) {
  FusionRequest request = BaseRequest();
  request.pipeline.concurrent_selection = false;  // non-default
  ExpectRoundTrips(request, "concurrent_selection off");
  auto reparsed = ParseFusionRequest(SerializeFusionRequest(request));
  ASSERT_TRUE(reparsed.ok());
  EXPECT_FALSE(reparsed->pipeline.concurrent_selection);
}

TEST(RequestJsonTest, RetiredEngineKnobIsIgnored) {
  // Older clients may still send a retired knob: the greedy engine's
  // selector.preprocessing_mode, or pipeline.max_poll_seconds (both run
  // modes now wait out the provider's ETA). The readers ignore it and the
  // run is unchanged.
  struct Retired {
    const char* object;
    const char* key;
    common::JsonValue value;
  };
  FusionRequest request = BaseRequest();
  request.provider.kind = "scripted";
  const std::string text = SerializeFusionRequest(request);
  for (const Retired& retired :
       {Retired{"selector", "preprocessing_mode", "dense"},
        Retired{"pipeline", "max_poll_seconds", 0.01}}) {
    SCOPED_TRACE(retired.key);
    ASSERT_EQ(text.find(retired.key), std::string::npos);
    auto document = common::JsonValue::Parse(text);
    ASSERT_TRUE(document.ok()) << document.status();
    for (auto& [key, value] : document->object()) {
      if (key == retired.object) value.Set(retired.key, retired.value);
    }
    const std::string legacy_text = document->Dump();
    ASSERT_NE(legacy_text.find(retired.key), std::string::npos);
    auto legacy = ParseFusionRequest(legacy_text);
    ASSERT_TRUE(legacy.ok()) << legacy.status();
    EXPECT_EQ(*legacy, request);

    FusionService service;
    auto expected = service.Run(request);
    auto actual = service.Run(*legacy);
    ASSERT_TRUE(expected.ok()) << expected.status();
    ASSERT_TRUE(actual.ok()) << actual.status();
    // Step latencies are wall-clock measurements.
    for (auto* response : {&*expected, &*actual}) {
      for (StepOutcome& step : response->steps) step.latency_seconds = 0.0;
    }
    EXPECT_EQ(actual->steps, expected->steps);
    EXPECT_EQ(actual->instances, expected->instances);
    EXPECT_EQ(actual->total_utility_bits, expected->total_utility_bits);
    EXPECT_EQ(actual->total_cost_spent, expected->total_cost_spent);
  }
}

TEST(ResponseJsonTest, ResponsesRoundTrip) {
  FusionService service;
  FusionRequest request = BaseRequest();
  request.provider.kind = "scripted";
  auto response = service.Run(request);
  ASSERT_TRUE(response.ok()) << response.status();
  const std::string serialized = SerializeFusionResponse(*response);
  auto reparsed = ParseFusionResponse(serialized);
  ASSERT_TRUE(reparsed.ok()) << reparsed.status();
  EXPECT_EQ(*response, *reparsed) << serialized;

  // A scheduler-backed run logs its Select() wall times.
  EXPECT_GT(response->stats.selection_compute_p50_ms, 0.0);
  EXPECT_GE(response->stats.selection_compute_p95_ms,
            response->stats.selection_compute_p50_ms);

  // The new gauges survive the wire even at awkward non-default values.
  response->stats.selection_compute_p50_ms = 1.0 / 3.0;
  response->stats.selection_compute_p95_ms = 17.125;
  auto mutated = ParseFusionResponse(SerializeFusionResponse(*response));
  ASSERT_TRUE(mutated.ok()) << mutated.status();
  EXPECT_EQ(*response, *mutated);
}

TEST(ResponseJsonTest, BlockingSpellingReadsAsPipelined) {
  FusionResponse pipelined;
  pipelined.mode = RunMode::kPipelined;
  auto document =
      common::JsonValue::Parse(SerializeFusionResponse(pipelined));
  ASSERT_TRUE(document.ok()) << document.status();
  document->Set("mode", "blocking");
  auto response = FusionResponseFromJson(*document);
  ASSERT_TRUE(response.ok()) << response.status();
  EXPECT_EQ(response->mode, RunMode::kPipelined);
}

}  // namespace
}  // namespace crowdfusion::service
