/// The served path against the code it replaced. Session::Drain() (which
/// runs engine-mode instances concurrently when the selector allows it)
/// and a Session::StepAt() loop (the parked /step) must leave exactly the
/// response a Step() loop leaves; WriteFusionResponse must write exactly
/// the bytes of FusionResponseToJson(response).Dump(), and WriteStepReply
/// exactly the bytes of the /step reply tree built from
/// StepOutcomeToJson.

#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/clock.h"
#include "common/json.h"
#include "common/random.h"
#include "net/loopback_crowd_server.h"
#include "service/fusion_service.h"
#include "service/request_json.h"
#include "support/status_printing.h"

namespace crowdfusion::service {
namespace {

constexpr int kBooksSeeds = 64;

/// perfbench's run-books request: 8 synthesized books fused by CRH into
/// dense joints of at most 10 facts, greedy selection against a simulated
/// crowd of accuracy 0.8, 40 tasks per book, engine mode.
FusionRequest BooksRequest(uint64_t seed) {
  FusionRequest request;
  request.mode = RunMode::kEngine;
  request.label = "books-" + std::to_string(seed);
  DatasetSpec dataset;
  dataset.generate.num_books = 8;
  dataset.generate.num_sources = 60;
  dataset.generate.true_variants = 5;
  dataset.generate.false_variants = 7;
  dataset.generate.seed = seed * 7919 + 3;
  dataset.fuser.kind = "crh";
  dataset.max_facts_per_book = 10;
  request.dataset = dataset;
  request.selector.kind = "greedy";
  request.selector.use_pruning = true;
  request.selector.use_preprocessing = true;
  request.provider.kind = "simulated_crowd";
  request.provider.accuracy = 0.8;
  request.provider.seed = seed * 131 + 1;
  request.budget.budget_per_instance = 40;
  return request;
}

/// A run-small-shaped request: a few independent books answered by a
/// script, so every crowd answer is known in advance.
FusionRequest ScriptedRequest(uint64_t seed) {
  FusionRequest request;
  request.mode = RunMode::kEngine;
  common::Rng rng(seed * 7919 + 13);
  const int num_instances = 2 + static_cast<int>(rng.NextBounded(4));
  const int n = 3 + static_cast<int>(rng.NextBounded(4));
  for (int i = 0; i < num_instances; ++i) {
    std::vector<double> marginals(static_cast<size_t>(n));
    for (double& m : marginals) m = rng.NextUniform(0.2, 0.8);
    auto joint = core::JointDistribution::FromIndependentMarginals(marginals);
    EXPECT_TRUE(joint.ok());
    InstanceSpec instance;
    instance.name = "b" + std::to_string(i);
    instance.joint = std::move(joint).value();
    request.instances.push_back(std::move(instance));
  }
  request.selector.kind = "greedy";
  request.provider.kind = "scripted";
  for (int f = 0; f < n; ++f) {
    request.provider.script.push_back(rng.NextBernoulli(0.5));
  }
  request.budget.budget_per_instance = 2 + static_cast<int>(seed % 5);
  request.budget.tasks_per_step = 1 + static_cast<int>(seed % 2);
  return request;
}

/// The stats fields that measure wall-clock; everything else must match.
FusionResponse WithoutTimings(FusionResponse response) {
  response.stats.wall_seconds = 0.0;
  response.stats.selection_seconds = 0.0;
  response.stats.steps_per_second = 0.0;
  response.stats.selection_compute_p50_ms = 0.0;
  response.stats.selection_compute_p95_ms = 0.0;
  return response;
}

common::Result<FusionResponse> RunByStepLoop(const FusionService& service,
                                             FusionRequest request) {
  CF_ASSIGN_OR_RETURN(const std::unique_ptr<Session> session,
                      service.CreateSession(std::move(request)));
  while (!session->done()) CF_RETURN_IF_ERROR(session->Step().status());
  return session->Finish();
}

common::Result<FusionResponse> RunByDrain(const FusionService& service,
                                          FusionRequest request) {
  CF_ASSIGN_OR_RETURN(const std::unique_ptr<Session> session,
                      service.CreateSession(std::move(request)));
  CF_RETURN_IF_ERROR(session->Drain());
  EXPECT_TRUE(session->done());
  return session->Finish();
}

void ExpectDrainMatchesStepLoop(const FusionService& service,
                                const FusionRequest& request) {
  const auto stepped = RunByStepLoop(service, request);
  const auto drained = RunByDrain(service, request);
  ASSERT_TRUE(stepped.ok()) << request.label << ": " << stepped.status();
  ASSERT_TRUE(drained.ok()) << request.label << ": " << drained.status();
  ASSERT_FALSE(stepped->steps.empty()) << request.label;
  EXPECT_EQ(WithoutTimings(*stepped), WithoutTimings(*drained))
      << request.label;
}

/// A Step() loop run through StepAt() as the frontend's waker drives it:
/// every incomplete attempt jumps `clock` to its due time. Returns the
/// quanta, one entry per completed attempt, and counts the waits.
common::Result<FusionResponse> RunByStepAtLoop(
    const FusionService& service, FusionRequest request,
    common::ManualClock& clock, std::vector<std::vector<StepOutcome>>& quanta,
    int& waits) {
  CF_ASSIGN_OR_RETURN(const std::unique_ptr<Session> session,
                      service.CreateSession(std::move(request)));
  while (!session->done()) {
    CF_ASSIGN_OR_RETURN(StepAttempt attempt,
                        session->StepAt(clock.NowSeconds()));
    if (!attempt.complete) {
      ++waits;
      clock.AdvanceSeconds(attempt.due_at - clock.NowSeconds());
      continue;
    }
    quanta.push_back(std::move(attempt.outcomes));
  }
  return session->Finish();
}

/// The /step reply as the frontend built it before WriteStepReply.
std::string StepReplyTree(const std::string& session_id, bool done,
                          const std::vector<StepOutcome>& outcomes) {
  common::JsonValue reply = common::JsonValue::MakeObject();
  reply.Set("session_id", session_id);
  reply.Set("done", done);
  common::JsonValue array = common::JsonValue::MakeArray();
  for (const StepOutcome& outcome : outcomes) {
    array.Append(StepOutcomeToJson(outcome));
  }
  reply.Set("outcomes", std::move(array));
  return reply.Dump();
}

void ExpectStepReplyMatchesTree(const std::string& session_id, bool done,
                                const std::vector<StepOutcome>& outcomes) {
  std::string written = "prefix";
  WriteStepReply(session_id, done, outcomes, written);
  EXPECT_EQ("prefix" + StepReplyTree(session_id, done, outcomes), written)
      << session_id;
}

void ExpectWriterMatchesTree(const FusionResponse& response) {
  const std::string tree = FusionResponseToJson(response).Dump();
  std::string written;
  WriteFusionResponse(response, written);
  EXPECT_EQ(tree, written) << response.label;
  // The writer appends.
  std::string appended = "prefix";
  WriteFusionResponse(response, appended);
  EXPECT_EQ("prefix" + tree, appended) << response.label;
}

TEST(ServedPathDiffTest, DrainMatchesStepLoopOnBooks) {
  const FusionService service;
  for (uint64_t seed = 1; seed <= kBooksSeeds; ++seed) {
    ExpectDrainMatchesStepLoop(service, BooksRequest(seed));
  }
}

TEST(ServedPathDiffTest, DrainFallsBackToTheStepLoopForRandomSelection) {
  // "random" draws from one RNG shared by every instance, so its Drain is
  // the serial Step() loop; the order of the draws must not change.
  const FusionService service;
  for (uint64_t seed = 1; seed <= 8; ++seed) {
    FusionRequest request = BooksRequest(seed);
    request.selector.kind = "random";
    request.selector.seed = seed;
    ExpectDrainMatchesStepLoop(service, request);
  }
}

TEST(ServedPathDiffTest, DrainMatchesStepLoopWithScriptedCrowd) {
  const FusionService service;
  for (uint64_t seed = 1; seed <= 32; ++seed) {
    FusionRequest request = ScriptedRequest(seed);
    request.label = "scripted-" + std::to_string(seed);
    ExpectDrainMatchesStepLoop(service, request);
  }
}

TEST(ServedPathDiffTest, DrainMatchesStepLoopInPipelinedMode) {
  // Pipelined steps report submit-to-merge latency; a manual clock keeps
  // it out of the comparison.
  common::ManualClock clock;
  const FusionService service(FusionService::Config{.clock = &clock});
  for (uint64_t seed = 1; seed <= 8; ++seed) {
    FusionRequest request = BooksRequest(seed);
    request.mode = RunMode::kPipelined;
    request.pipeline.max_in_flight = 1 + static_cast<int>(seed % 4);
    ExpectDrainMatchesStepLoop(service, request);
  }
}

TEST(ServedPathDiffTest, DrainMatchesStepLoopOverAnHttpCrowd) {
  net::LoopbackCrowdServer server;  // port 0: the parallel-ctest rule
  ASSERT_TRUE(server.Start().ok());
  const FusionService service;
  for (uint64_t seed = 1; seed <= 4; ++seed) {
    FusionRequest request = BooksRequest(seed);
    request.budget.budget_per_instance = 12;
    request.provider.kind = "http";
    request.provider.endpoint = server.endpoint();
    ExpectDrainMatchesStepLoop(service, request);
  }
  server.Stop();
}

TEST(ServedPathDiffTest, StepAtLoopMatchesStepLoopOverLatencyCrowds) {
  // Both clocks start at the same time and only move by the waits, so
  // even the reported latencies must match.
  int waits = 0;
  for (uint64_t seed = 1; seed <= 16; ++seed) {
    FusionRequest request = BooksRequest(seed);
    request.mode = RunMode::kPipelined;
    request.budget.budget_per_instance = 6;
    request.pipeline.max_in_flight = 1 + static_cast<int>(seed % 4);
    request.provider.latency_median_seconds = 0.03;
    request.provider.latency_seed = seed;
    common::ManualClock stepped_clock(1000.0);
    const FusionService stepped_service(
        FusionService::Config{.clock = &stepped_clock});
    const auto stepped = RunByStepLoop(stepped_service, request);
    common::ManualClock clock(1000.0);
    const FusionService service(FusionService::Config{.clock = &clock});
    std::vector<std::vector<StepOutcome>> quanta;
    const auto attempted =
        RunByStepAtLoop(service, request, clock, quanta, waits);
    ASSERT_TRUE(stepped.ok()) << stepped.status();
    ASSERT_TRUE(attempted.ok()) << attempted.status();
    EXPECT_EQ(WithoutTimings(*stepped), WithoutTimings(*attempted))
        << "seed " << seed;
    EXPECT_EQ(clock.NowSeconds(), stepped_clock.NowSeconds());
    size_t outcomes = 0;
    for (const auto& quantum : quanta) outcomes += quantum.size();
    EXPECT_EQ(outcomes, attempted->steps.size());
  }
  EXPECT_GT(waits, 16);
}

TEST(ServedPathDiffTest, StepReplyWriterMatchesTree) {
  // Every quantum of engine, pipelined and latency-crowd sessions, as the
  // /step route would answer it.
  int replies = 0;
  const FusionService service;
  for (uint64_t seed = 1; seed <= 8; ++seed) {
    for (const RunMode mode : {RunMode::kEngine, RunMode::kPipelined}) {
      FusionRequest request = BooksRequest(seed);
      request.mode = mode;
      request.budget.budget_per_instance = 4;
      auto session = service.CreateSession(request);
      ASSERT_TRUE(session.ok()) << session.status();
      const std::string id = "s-" + std::to_string(seed);
      while (!(*session)->done()) {
        const auto outcomes = (*session)->Step();
        ASSERT_TRUE(outcomes.ok()) << outcomes.status();
        ExpectStepReplyMatchesTree(id, (*session)->done(), *outcomes);
        ++replies;
      }
    }
  }
  common::ManualClock clock(1000.0);
  const FusionService latency_service(FusionService::Config{.clock = &clock});
  for (uint64_t seed = 1; seed <= 4; ++seed) {
    FusionRequest request = BooksRequest(seed);
    request.mode = RunMode::kPipelined;
    request.budget.budget_per_instance = 4;
    request.provider.latency_median_seconds = 0.03;
    std::vector<std::vector<StepOutcome>> quanta;
    int waits = 0;
    ASSERT_TRUE(
        RunByStepAtLoop(latency_service, request, clock, quanta, waits).ok());
    for (size_t q = 0; q < quanta.size(); ++q) {
      ExpectStepReplyMatchesTree("latency", q + 1 == quanta.size(),
                                 quanta[q]);
      ++replies;
    }
  }
  // A done session's empty reply, an odd id, and odd doubles.
  ExpectStepReplyMatchesTree("", true, {});
  StepOutcome odd;
  odd.expected_gain_bits = std::numeric_limits<double>::quiet_NaN();
  odd.utility_bits = -std::numeric_limits<double>::infinity();
  odd.latency_seconds = 5e-324;
  ExpectStepReplyMatchesTree("\"q\"\n\x01 \xc3\xa9", false, {odd, odd});
  EXPECT_GE(replies, 64);
}

TEST(ServedPathDiffTest, DrainFinishesARunThatStepStarted) {
  const FusionService service;
  for (uint64_t seed = 1; seed <= 8; ++seed) {
    const auto stepped = RunByStepLoop(service, BooksRequest(seed));
    ASSERT_TRUE(stepped.ok()) << stepped.status();
    auto session = service.CreateSession(BooksRequest(seed));
    ASSERT_TRUE(session.ok()) << session.status();
    for (uint64_t pass = 0; pass < seed; ++pass) {
      ASSERT_TRUE((*session)->Step().ok());
    }
    ASSERT_TRUE((*session)->Drain().ok());
    EXPECT_EQ(WithoutTimings(*stepped),
              WithoutTimings((*session)->Finish()))
        << "seed " << seed;
    // A drained session has nothing left.
    ASSERT_TRUE((*session)->Drain().ok());
    auto more = (*session)->Step();
    ASSERT_TRUE(more.ok());
    EXPECT_TRUE(more->empty());
  }
}

TEST(ServedPathDiffTest, DrainReturnsTheFailingRoundsError) {
  // Every instance's first collection fails, so the Step() loop stops in
  // the first pass on instance 0, and Drain reports instance 0's error.
  const FusionService service;
  FusionRequest request = ScriptedRequest(3);
  request.provider.failures_before_success = 1;
  auto stepped = service.CreateSession(request);
  auto drained = service.CreateSession(request);
  ASSERT_TRUE(stepped.ok() && drained.ok());
  const auto step = (*stepped)->Step();
  const common::Status drain = (*drained)->Drain();
  ASSERT_FALSE(step.ok());
  EXPECT_EQ(step.status(), drain);
  EXPECT_FALSE((*drained)->done());
  EXPECT_EQ((*stepped)->steps(), (*drained)->steps());
}

TEST(ServedPathDiffTest, WriterMatchesTreeOnServedResponses) {
  const FusionService service;
  for (uint64_t seed = 1; seed <= kBooksSeeds; ++seed) {
    const auto response = service.Run(BooksRequest(seed));
    ASSERT_TRUE(response.ok()) << response.status();
    ExpectWriterMatchesTree(*response);
  }
  for (uint64_t seed = 1; seed <= kBooksSeeds; ++seed) {
    const auto response = service.Run(ScriptedRequest(seed));
    ASSERT_TRUE(response.ok()) << response.status();
    ExpectWriterMatchesTree(*response);
  }
  FusionRequest pipelined = BooksRequest(1);
  pipelined.mode = RunMode::kPipelined;
  const auto response = service.Run(pipelined);
  ASSERT_TRUE(response.ok()) << response.status();
  ExpectWriterMatchesTree(*response);
}

TEST(ServedPathDiffTest, WriterMatchesTreeOnEdgeCases) {
  constexpr double kNan = std::numeric_limits<double>::quiet_NaN();
  constexpr double kInf = std::numeric_limits<double>::infinity();

  FusionResponse empty;
  ExpectWriterMatchesTree(empty);

  FusionResponse response;
  response.label = "quote \" backslash \\ tab \t nul " + std::string(1, '\0') +
                   " bell \x07 del \x7f utf-8 \xc3\xa9\xe2\x82\xac";
  response.mode = RunMode::kPipelined;
  response.total_utility_bits = -kInf;
  response.total_cost_spent = std::numeric_limits<int>::max();
  response.dead_instances = 1;
  response.stats.wall_seconds = kNan;
  response.stats.selection_seconds = kInf;
  response.stats.steps_per_second = -0.0;
  response.stats.p50_latency_ms = 5e-324;
  response.stats.p95_latency_ms = 1e21;
  response.stats.answers_served = std::numeric_limits<int64_t>::max();
  response.stats.answers_correct = std::numeric_limits<int64_t>::min();

  StepOutcome marker;  // the exhaustion marker: no tasks, no answers
  marker.step = 0;
  marker.expected_gain_bits = kNan;
  response.steps.push_back(marker);
  StepOutcome step;
  step.step = 1;
  step.instance = 0;
  step.round = 7;
  step.tasks = {0, 63};
  step.answers = {true, false};
  step.selected_entropy_bits = 0.1;
  step.utility_bits = -kInf;
  step.latency_seconds = 2.5;
  response.steps.push_back(step);

  InstanceReport dead;
  dead.name = "\"dead\"\n\x01";
  auto full = core::JointDistribution::FromEntries(
      64, {{0, 0.25}, {std::numeric_limits<uint64_t>::max(), 0.75}});
  ASSERT_TRUE(full.ok()) << full.status();
  dead.final_joint = std::move(full).value();
  dead.final_marginals = {0.75, kNan, -kInf};
  dead.utility_bits = kNan;
  dead.num_facts = 64;
  dead.dead = true;
  response.instances.push_back(dead);
  InstanceReport bare;  // an empty joint and no marginals
  response.instances.push_back(bare);
  ExpectWriterMatchesTree(response);
}

}  // namespace
}  // namespace crowdfusion::service
