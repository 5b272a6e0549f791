/// net::ProviderPool failover contract over scriptable fake replicas:
/// healthy pinning to the preferred replica, submit- and collect-time
/// failover on kUnavailable / kDeadlineExceeded, collect-time expiry of
/// hung attempts on a ManualClock, consecutive-failure ejection with timed
/// re-probe, terminal exhaustion, pass-through of non-transport errors,
/// and a scheduler run that survives a replica dying at its collect.

#include <gtest/gtest.h>

#include <memory>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "common/clock.h"
#include "core/crowd_model.h"
#include "core/greedy_selector.h"
#include "core/running_example.h"
#include "core/scheduler.h"
#include "core/scripted_provider.h"
#include "net/provider_pool.h"
#include "support/status_printing.h"

namespace crowdfusion::net {
namespace {

using common::ManualClock;
using common::Status;
using common::StatusCode;

/// An async provider whose behavior the test scripts per-replica:
/// Submit/Collect can be made to fail with a chosen status, a ticket can
/// resolve failed, and Collect can be wedged in-flight forever (a hung
/// crowd that accepted the batch).
class FakeReplica : public core::AsyncAnswerProvider {
 public:
  Status submit_error;   // non-OK: Submit refuses with this
  Status ticket_error;   // non-OK: Collect reports kFailed with it
  Status collect_error;  // non-OK: the Collect call itself fails with it
  bool stuck = false;    // Collect reports kInFlight forever
  std::vector<bool> answers = {true, false, true};

  int submits = 0;
  int cancels = 0;

  common::Result<core::TicketId> Submit(
      std::span<const int> fact_ids,
      const core::TicketOptions& /*options*/) override {
    ++submits;
    last_batch.assign(fact_ids.begin(), fact_ids.end());
    if (!submit_error.ok()) return submit_error;
    const core::TicketId id = next_++;
    live_.insert(id);
    return id;
  }
  using core::AsyncAnswerProvider::Submit;

  common::Result<core::TicketStatus> Collect(core::TicketId ticket) override {
    if (live_.find(ticket) == live_.end()) {
      return Status::NotFound("unknown fake ticket");
    }
    core::TicketStatus status;
    if (stuck) {
      status.seconds_until_ready = 1.0;
      return status;
    }
    if (!collect_error.ok()) return collect_error;
    live_.erase(ticket);
    if (!ticket_error.ok()) {
      status.phase = core::TicketPhase::kFailed;
      status.error = ticket_error;
      return status;
    }
    status.phase = core::TicketPhase::kReady;
    status.answers = answers;
    return status;
  }

  void Cancel(core::TicketId ticket) override {
    ++cancels;
    live_.erase(ticket);
  }

  std::pair<int64_t, int64_t> ServedCorrect() override {
    return served_correct;
  }

  std::vector<int> last_batch;
  std::pair<int64_t, int64_t> served_correct = {0, 0};

 private:
  core::TicketId next_ = 1;
  std::set<core::TicketId> live_;
};

std::vector<std::shared_ptr<FakeReplica>> MakeFakes(int n) {
  std::vector<std::shared_ptr<FakeReplica>> fakes;
  for (int i = 0; i < n; ++i) {
    fakes.push_back(std::make_shared<FakeReplica>());
  }
  return fakes;
}

std::unique_ptr<ProviderPool> MakePool(
    const std::vector<std::shared_ptr<FakeReplica>>& fakes,
    ProviderPool::Options options) {
  std::vector<ProviderPool::Replica> replicas;
  for (size_t i = 0; i < fakes.size(); ++i) {
    replicas.push_back({"fake-" + std::to_string(i), fakes[i]});
  }
  return std::make_unique<ProviderPool>(std::move(replicas), options);
}

TEST(ProviderPoolTest, HealthyPoolPinsEveryBatchToTheStartReplica) {
  auto fakes = MakeFakes(3);
  ProviderPool::Options options;
  options.start_replica = 1;
  auto pool = MakePool(fakes, options);

  for (int round = 0; round < 3; ++round) {
    auto ticket = pool->Submit(std::vector<int>{0, 1, 2});
    ASSERT_TRUE(ticket.ok()) << ticket.status();
    auto collected = pool->Collect(*ticket);
    ASSERT_TRUE(collected.ok()) << collected.status();
    EXPECT_EQ(collected->answers, fakes[1]->answers);
  }
  // Parity depends on this: one replica sees the batches, in order.
  EXPECT_EQ(fakes[1]->submits, 3);
  EXPECT_EQ(fakes[0]->submits, 0);
  EXPECT_EQ(fakes[2]->submits, 0);
  const ProviderPool::Stats stats = pool->GetStats();
  EXPECT_EQ(stats.tickets_submitted, 3);
  EXPECT_EQ(stats.tickets_resubmitted, 0);
  EXPECT_EQ(stats.replica_failures, 0);
}

TEST(ProviderPoolTest, SubmitSkipsPastAReplicaThatRefuses) {
  auto fakes = MakeFakes(2);
  fakes[0]->submit_error = Status::Unavailable("connection refused");
  auto pool = MakePool(fakes, ProviderPool::Options());

  auto ticket = pool->Submit(std::vector<int>{4, 5});
  ASSERT_TRUE(ticket.ok()) << ticket.status();
  EXPECT_EQ(fakes[0]->submits, 1);
  EXPECT_EQ(fakes[1]->submits, 1);
  EXPECT_EQ(fakes[1]->last_batch, (std::vector<int>{4, 5}));
  auto collected = pool->Collect(*ticket);
  ASSERT_TRUE(collected.ok()) << collected.status();
  EXPECT_EQ(collected->phase, core::TicketPhase::kReady);
  const ProviderPool::Stats stats = pool->GetStats();
  EXPECT_EQ(stats.tickets_submitted, 1);
  EXPECT_EQ(stats.tickets_resubmitted, 1);
  EXPECT_EQ(stats.replica_failures, 1);
}

TEST(ProviderPoolTest, AwaitResubmitsElsewhereOnUnavailable) {
  ManualClock clock;
  auto fakes = MakeFakes(2);
  fakes[0]->ticket_error = Status::Unavailable("crowd hung up mid-batch");
  auto pool = MakePool(fakes, ProviderPool::Options());

  auto answers = core::SubmitAndAwait(*pool, std::vector<int>{0, 1}, &clock);
  ASSERT_TRUE(answers.ok()) << answers.status();
  EXPECT_EQ(*answers, fakes[1]->answers);
  EXPECT_EQ(fakes[1]->submits, 1);
  EXPECT_GE(fakes[0]->cancels, 1);  // the dead attempt was released
  EXPECT_EQ(pool->GetStats().tickets_resubmitted, 1);
}

TEST(ProviderPoolTest, AwaitTimeoutCodeAlsoResubmits) {
  // A replica that reports an attempt out of time (kDeadlineExceeded)
  // is failed over exactly like one that is kUnavailable.
  ManualClock clock;
  auto fakes = MakeFakes(2);
  fakes[0]->ticket_error =
      Status::DeadlineExceeded("attempt ran out of time on the platform");
  auto pool = MakePool(fakes, ProviderPool::Options());

  auto answers = core::SubmitAndAwait(*pool, std::vector<int>{2, 3}, &clock);
  ASSERT_TRUE(answers.ok()) << answers.status();
  EXPECT_EQ(fakes[1]->submits, 1);
  EXPECT_EQ(pool->GetStats().tickets_resubmitted, 1);
}

TEST(ProviderPoolTest, CollectFailureFailsTheBatchOver) {
  auto fakes = MakeFakes(2);
  fakes[0]->collect_error = Status::Unavailable("platform died at the take");
  auto pool = MakePool(fakes, ProviderPool::Options());

  auto ticket = pool->Submit(std::vector<int>{0, 1});
  ASSERT_TRUE(ticket.ok());
  // The failed collect fails the batch over and answers at once: the
  // ticket is in flight again, on the other replica.
  auto moved = pool->Collect(*ticket);
  ASSERT_TRUE(moved.ok()) << moved.status();
  EXPECT_EQ(moved->phase, core::TicketPhase::kInFlight);
  EXPECT_GT(moved->seconds_until_ready, 0.0);
  EXPECT_EQ(fakes[1]->submits, 1);
  EXPECT_GE(fakes[0]->cancels, 1);
  EXPECT_EQ(pool->GetStats().tickets_resubmitted, 1);

  auto again = pool->Collect(*ticket);
  ASSERT_TRUE(again.ok()) << again.status();
  EXPECT_EQ(again->phase, core::TicketPhase::kReady);
  EXPECT_EQ(again->answers, fakes[1]->answers);
  EXPECT_EQ(pool->Collect(*ticket).status().code(), StatusCode::kNotFound);
}

/// A scripted replica whose `fail_collect`-th Collect (counting from 1;
/// 0 = never) fails with kUnavailable: a platform that dies at the
/// :take.
class DyingAtCollectReplica : public core::AsyncAnswerProvider {
 public:
  explicit DyingAtCollectReplica(int fail_collect)
      : fail_collect_(fail_collect) {}

  common::Result<core::TicketId> Submit(
      std::span<const int> fact_ids,
      const core::TicketOptions& options) override {
    return inner_.Submit(fact_ids, options);
  }
  using core::AsyncAnswerProvider::Submit;
  common::Result<core::TicketStatus> Collect(core::TicketId ticket) override {
    if (++collects_ == fail_collect_) {
      return Status::Unavailable("replica died");
    }
    return inner_.Collect(ticket);
  }
  void Cancel(core::TicketId ticket) override { inner_.Cancel(ticket); }

 private:
  core::ScriptedProvider inner_;
  int fail_collect_;
  int collects_ = 0;
};

struct PoolRun {
  std::vector<core::BudgetScheduler::StepRecord> records;
  int64_t tickets_resubmitted = 0;
};

/// One book refined to the end through a two-replica pool whose
/// preferred replica fails its `fail_collect`-th collect.
PoolRun RunThroughPool(int fail_collect) {
  ManualClock clock;
  std::vector<ProviderPool::Replica> replicas;
  replicas.push_back(
      {"dying", std::make_shared<DyingAtCollectReplica>(fail_collect)});
  replicas.push_back({"healthy", std::make_shared<DyingAtCollectReplica>(0)});
  ProviderPool::Options pool_options;
  pool_options.clock = &clock;
  ProviderPool pool(std::move(replicas), pool_options);

  auto crowd = core::CrowdModel::Create(0.8);
  EXPECT_TRUE(crowd.ok());
  core::GreedySelector selector;
  auto scheduler = core::BudgetScheduler::Create(
      *crowd, &selector,
      {.total_budget = 4, .tasks_per_step = 1, .clock = &clock});
  EXPECT_TRUE(scheduler.ok()) << scheduler.status();
  EXPECT_TRUE(
      scheduler->AddInstance("book", core::RunningExample::Joint(), &pool)
          .ok());
  auto records = scheduler->RunPipelined();
  EXPECT_TRUE(records.ok()) << records.status();
  PoolRun run;
  if (records.ok()) run.records = std::move(records).value();
  run.tickets_resubmitted = pool.GetStats().tickets_resubmitted;
  return run;
}

TEST(ProviderPoolTest, RunSurvivesAReplicaDyingAtItsTake) {
  const PoolRun clean = RunThroughPool(/*fail_collect=*/0);
  PoolRun faulted = RunThroughPool(/*fail_collect=*/2);
  ASSERT_EQ(clean.records.size(), 4u);
  EXPECT_EQ(clean.tickets_resubmitted, 0);
  EXPECT_EQ(faulted.tickets_resubmitted, 1);
  // The failed-over ticket waited one collect interval longer; everything
  // else is the fault-free run's.
  ASSERT_EQ(faulted.records.size(), clean.records.size());
  EXPECT_GT(faulted.records[1].latency_seconds, 0.0);
  for (auto& record : faulted.records) record.latency_seconds = 0.0;
  EXPECT_EQ(faulted.records, clean.records);
}

TEST(ProviderPoolTest, NonTransportErrorsPassThroughWithoutFailover) {
  auto fakes = MakeFakes(2);
  fakes[0]->ticket_error = Status::InvalidArgument("fact id out of range");
  auto pool = MakePool(fakes, ProviderPool::Options());

  auto ticket = pool->Submit(std::vector<int>{0});
  ASSERT_TRUE(ticket.ok());
  auto collected = pool->Collect(*ticket);
  ASSERT_TRUE(collected.ok()) << collected.status();
  EXPECT_EQ(collected->phase, core::TicketPhase::kFailed);
  EXPECT_EQ(collected->error.code(), StatusCode::kInvalidArgument);
  // The batch is the problem, not the platform: no retry elsewhere, no
  // health penalty.
  EXPECT_EQ(fakes[1]->submits, 0);
  EXPECT_EQ(pool->GetStats().tickets_resubmitted, 0);
  EXPECT_EQ(pool->GetStats().replica_failures, 0);
  EXPECT_EQ(pool->GetStats().replica_ejections, 0);
}

TEST(ProviderPoolTest, ExhaustingEveryReplicaIsTerminal) {
  auto fakes = MakeFakes(2);
  fakes[0]->ticket_error = Status::Unavailable("down");
  fakes[1]->ticket_error = Status::Unavailable("also down");
  auto pool = MakePool(fakes, ProviderPool::Options());

  auto ticket = pool->Submit(std::vector<int>{0, 1});
  ASSERT_TRUE(ticket.ok());
  // The first collect fails the batch over to replica 1, the second finds
  // it failed there too: the pool has no replica left.
  auto moved = pool->Collect(*ticket);
  ASSERT_TRUE(moved.ok()) << moved.status();
  EXPECT_EQ(moved->phase, core::TicketPhase::kInFlight);
  auto failed = pool->Collect(*ticket);
  ASSERT_TRUE(failed.ok()) << failed.status();
  EXPECT_EQ(failed->phase, core::TicketPhase::kFailed);
  EXPECT_EQ(failed->error.code(), StatusCode::kUnavailable);
  EXPECT_NE(failed->error.message().find("every replica"), std::string::npos)
      << failed->error;
  // That collect consumed the ticket even though it failed.
  auto after = pool->Collect(*ticket);
  ASSERT_FALSE(after.ok());
  EXPECT_EQ(after.status().code(), StatusCode::kNotFound);
}

TEST(ProviderPoolTest, PollExpiresAHungAttemptAndFailsOver) {
  ManualClock clock;
  auto fakes = MakeFakes(2);
  fakes[0]->stuck = true;  // accepted the batch, will never finish it
  ProviderPool::Options options;
  options.attempt_timeout_seconds = 1.0;
  options.clock = &clock;
  auto pool = MakePool(fakes, options);

  auto ticket = pool->Submit(std::vector<int>{0, 1, 2});
  ASSERT_TRUE(ticket.ok());
  // Within the attempt budget the stuck replica's status is proxied.
  auto early = pool->Collect(*ticket);
  ASSERT_TRUE(early.ok()) << early.status();
  EXPECT_EQ(early->phase, core::TicketPhase::kInFlight);
  EXPECT_EQ(fakes[1]->submits, 0);

  clock.AdvanceSeconds(2.0);  // blow the attempt budget
  auto expired = pool->Collect(*ticket);
  ASSERT_TRUE(expired.ok()) << expired.status();
  // The pool failed over internally — NOT a Result error, which would
  // abort a pipelined scheduler run.
  EXPECT_EQ(expired->phase, core::TicketPhase::kInFlight);
  EXPECT_EQ(fakes[1]->submits, 1);
  EXPECT_GE(fakes[0]->cancels, 1);
  EXPECT_EQ(pool->GetStats().tickets_resubmitted, 1);

  auto ready = pool->Collect(*ticket);
  ASSERT_TRUE(ready.ok()) << ready.status();
  EXPECT_EQ(ready->phase, core::TicketPhase::kReady);
  EXPECT_EQ(ready->answers, fakes[1]->answers);
}

TEST(ProviderPoolTest, ConsecutiveFailuresEjectUntilTheReprobe) {
  ManualClock clock;
  auto fakes = MakeFakes(2);
  fakes[0]->submit_error = Status::Unavailable("refusing");
  ProviderPool::Options options;
  options.eject_after_failures = 2;
  options.reprobe_seconds = 5.0;
  options.clock = &clock;
  auto pool = MakePool(fakes, options);

  // Two failed probes eject replica 0...
  ASSERT_TRUE(pool->Submit(std::vector<int>{0}).ok());
  EXPECT_EQ(pool->GetStats().replica_ejections, 0);
  ASSERT_TRUE(pool->Submit(std::vector<int>{1}).ok());
  EXPECT_EQ(pool->GetStats().replica_ejections, 1);
  EXPECT_EQ(fakes[0]->submits, 2);

  // ...so the next batch goes straight to the healthy replica.
  ASSERT_TRUE(pool->Submit(std::vector<int>{2}).ok());
  EXPECT_EQ(fakes[0]->submits, 2);  // not probed while ejected

  // Past the re-probe window real traffic probes it again.
  clock.AdvanceSeconds(6.0);
  fakes[0]->submit_error = Status();  // it recovered
  ASSERT_TRUE(pool->Submit(std::vector<int>{3}).ok());
  EXPECT_EQ(fakes[0]->submits, 3);
  // Recovered, it is the preferred home again.
  ASSERT_TRUE(pool->Submit(std::vector<int>{4}).ok());
  EXPECT_EQ(fakes[0]->submits, 4);
  EXPECT_EQ(pool->GetStats().replica_ejections, 1);
}

TEST(ProviderPoolTest, FullyEjectedPoolStillForceProbes) {
  ManualClock clock;
  auto fakes = MakeFakes(2);
  fakes[0]->submit_error = Status::Unavailable("down");
  fakes[1]->submit_error = Status::Unavailable("down");
  ProviderPool::Options options;
  options.eject_after_failures = 1;
  options.reprobe_seconds = 60.0;
  options.clock = &clock;
  auto pool = MakePool(fakes, options);

  auto failed = pool->Submit(std::vector<int>{0});
  ASSERT_FALSE(failed.ok());
  EXPECT_EQ(failed.status().code(), StatusCode::kUnavailable);
  EXPECT_EQ(pool->GetStats().replica_ejections, 2);

  // Everything is ejected, but the pool must not refuse traffic outright:
  // it force-probes rather than waiting out the re-probe window.
  fakes[0]->submit_error = Status();
  fakes[1]->submit_error = Status();
  auto probed = pool->Submit(std::vector<int>{1});
  ASSERT_TRUE(probed.ok()) << probed.status();
  auto collected = pool->Collect(*probed);
  ASSERT_TRUE(collected.ok()) << collected.status();
  EXPECT_EQ(collected->phase, core::TicketPhase::kReady);
}

TEST(ProviderPoolTest, CancelReleasesTheRemoteTicket) {
  auto fakes = MakeFakes(2);
  auto pool = MakePool(fakes, ProviderPool::Options());
  auto ticket = pool->Submit(std::vector<int>{0, 1});
  ASSERT_TRUE(ticket.ok());
  pool->Cancel(*ticket);
  EXPECT_EQ(fakes[0]->cancels, 1);
  auto collected = pool->Collect(*ticket);
  ASSERT_FALSE(collected.ok());
  EXPECT_EQ(collected.status().code(), StatusCode::kNotFound);
  pool->Cancel(*ticket);  // idempotent on unknown tickets
}

TEST(ProviderPoolTest, UnknownTicketsAreNotFound) {
  auto fakes = MakeFakes(1);
  auto pool = MakePool(fakes, ProviderPool::Options());
  EXPECT_EQ(pool->Collect(991199).status().code(), StatusCode::kNotFound);
}

TEST(ProviderPoolTest, ServedCorrectSumsTheReplicaHooks) {
  auto fakes = MakeFakes(2);
  for (size_t i = 0; i < fakes.size(); ++i) {
    const auto n = static_cast<int64_t>(i);
    fakes[i]->served_correct = {int64_t{10} + n, int64_t{7} + n};
  }
  auto pool = MakePool(fakes, ProviderPool::Options());
  const auto [served, correct] = pool->ServedCorrect();
  EXPECT_EQ(served, 21);
  EXPECT_EQ(correct, 15);
}

}  // namespace
}  // namespace crowdfusion::net
