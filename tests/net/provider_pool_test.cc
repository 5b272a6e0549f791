/// net::ProviderPool failover contract over scriptable fake replicas:
/// healthy pinning to the preferred replica, submit-time and Await-time
/// failover on kUnavailable / kDeadlineExceeded, Poll-time expiry of hung
/// attempts on a ManualClock, consecutive-failure ejection with timed
/// re-probe, terminal exhaustion, and pass-through of non-transport
/// errors.

#include <gtest/gtest.h>

#include <memory>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "common/clock.h"
#include "net/provider_pool.h"
#include "support/status_printing.h"

namespace crowdfusion::net {
namespace {

using common::ManualClock;
using common::Status;
using common::StatusCode;

/// An async provider whose behavior the test scripts per-replica:
/// Submit/Await can be made to fail with a chosen status, and Poll can be
/// wedged in-flight forever (a hung crowd that accepted the batch).
class FakeReplica : public core::AsyncAnswerProvider {
 public:
  Status submit_error;  // non-OK: Submit refuses with this
  Status await_error;   // non-OK: Poll reports kFailed / Await returns it
  bool stuck = false;   // Poll reports kInFlight forever
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

  common::Result<core::TicketStatus> Poll(core::TicketId ticket) override {
    if (live_.find(ticket) == live_.end()) {
      return Status::NotFound("unknown fake ticket");
    }
    core::TicketStatus status;
    if (stuck) {
      status.phase = core::TicketPhase::kInFlight;
      status.seconds_until_ready = 1.0;
      return status;
    }
    if (!await_error.ok()) {
      status.phase = core::TicketPhase::kFailed;
      status.error = await_error;
      return status;
    }
    status.phase = core::TicketPhase::kReady;
    return status;
  }

  common::Result<std::vector<bool>> Await(core::TicketId ticket) override {
    if (live_.erase(ticket) == 0) {
      return Status::NotFound("unknown fake ticket");
    }
    if (!await_error.ok()) return await_error;
    return answers;
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
    auto answers = pool->Await(*ticket);
    ASSERT_TRUE(answers.ok()) << answers.status();
    EXPECT_EQ(*answers, fakes[1]->answers);
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
  auto answers = pool->Await(*ticket);
  ASSERT_TRUE(answers.ok()) << answers.status();
  const ProviderPool::Stats stats = pool->GetStats();
  EXPECT_EQ(stats.tickets_submitted, 1);
  EXPECT_EQ(stats.tickets_resubmitted, 1);
  EXPECT_EQ(stats.replica_failures, 1);
}

TEST(ProviderPoolTest, AwaitResubmitsElsewhereOnUnavailable) {
  auto fakes = MakeFakes(2);
  fakes[0]->await_error = Status::Unavailable("crowd hung up mid-batch");
  auto pool = MakePool(fakes, ProviderPool::Options());

  auto ticket = pool->Submit(std::vector<int>{0, 1});
  ASSERT_TRUE(ticket.ok());
  auto answers = pool->Await(*ticket);
  ASSERT_TRUE(answers.ok()) << answers.status();
  EXPECT_EQ(*answers, fakes[1]->answers);
  EXPECT_EQ(fakes[1]->submits, 1);
  EXPECT_GE(fakes[0]->cancels, 1);  // the dead attempt was released
  EXPECT_EQ(pool->GetStats().tickets_resubmitted, 1);
}

TEST(ProviderPoolTest, AwaitTimeoutCodeAlsoResubmits) {
  // The bounded HttpAnswerProvider::Await reports kDeadlineExceeded for a
  // hung endpoint; the pool must treat that exactly like kUnavailable.
  auto fakes = MakeFakes(2);
  fakes[0]->await_error =
      Status::DeadlineExceeded("ticket still in flight after 30 s");
  auto pool = MakePool(fakes, ProviderPool::Options());

  auto ticket = pool->Submit(std::vector<int>{2, 3});
  ASSERT_TRUE(ticket.ok());
  auto answers = pool->Await(*ticket);
  ASSERT_TRUE(answers.ok()) << answers.status();
  EXPECT_EQ(fakes[1]->submits, 1);
  EXPECT_EQ(pool->GetStats().tickets_resubmitted, 1);
}

TEST(ProviderPoolTest, NonTransportErrorsPassThroughWithoutFailover) {
  auto fakes = MakeFakes(2);
  fakes[0]->await_error = Status::InvalidArgument("fact id out of range");
  auto pool = MakePool(fakes, ProviderPool::Options());

  auto ticket = pool->Submit(std::vector<int>{0});
  ASSERT_TRUE(ticket.ok());
  auto answers = pool->Await(*ticket);
  ASSERT_FALSE(answers.ok());
  EXPECT_EQ(answers.status().code(), StatusCode::kInvalidArgument);
  // The batch is the problem, not the platform: no retry elsewhere, no
  // health penalty.
  EXPECT_EQ(fakes[1]->submits, 0);
  EXPECT_EQ(pool->GetStats().tickets_resubmitted, 0);
  EXPECT_EQ(pool->GetStats().replica_failures, 0);
  EXPECT_EQ(pool->GetStats().replica_ejections, 0);
}

TEST(ProviderPoolTest, ExhaustingEveryReplicaIsTerminal) {
  auto fakes = MakeFakes(2);
  fakes[0]->await_error = Status::Unavailable("down");
  fakes[1]->await_error = Status::Unavailable("also down");
  auto pool = MakePool(fakes, ProviderPool::Options());

  auto ticket = pool->Submit(std::vector<int>{0, 1});
  ASSERT_TRUE(ticket.ok());
  auto answers = pool->Await(*ticket);
  ASSERT_FALSE(answers.ok());
  EXPECT_EQ(answers.status().code(), StatusCode::kUnavailable);
  EXPECT_NE(answers.status().message().find("every replica"),
            std::string::npos)
      << answers.status();
  // Await consumed the ticket even though it failed.
  auto after = pool->Await(*ticket);
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
  auto early = pool->Poll(*ticket);
  ASSERT_TRUE(early.ok()) << early.status();
  EXPECT_EQ(early->phase, core::TicketPhase::kInFlight);
  EXPECT_EQ(fakes[1]->submits, 0);

  clock.AdvanceSeconds(2.0);  // blow the attempt budget
  auto expired = pool->Poll(*ticket);
  ASSERT_TRUE(expired.ok()) << expired.status();
  // The pool failed over internally — NOT a Result error, which would
  // abort a pipelined scheduler run.
  EXPECT_EQ(expired->phase, core::TicketPhase::kInFlight);
  EXPECT_EQ(fakes[1]->submits, 1);
  EXPECT_GE(fakes[0]->cancels, 1);
  EXPECT_EQ(pool->GetStats().tickets_resubmitted, 1);

  auto ready = pool->Poll(*ticket);
  ASSERT_TRUE(ready.ok());
  EXPECT_EQ(ready->phase, core::TicketPhase::kReady);
  auto answers = pool->Await(*ticket);
  ASSERT_TRUE(answers.ok()) << answers.status();
  EXPECT_EQ(*answers, fakes[1]->answers);
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
  auto answers = pool->Await(*probed);
  ASSERT_TRUE(answers.ok()) << answers.status();
}

TEST(ProviderPoolTest, CancelReleasesTheRemoteTicket) {
  auto fakes = MakeFakes(2);
  auto pool = MakePool(fakes, ProviderPool::Options());
  auto ticket = pool->Submit(std::vector<int>{0, 1});
  ASSERT_TRUE(ticket.ok());
  pool->Cancel(*ticket);
  EXPECT_EQ(fakes[0]->cancels, 1);
  auto poll = pool->Poll(*ticket);
  ASSERT_FALSE(poll.ok());
  EXPECT_EQ(poll.status().code(), StatusCode::kNotFound);
  pool->Cancel(*ticket);  // idempotent on unknown tickets
}

TEST(ProviderPoolTest, UnknownTicketsAreNotFound) {
  auto fakes = MakeFakes(1);
  auto pool = MakePool(fakes, ProviderPool::Options());
  EXPECT_EQ(pool->Poll(991199).status().code(), StatusCode::kNotFound);
  EXPECT_EQ(pool->Await(991199).status().code(), StatusCode::kNotFound);
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
