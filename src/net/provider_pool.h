#ifndef CROWDFUSION_NET_PROVIDER_POOL_H_
#define CROWDFUSION_NET_PROVIDER_POOL_H_

#include <cstdint>
#include <limits>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/clock.h"
#include "common/status.h"
#include "core/async_provider.h"
#include "core/registry.h"

namespace crowdfusion::net {

/// Failover tier over N answer-provider replicas, each bound to the same
/// fact universe on a different crowd platform (typically N
/// net::HttpAnswerProvider instances). One hung or dead endpoint must not
/// wedge a run: every collection attempt is bounded by an attempt budget,
/// and a batch whose attempt fails with kDeadlineExceeded / kUnavailable
/// (or whose endpoint stops answering) is resubmitted to a different
/// healthy replica — at most once per replica, so a ticket visits each
/// platform at most once before the pool reports the failure.
///
/// Placement: while its preferred replica is healthy, a pool submits
/// every batch there. Judgment parity with a single endpoint depends on
/// this — simulated universes draw answers from one sequential RNG stream
/// per universe, so a universe must see its batches in submission order.
/// Load spreads at pool granularity instead: the "http_pool" factory
/// rotates each new pool's preferred replica round-robin, so the
/// per-instance pools of a multi-book run fan out across endpoints.
///
/// Health: a replica is ejected after `eject_after_failures` consecutive
/// failed calls and sidelined for `reprobe_seconds`; after that it is
/// probed again by real traffic. When every replica is ejected the pool
/// force-probes the one whose re-probe is due soonest rather than
/// failing outright.
///
/// Collect never surfaces replica transport errors as Result errors (the
/// pipelined scheduler aborts a whole run on those): a replica whose
/// collect fails, reports a transport failure, or overruns its attempt
/// budget has the batch failed over in that one place, and Collect reports
/// the ticket in flight on its new replica, or phase kFailed carrying the
/// terminal status once every replica was tried. Collect never waits.
/// Thread-safety matches the other providers: any thread may call in;
/// per-ticket calls come from one logical owner (Collect consumes).
class ProviderPool : public core::AsyncAnswerProvider {
 public:
  /// One crowd platform: a name for diagnostics plus a non-null,
  /// shared-owned provider.
  struct Replica {
    std::string name;
    std::shared_ptr<core::AsyncAnswerProvider> provider;
  };

  struct Options {
    /// Index of the preferred replica for new submissions.
    int start_replica = 0;
    /// Budget for one collection attempt against one replica: an
    /// in-flight ticket older than this is treated as expired and
    /// resubmitted elsewhere. <= 0 or infinity means unbounded.
    double attempt_timeout_seconds =
        std::numeric_limits<double>::infinity();
    /// Consecutive failed calls before a replica is ejected.
    int eject_after_failures = 3;
    /// How long an ejected replica is sidelined before traffic probes it
    /// again.
    double reprobe_seconds = 5.0;
    /// seconds_until_ready reported right after an internal failover
    /// (the new attempt's ETA is unknown).
    double min_poll_seconds = 0.001;
    /// Time source for attempt budgets; nullptr means Clock::Real().
    common::Clock* clock = nullptr;
  };

  /// Every replica must carry a non-null provider; `replicas` must be
  /// non-empty.
  ProviderPool(std::vector<Replica> replicas, Options options);
  ~ProviderPool() override;

  common::Result<core::TicketId> Submit(
      std::span<const int> fact_ids,
      const core::TicketOptions& options) override;
  using core::AsyncAnswerProvider::Submit;
  common::Result<core::TicketStatus> Collect(core::TicketId ticket) override;
  void Cancel(core::TicketId ticket) override;

  struct Stats {
    /// Batches accepted by Submit.
    int64_t tickets_submitted = 0;
    /// Batches handed to a different replica after a failed or expired
    /// attempt (including a failed first submission).
    int64_t tickets_resubmitted = 0;
    /// Individual failed replica calls.
    int64_t replica_failures = 0;
    /// Health-state transitions into ejection.
    int64_t replica_ejections = 0;
  };
  Stats GetStats() const;

  /// Sum of the replicas' (answers_served, answers_correct).
  std::pair<int64_t, int64_t> ServedCorrect() override;
  /// Stats::tickets_resubmitted.
  int64_t TicketsResubmitted() override;

  int num_replicas() const { return static_cast<int>(replicas_.size()); }

 private:
  /// Pool-side bookkeeping for one live ticket.
  struct Ticket {
    std::vector<int> fact_ids;
    core::TicketOptions options;
    /// Current home replica and its ticket id there.
    int replica = -1;
    core::TicketId remote = 0;
    /// Replicas this ticket has already been submitted to.
    std::vector<bool> tried;
    /// Attempt budget expiry (absolute clock seconds; +inf = unbounded).
    double expires_at = std::numeric_limits<double>::infinity();
  };

  struct ReplicaHealth {
    int consecutive_failures = 0;
    /// Eligible again once the clock passes this (0 = never ejected).
    double ejected_until = 0.0;
  };

  common::Clock* clock() const {
    return options_.clock == nullptr ? common::Clock::Real()
                                     : options_.clock;
  }
  double AttemptDeadline(double now) const;
  void MarkSuccess(int replica);
  void MarkFailure(int replica);
  /// Candidate order for (re)submission: untried eligible replicas in
  /// ring order from `start`, then untried ejected ones by soonest
  /// re-probe (the forced-probe rule).
  std::vector<int> CandidateOrder(const std::vector<bool>& tried,
                                  int start);
  /// Submits `fact_ids` to the first candidate that accepts it. Marks
  /// tried/health as it goes. Returns (replica, remote ticket) or the
  /// last replica's error.
  common::Result<std::pair<int, core::TicketId>> SubmitSomewhere(
      const std::vector<int>& fact_ids, const core::TicketOptions& options,
      std::vector<bool>& tried, int start);
  /// Moves a live ticket off `failed_replica` after `cause`: cancels the
  /// remote ticket best-effort and resubmits to the next candidate. When
  /// every replica has been tried, drops the ticket and returns its
  /// terminal status.
  common::Status Failover(core::TicketId ticket, int failed_replica,
                          const common::Status& cause);
  static bool Resubmittable(common::StatusCode code);

  std::vector<Replica> replicas_;
  Options options_;

  mutable std::mutex mutex_;
  std::vector<ReplicaHealth> health_;
  std::unordered_map<core::TicketId, Ticket> tickets_;
  core::TicketId next_id_ = 1;
  Stats stats_;
};

/// Registers the "http_pool" provider kind: ProviderSpec::endpoints names
/// N crowd platforms; the factory registers the spec's universe template
/// on every one of them (same seeds everywhere, so any replica serves
/// identical judgments) and returns a ProviderPool over them.
/// ProviderSpec::await_timeout_seconds sets the per-attempt budget
/// (default 30 s when 0). Each pool's preferred replica is rotated
/// round-robin across the factory's creations. `clock` is borrowed by the
/// pool for its attempt budgets and re-probe windows.
common::Status RegisterHttpPoolProvider(core::ProviderRegistry& registry,
                                        common::Clock* clock = nullptr);

}  // namespace crowdfusion::net

#endif  // CROWDFUSION_NET_PROVIDER_POOL_H_
