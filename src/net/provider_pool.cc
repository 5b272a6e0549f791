#include "net/provider_pool.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <memory>

#include "common/logging.h"
#include "common/string_util.h"
#include "net/http_answer_provider.h"
#include "net/wire.h"

namespace crowdfusion::net {

using common::Status;
using common::StatusCode;

namespace {

/// Per-attempt budget when the spec leaves await_timeout_seconds unset:
/// long enough for a real crowd round-trip, short enough that a hung
/// endpoint costs seconds, not a wedged run.
constexpr double kDefaultAttemptTimeoutSeconds = 30.0;

/// ETA reported right after a failover, before the new attempt's is known.
constexpr double kFailoverEtaSeconds = 0.001;

}  // namespace

ProviderPool::ProviderPool(std::vector<Replica> replicas, Options options)
    : replicas_(std::move(replicas)), options_(options) {
  CF_CHECK(!replicas_.empty()) << "ProviderPool needs at least one replica";
  for (const Replica& replica : replicas_) {
    CF_CHECK(replica.provider != nullptr)
        << "ProviderPool replica \"" << replica.name << "\" has no provider";
  }
  options_.start_replica =
      ((options_.start_replica % num_replicas()) + num_replicas()) %
      num_replicas();
  health_.resize(replicas_.size());
}

ProviderPool::~ProviderPool() {
  // Abandoned tickets must not leak on the platforms.
  for (const auto& [id, ticket] : tickets_) {
    replicas_[static_cast<size_t>(ticket.replica)].provider->Cancel(
        ticket.remote);
  }
}

bool ProviderPool::Resubmittable(StatusCode code) {
  return code == StatusCode::kUnavailable ||
         code == StatusCode::kDeadlineExceeded;
}

double ProviderPool::AttemptDeadline(double now) const {
  if (options_.attempt_timeout_seconds <= 0 ||
      std::isinf(options_.attempt_timeout_seconds)) {
    return std::numeric_limits<double>::infinity();
  }
  return now + options_.attempt_timeout_seconds;
}

void ProviderPool::MarkSuccess(int replica) {
  std::lock_guard<std::mutex> lock(mutex_);
  ReplicaHealth& health = health_[static_cast<size_t>(replica)];
  health.consecutive_failures = 0;
  health.ejected_until = 0.0;
}

void ProviderPool::MarkFailure(int replica) {
  const double now = clock()->NowSeconds();
  std::lock_guard<std::mutex> lock(mutex_);
  ReplicaHealth& health = health_[static_cast<size_t>(replica)];
  ++health.consecutive_failures;
  ++stats_.replica_failures;
  if (health.consecutive_failures >= options_.eject_after_failures) {
    if (now >= health.ejected_until) ++stats_.replica_ejections;
    health.ejected_until = now + options_.reprobe_seconds;
  }
}

std::vector<int> ProviderPool::CandidateOrder(
    const std::vector<bool>& tried, int start) {
  const double now = clock()->NowSeconds();
  std::vector<int> eligible;
  std::vector<int> ejected;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    for (int i = 0; i < num_replicas(); ++i) {
      const int candidate = (start + i) % num_replicas();
      if (tried[static_cast<size_t>(candidate)]) continue;
      if (now >= health_[static_cast<size_t>(candidate)].ejected_until) {
        eligible.push_back(candidate);
      } else {
        ejected.push_back(candidate);
      }
    }
    // Forced probe: when nothing is eligible, try ejected replicas
    // soonest-reprobe first rather than failing outright.
    std::stable_sort(ejected.begin(), ejected.end(), [this](int a, int b) {
      return health_[static_cast<size_t>(a)].ejected_until <
             health_[static_cast<size_t>(b)].ejected_until;
    });
  }
  eligible.insert(eligible.end(), ejected.begin(), ejected.end());
  return eligible;
}

common::Result<std::pair<int, core::TicketId>> ProviderPool::SubmitSomewhere(
    const std::vector<int>& fact_ids, const core::TicketOptions& options,
    std::vector<bool>& tried, int start) {
  Status last_error = Status::Unavailable("no replica accepted the batch");
  for (const int candidate : CandidateOrder(tried, start)) {
    tried[static_cast<size_t>(candidate)] = true;
    auto remote =
        replicas_[static_cast<size_t>(candidate)].provider->Submit(
            fact_ids, options);
    if (remote.ok()) {
      MarkSuccess(candidate);
      return std::make_pair(candidate, *remote);
    }
    MarkFailure(candidate);
    if (!Resubmittable(remote.status().code()) &&
        remote.status().code() != StatusCode::kNotFound) {
      // Not a replica-health problem (e.g. the batch itself is invalid):
      // trying other replicas would fail identically.
      return remote.status();
    }
    last_error = remote.status();
  }
  return last_error;
}

common::Result<core::TicketId> ProviderPool::Submit(
    std::span<const int> fact_ids, const core::TicketOptions& options) {
  Ticket ticket;
  ticket.fact_ids.assign(fact_ids.begin(), fact_ids.end());
  ticket.options = options;
  ticket.tried.assign(static_cast<size_t>(num_replicas()), false);
  CF_ASSIGN_OR_RETURN(
      const auto placed,
      SubmitSomewhere(ticket.fact_ids, options, ticket.tried,
                      options_.start_replica));
  ticket.replica = placed.first;
  ticket.remote = placed.second;
  ticket.expires_at = AttemptDeadline(clock()->NowSeconds());

  std::lock_guard<std::mutex> lock(mutex_);
  const core::TicketId id = next_id_++;
  ++stats_.tickets_submitted;
  // A batch that had to skip past failed replicas before landing was
  // effectively resubmitted (first submission counts as attempt zero).
  const int64_t attempts =
      std::count(ticket.tried.begin(), ticket.tried.end(), true);
  stats_.tickets_resubmitted += attempts - 1;
  tickets_.emplace(id, std::move(ticket));
  return id;
}

Status ProviderPool::Failover(core::TicketId ticket, int failed_replica,
                              const Status& cause) {
  std::vector<int> fact_ids;
  core::TicketOptions options;
  std::vector<bool> tried;
  core::TicketId remote = 0;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    Ticket& record = tickets_.at(ticket);
    record.tried[static_cast<size_t>(failed_replica)] = true;
    fact_ids = record.fact_ids;
    options = record.options;
    tried = record.tried;
    remote = record.remote;
  }
  // The old ticket may still be live on a wedged-but-reachable platform;
  // release it so the answers are not double-collected later.
  replicas_[static_cast<size_t>(failed_replica)].provider->Cancel(
      remote);

  auto placed = SubmitSomewhere(fact_ids, options, tried,
                                (failed_replica + 1) % num_replicas());
  std::lock_guard<std::mutex> lock(mutex_);
  if (!placed.ok()) {
    const std::string message = common::StrFormat(
        "batch failed on every replica of a %d-replica pool; first "
        "cause: %s; last: %s",
        num_replicas(), cause.message().c_str(),
        placed.status().message().c_str());
    tickets_.erase(ticket);
    return cause.code() == StatusCode::kDeadlineExceeded
               ? Status::DeadlineExceeded(message)
               : Status::Unavailable(message);
  }
  Ticket& record = tickets_.at(ticket);
  record.tried = tried;
  record.replica = placed->first;
  record.remote = placed->second;
  record.expires_at = AttemptDeadline(clock()->NowSeconds());
  ++stats_.tickets_resubmitted;
  return Status::Ok();
}

common::Result<core::TicketStatus> ProviderPool::Collect(
    core::TicketId ticket) {
  int replica = -1;
  core::TicketId remote = 0;
  double expires_at = 0.0;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    auto it = tickets_.find(ticket);
    if (it == tickets_.end()) {
      return Status::NotFound(common::StrFormat(
          "unknown pool ticket %lld", static_cast<long long>(ticket)));
    }
    replica = it->second.replica;
    remote = it->second.remote;
    expires_at = it->second.expires_at;
  }

  auto collected =
      replicas_[static_cast<size_t>(replica)].provider->Collect(remote);
  const double now = clock()->NowSeconds();
  Status cause;
  if (collected.ok()) {
    if (collected->phase == core::TicketPhase::kInFlight &&
        now >= expires_at) {
      cause = Status::DeadlineExceeded(common::StrFormat(
          "collection attempt on replica \"%s\" exceeded its %.3f s "
          "budget",
          replicas_[static_cast<size_t>(replica)].name.c_str(),
          options_.attempt_timeout_seconds));
    } else if (collected->phase == core::TicketPhase::kFailed &&
               Resubmittable(collected->error.code())) {
      cause = collected->error;
    } else {
      // Answers, in flight, or a failure that belongs to the batch (not
      // to the platform), which travels to the caller as-is.
      MarkSuccess(replica);
      if (collected->phase == core::TicketPhase::kInFlight) {
        collected->seconds_until_ready =
            std::min(collected->seconds_until_ready, expires_at - now);
      } else {
        std::lock_guard<std::mutex> lock(mutex_);
        tickets_.erase(ticket);
      }
      return collected;
    }
  } else if (Resubmittable(collected.status().code()) ||
             collected.status().code() == StatusCode::kNotFound) {
    // kNotFound here means the platform lost our ticket (e.g. it was
    // restarted): as dead as a refused connection for this attempt.
    cause = collected.status();
  } else {
    std::lock_guard<std::mutex> lock(mutex_);
    tickets_.erase(ticket);
    core::TicketStatus status;
    status.phase = core::TicketPhase::kFailed;
    status.error = collected.status();
    return status;
  }

  MarkFailure(replica);
  core::TicketStatus status;
  status.error = Failover(ticket, replica, cause);
  if (!status.error.ok()) {
    status.phase = core::TicketPhase::kFailed;
  } else {
    status.seconds_until_ready = kFailoverEtaSeconds;
  }
  return status;
}

void ProviderPool::Cancel(core::TicketId ticket) {
  int replica = -1;
  core::TicketId remote = 0;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    auto it = tickets_.find(ticket);
    if (it == tickets_.end()) return;
    replica = it->second.replica;
    remote = it->second.remote;
    tickets_.erase(it);
  }
  replicas_[static_cast<size_t>(replica)].provider->Cancel(remote);
}

ProviderPool::Stats ProviderPool::GetStats() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return stats_;
}

std::pair<int64_t, int64_t> ProviderPool::ServedCorrect() {
  int64_t served = 0;
  int64_t correct = 0;
  for (const Replica& replica : replicas_) {
    const auto [s, c] = replica.provider->ServedCorrect();
    served += s;
    correct += c;
  }
  return {served, correct};
}

int64_t ProviderPool::TicketsResubmitted() {
  return GetStats().tickets_resubmitted;
}

common::Status RegisterHttpPoolProvider(core::ProviderRegistry& registry,
                                        common::Clock* clock) {
  // Rotates each created pool's preferred replica so the per-instance
  // pools of one serving process spread across the endpoints.
  auto rotation = std::make_shared<std::atomic<uint64_t>>(0);
  return registry.Register(
      "http_pool",
      [clock, rotation](const core::ProviderSpec& spec)
          -> common::Result<std::shared_ptr<core::AsyncAnswerProvider>> {
        if (spec.endpoints.empty()) {
          return Status::InvalidArgument(
              "http_pool provider requires \"endpoints\" (a non-empty "
              "list of host:port crowd platforms)");
        }
        const double attempt_timeout = spec.await_timeout_seconds > 0
                                           ? spec.await_timeout_seconds
                                           : kDefaultAttemptTimeoutSeconds;

        // The universe template is the spec minus the transport fields;
        // registering the *same* template (same seeds) on every endpoint
        // is what lets any replica serve bit-identical judgments.
        core::ProviderSpec universe_spec = spec;
        universe_spec.kind = spec.universe_kind.empty()
                                 ? "simulated_crowd"
                                 : spec.universe_kind;
        universe_spec.endpoint.clear();
        universe_spec.endpoints.clear();
        universe_spec.await_timeout_seconds = 0.0;

        std::vector<ProviderPool::Replica> replicas;
        replicas.reserve(spec.endpoints.size());
        for (const std::string& text : spec.endpoints) {
          CF_ASSIGN_OR_RETURN(const Endpoint endpoint, ParseEndpoint(text));
          HttpAnswerProvider::Options options;
          options.host = endpoint.host;
          options.port = endpoint.port;
          auto provider = std::make_shared<HttpAnswerProvider>(options);
          CF_RETURN_IF_ERROR(provider->CreateUniverse(universe_spec));
          replicas.push_back({text, std::move(provider)});
        }

        ProviderPool::Options options;
        options.start_replica = static_cast<int>(
            rotation->fetch_add(1, std::memory_order_relaxed) %
            spec.endpoints.size());
        options.attempt_timeout_seconds = attempt_timeout;
        options.clock = clock;
        return std::shared_ptr<core::AsyncAnswerProvider>(
            std::make_shared<ProviderPool>(std::move(replicas),
                                           std::move(options)));
      });
}

}  // namespace crowdfusion::net
