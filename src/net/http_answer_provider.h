#ifndef CROWDFUSION_NET_HTTP_ANSWER_PROVIDER_H_
#define CROWDFUSION_NET_HTTP_ANSWER_PROVIDER_H_

#include <cstdint>
#include <string>
#include <utility>

#include "common/status.h"
#include "core/async_provider.h"
#include "core/registry.h"
#include "net/http_client.h"

namespace crowdfusion::net {

/// The real-platform provider: speaks core::AsyncAnswerProvider over
/// the crowd HTTP wire (see net/loopback_crowd_server.h for the protocol).
/// Submit POSTs a ticket batch — the TicketOptions deadline/retry contract
/// travels with it and is enforced by the platform's own ledger machinery —
/// Collect is one :take POST, which answers every phase (in flight with
/// its ETA, the answers, or the failure) and consumes a resolved ticket,
/// and Cancel DELETEs abandoned tickets so a long-lived serving process
/// leaks nothing remotely. A ticket costs its submit plus one :take per
/// collect. No call sleeps: the caller owns the waiting.
///
/// One provider serves one remote fact universe. Transport failures and an
/// in-flight ETA that is negative or infinite (no wait would fit it) are
/// kUnavailable; platform-reported errors arrive with their original
/// status code and message (the wire transports Status losslessly).
/// Thread-safety matches the in-process providers: calls may come from
/// any thread (the HTTP client serializes internally).
class HttpAnswerProvider : public core::AsyncAnswerProvider {
 public:
  struct Options {
    std::string host = "127.0.0.1";
    int port = 0;
    /// Pre-existing universe id; leave empty and call CreateUniverse to
    /// register a fresh one.
    std::string universe;
    /// Per-HTTP-call ceiling.
    double request_timeout_seconds = 10.0;
  };

  explicit HttpAnswerProvider(Options options);

  /// Best-effort remote cleanup: a universe this provider registered via
  /// CreateUniverse is DELETEd so a long-lived platform does not
  /// accumulate one universe per served instance. A universe handed in
  /// through Options::universe is left alone (not ours to reap).
  ~HttpAnswerProvider() override;

  /// Registers a fact universe on the remote platform from a provider
  /// template (the same spec document the in-process registries consume);
  /// subsequent tickets are scoped to it.
  common::Status CreateUniverse(const core::ProviderSpec& spec);

  const std::string& universe() const { return options_.universe; }

  common::Result<core::TicketId> Submit(
      std::span<const int> fact_ids,
      const core::TicketOptions& options) override;
  using core::AsyncAnswerProvider::Submit;
  common::Result<core::TicketStatus> Collect(core::TicketId ticket) override;
  void Cancel(core::TicketId ticket) override;

  /// (answers_served, answers_correct) as reported by the platform's
  /// stats endpoint; (0, 0) when unreachable.
  std::pair<int64_t, int64_t> ServedCorrect() override;

 private:
  std::string TicketPath(core::TicketId ticket, const char* suffix) const;

  Options options_;
  HttpClient client_;
  /// True when CreateUniverse registered options_.universe (and the
  /// destructor should reap it).
  bool owns_universe_ = false;
};

/// Registers the "http" provider kind: ProviderSpec::endpoint names a
/// crowd platform ("host:port"); the factory registers the spec as a
/// fresh universe there and returns the provider, which serves engine and
/// pipelined runs alike. ProviderSpec::await_timeout_seconds is ignored:
/// the caller bounds its own waits.
common::Status RegisterHttpProvider(core::ProviderRegistry& registry);

}  // namespace crowdfusion::net

#endif  // CROWDFUSION_NET_HTTP_ANSWER_PROVIDER_H_
