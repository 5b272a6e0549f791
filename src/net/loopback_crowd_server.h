#ifndef CROWDFUSION_NET_LOOPBACK_CROWD_SERVER_H_
#define CROWDFUSION_NET_LOOPBACK_CROWD_SERVER_H_

#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>

#include "common/clock.h"
#include "common/status.h"
#include "core/async_provider.h"
#include "core/registry.h"
#include "net/http_server.h"
#include "net/server_config.h"

namespace crowdfusion::net {

/// A crowd platform behind real sockets: the HTTP face of the repo's
/// in-process providers, so the full select -> collect -> merge loop can
/// run client -> HTTP -> service -> HTTP -> crowd end-to-end. Primarily
/// the test double for net::HttpAnswerProvider (hence "loopback"), but
/// also startable from `crowdfusion_cli serve --crowd-port`.
///
/// Protocol (JSON bodies, error envelope per net/wire.h):
///   POST   /v1/universes                   register a fact universe from a
///                                          provider-spec document
///                                          -> {"universe": "u-1"}
///   DELETE /v1/universes/{u}               drop it
///   GET    /v1/universes/{u}/stats       {"answers_served", "answers_correct"}
///   POST   /v1/universes/{u}/tickets     {"fact_ids": [...], "options": {...}}
///                                          -> {"ticket": n}
///   POST   /v1/universes/{u}/tickets/{t}:take  collect the ticket
///                                          -> {"phase", "attempts_used",
///                                          "seconds_until_ready"}, plus
///                                          "answers" when ready or
///                                          "error" when failed (both
///                                          consume it; an in_flight
///                                          ticket lives on)
///   DELETE /v1/universes/{u}/tickets/{t}   cancel (idempotent)
///   GET    /healthz                        {"status": "ok"}
///
/// Universes are built through crowd::FullProviderRegistry — the *same
/// factory code path* the in-process service uses — which is what makes
/// the HTTP differential bit-for-bit: a universe created from a given
/// spec judges identically to the in-process provider built from it.
class LoopbackCrowdServer {
 public:
  /// The unified net::ServerConfig plus the crowd server's own knobs.
  struct Options : ServerConfig {
    Options() { threads = 2; }
    /// Injected into simulated latency models and ticket ledgers; nullptr
    /// means Clock::Real(). Borrowed.
    common::Clock* clock = nullptr;
  };

  LoopbackCrowdServer();
  explicit LoopbackCrowdServer(Options options);
  ~LoopbackCrowdServer();

  common::Status Start();
  void Stop();

  int port() const { return server_.port(); }
  /// "host:port", the ProviderSpec::endpoint spelling.
  std::string endpoint() const;

  /// Universes currently hosted (created minus deleted): the leak gauge —
  /// a well-behaved HttpAnswerProvider reaps its universe on destruction.
  int64_t universes_live() const;
  int64_t tickets_submitted() const;

 private:
  struct Universe {
    std::shared_ptr<core::AsyncAnswerProvider> provider;
    /// Serializes Submit calls (providers require one submitter at a
    /// time); collects and cancels ride along for simplicity.
    std::mutex mutex;
  };

  HttpResponse Handle(const HttpRequest& request);
  HttpResponse HandleUniverses(const HttpRequest& request,
                               const std::string& rest);

  Options options_;
  core::ProviderRegistry registry_;
  HttpServer server_;

  mutable std::mutex mutex_;
  /// shared_ptr so a universe being served survives a concurrent DELETE.
  std::unordered_map<std::string, std::shared_ptr<Universe>> universes_;
  int64_t next_universe_ = 1;
  int64_t tickets_submitted_ = 0;
};

}  // namespace crowdfusion::net

#endif  // CROWDFUSION_NET_LOOPBACK_CROWD_SERVER_H_
