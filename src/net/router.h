#ifndef CROWDFUSION_NET_ROUTER_H_
#define CROWDFUSION_NET_ROUTER_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "common/status.h"
#include "net/http.h"
#include "net/http_client.h"
#include "net/http_server.h"
#include "net/server_config.h"

namespace crowdfusion::net {

/// The serving front tier: one HTTP endpoint fanning out to N
/// `crowdfusion_cli serve` backends, so the session-table capacity and
/// run throughput of the fleet scale with backend count while clients
/// keep a single address.
///
/// Routing policy:
///  * POST /v1/sessions (create) — the router walks the consistent-hash
///    ring (virtual nodes over the backend names) healthy-first from a
///    rotating spread point, proxies the create to the first backend that
///    answers, and rewrites the returned session id to
///    "<backend id>@<key>" where key is the *placed* backend's canonical
///    routing key (a precomputed key whose ring owner is that backend).
///    Placement and affinity therefore always agree, and the suffix makes
///    the id routable AND globally unique (every backend mints its own
///    "s-1", but the key pins which backend a bare id belongs to).
///  * /v1/sessions/{id}@{key}/... — session affinity: the key maps back
///    through the ring to the owning backend; the suffix is stripped
///    before proxying and re-added to session ids in the response. Ids
///    without a routing key are NotFound at the router. Affinity traffic
///    is never rerouted by health: every backend mints the same bare ids,
///    so a non-owner could silently resolve an unrelated session.
///  * /v1/fusion:run and everything else — proxied to the healthy backend
///    with the fewest in-flight proxied requests (least-loaded), retrying
///    the next backend on transport failure.
///
/// Health: consecutive transport failures eject a backend for
/// reprobe_seconds (same policy as net::ProviderPool); ejected backends
/// are deprioritized for placement and least-loaded proxying until
/// re-probed. A session whose owning backend died answers 503 until the
/// backend returns — the session state died with it; TTL re-creation is
/// the client's move.
///
/// The router holds a per-backend pool of keep-alive HttpClients; a
/// client whose call failed is discarded, not reused.
class Router {
 public:
  /// The unified server config; the router consumes the bind/reactor
  /// sections itself and reads the `backends`/ring knobs from the router
  /// section. `backends` is required non-empty here.
  using Options = ServerConfig;

  explicit Router(Options options);
  ~Router();

  Router(const Router&) = delete;
  Router& operator=(const Router&) = delete;

  common::Status Start();
  void Stop();
  int port() const { return server_.port(); }

  struct BackendMetrics {
    std::string endpoint;
    int64_t proxied = 0;
    bool ejected = false;
  };
  struct Metrics {
    int64_t requests_routed = 0;
    /// Proxy attempts that died in transport (before any backend answer).
    int64_t proxy_failures = 0;
    /// Session creates successfully routed.
    int64_t sessions_created = 0;
    std::vector<BackendMetrics> backends;
  };
  Metrics GetMetrics() const;

 private:
  struct Backend {
    std::string name;
    HttpClient::Options client_options;
    std::mutex clients_mutex;
    /// Keep-alive clients not currently proxying a request.
    std::vector<std::unique_ptr<HttpClient>> idle_clients;
    std::atomic<int> active{0};
    std::atomic<int64_t> proxied{0};
    // Guarded by health_mutex_.
    int consecutive_failures = 0;
    double ejected_until = 0.0;
  };

  HttpResponse Handle(const HttpRequest& request);
  HttpResponse HandleSessions(const HttpRequest& request,
                              const std::string& rest);
  HttpResponse HandleCreateSession(const HttpRequest& request);
  HttpResponse ProxyLeastLoaded(const HttpRequest& request);

  /// One proxied call; counts active/proxied, manages the client pool,
  /// and updates backend health. Transport-level failures come back as a
  /// Result error (the caller decides whether to retry elsewhere).
  common::Result<HttpResponse> ProxyTo(int backend, HttpRequest request);

  bool BackendHealthy(int backend, double now) const;
  void MarkBackendFailure(int backend);
  void MarkBackendSuccess(int backend);

  /// Distinct backends in ring-successor order starting at `hash`. With
  /// `healthy_first`, healthy ones are moved ahead (relative order
  /// preserved within each class) — placement only; affinity lookups
  /// must keep the true owner in front.
  std::vector<int> RingOrder(uint64_t hash, bool healthy_first) const;
  /// Healthy backends by ascending in-flight count.
  std::vector<int> LeastLoadedOrder() const;

  /// Appends "@key" to response.session_id (when present) of a 2xx
  /// proxied session response.
  static void RewriteSessionId(HttpResponse& response,
                               const std::string& key);

  Options options_;
  HttpServer server_;
  std::vector<std::unique_ptr<Backend>> backends_;
  /// (point, backend index), sorted by point.
  std::vector<std::pair<uint64_t, int>> ring_;
  /// Per-backend canonical routing key: session_keys_[b]'s ring owner is
  /// backend b, so ids stamped with it always route back to b. Computed
  /// once in Start().
  std::vector<std::string> session_keys_;
  /// Spreads session creates around the ring; never becomes a routing key.
  std::atomic<int64_t> next_create_seq_{1};

  mutable std::mutex health_mutex_;
  mutable std::mutex metrics_mutex_;
  int64_t requests_routed_ = 0;
  int64_t proxy_failures_ = 0;
  int64_t sessions_created_ = 0;
};

}  // namespace crowdfusion::net

#endif  // CROWDFUSION_NET_ROUTER_H_
