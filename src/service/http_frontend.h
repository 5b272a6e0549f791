#ifndef CROWDFUSION_SERVICE_HTTP_FRONTEND_H_
#define CROWDFUSION_SERVICE_HTTP_FRONTEND_H_

#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>

#include "common/clock.h"
#include "common/status.h"
#include "loadgen/trace.h"
#include "net/http.h"
#include "net/http_server.h"
#include "service/fusion_service.h"

namespace crowdfusion::service {

/// The HTTP face of FusionService: a net::HttpServer routing the typed
/// request/response boundary (PR 4's JSON wire format) plus incremental
/// Session serving over a TTL-evicting session table.
///
/// Endpoints (JSON bodies; errors use the net/wire.h envelope):
///   POST   /v1/fusion:run          one-shot: crowdfusion-request-v1 in,
///                                  crowdfusion-response-v1 out
///   POST   /v1/sessions            create a session from a request body
///                                  -> {"session_id", "num_instances",
///                                      "ttl_seconds", "label"}
///   POST   /v1/sessions/{id}/step  advance one quantum
///                                  -> {"done", "outcomes": [...]}
///   POST   /v1/sessions/{id}/instances  stream new fact universes into a
///                                  live session ({"instances": [...],
///                                  "additional_budget": n} ->
///                                  {"num_instances", "first_new_instance",
///                                  "done"}); selection re-plans over the
///                                  grown universe on the next step
///   GET    /v1/sessions/{id}       progress snapshot (Session::Poll)
///   GET    /v1/sessions/{id}/result  full response so far (Session::Finish)
///   DELETE /v1/sessions/{id}       drop the session
///   GET    /healthz                liveness: {"status": "ok"}
///   GET    /metricsz               requests served/failed, sessions
///                                  created/evicted/active, p50/p95
///                                  handler latency (ms)
///
/// Session TTL contract: every touch (create/step/poll/result) re-arms a
/// session's expiry at now + session_ttl_seconds on the injected clock;
/// expired sessions are swept lazily on the next session-table access and
/// answer 404 afterwards. DELETE is idempotent. Handlers serialize
/// per-session (Session is single-caller by contract) but run
/// concurrently across sessions.
class HttpFrontend {
 public:
  /// The unified net::ServerConfig (bind, reactor limits, timeouts,
  /// session TTL/cap) plus the frontend's injected collaborators.
  struct Options : net::ServerConfig {
    /// Time source for TTL eviction, latency metrics, and the fusion
    /// service itself; nullptr means Clock::Real(). Borrowed.
    common::Clock* clock = nullptr;
    /// When set, every request is appended to this trace (the `serve
    /// --record-trace` hook) before routing, so even rejected requests
    /// replay. Borrowed; must outlive the frontend.
    loadgen::TraceRecorder* trace_recorder = nullptr;
  };

  explicit HttpFrontend(Options options);
  ~HttpFrontend();

  HttpFrontend(const HttpFrontend&) = delete;
  HttpFrontend& operator=(const HttpFrontend&) = delete;

  common::Status Start();
  void Stop();
  int port() const { return server_.port(); }

  /// The underlying service, e.g. to register custom backends before
  /// Start().
  FusionService& fusion_service() { return service_; }

  struct Metrics {
    int64_t requests_served = 0;
    /// Of those, how many answered 5xx (server-side failures). Routine
    /// admission rejections do not belong here — see requests_rejected.
    int64_t requests_failed = 0;
    /// Of those, how many answered 4xx (client errors and admission
    /// control: bad requests, unknown sessions, a full session table).
    int64_t requests_rejected = 0;
    int64_t sessions_created = 0;
    int64_t sessions_evicted = 0;
    int sessions_active = 0;
    double p50_handler_ms = 0.0;
    double p95_handler_ms = 0.0;
    /// Selector Select() calls observed across served runs and session
    /// steps, and their wall-time percentiles over the same sliding
    /// window as the handler gauges.
    int64_t selection_computes = 0;
    double selection_compute_p50_ms = 0.0;
    double selection_compute_p95_ms = 0.0;
    /// Seconds since Start() on the injected clock; monotonic while the
    /// frontend runs (capacity dashboards divide counters by it).
    double uptime_seconds = 0.0;
    /// TCP connections the listener has accepted (net::HttpServer's
    /// counter; keep-alive means this is typically << requests_served).
    int64_t connections_accepted = 0;
    /// Reactor backpressure gauges: connections bounced at accept (over
    /// max_connections), requests answered with the canned shed 503 (over
    /// max_queue_depth), and currently open connections.
    int64_t connections_rejected = 0;
    int64_t requests_shed = 0;
    int connections_current = 0;
  };
  Metrics GetMetrics() const;

 private:
  struct SessionEntry {
    std::unique_ptr<Session> session;
    std::string id;
    double expires_at = 0.0;
    /// Serializes handler access to the single-caller Session.
    std::mutex mutex;
    /// How many of the session's selection-compute samples have already
    /// been folded into the metrics window (guarded by `mutex`).
    size_t selection_samples_exported = 0;
  };

  common::Clock* clock() const {
    return options_.clock == nullptr ? common::Clock::Real()
                                     : options_.clock;
  }

  net::HttpResponse Handle(const net::HttpRequest& request);
  net::HttpResponse Route(const net::HttpRequest& request);
  net::HttpResponse HandleRun(const net::HttpRequest& request);
  net::HttpResponse HandleSessions(const net::HttpRequest& request,
                                   const std::string& rest);

  /// Sweeps expired sessions; caller must hold sessions_mutex_.
  void SweepExpiredLocked(double now);
  std::shared_ptr<SessionEntry> FindSession(const std::string& id);

  void RecordLatency(double ms, int status_code);

  /// Folds samples[exported..] (seconds) into the selection-compute
  /// window and advances `exported`; the caller owns `exported`'s
  /// synchronization (SessionEntry::mutex, or a handler-local counter).
  void RecordSelectionSamples(const std::vector<double>& samples_seconds,
                              size_t& exported);

  Options options_;
  FusionService service_;
  net::HttpServer server_;
  /// Clock reading at the last successful Start().
  double start_seconds_ = 0.0;

  mutable std::mutex sessions_mutex_;
  std::unordered_map<std::string, std::shared_ptr<SessionEntry>> sessions_;
  int64_t next_session_ = 1;
  int64_t sessions_created_ = 0;
  int64_t sessions_evicted_ = 0;

  mutable std::mutex metrics_mutex_;
  int64_t requests_served_ = 0;
  int64_t requests_failed_ = 0;
  int64_t requests_rejected_ = 0;
  /// Sliding window of recent handler latencies for the percentile gauges.
  std::deque<double> latencies_ms_;
  int64_t selection_computes_ = 0;
  /// Sliding window of recent Select() wall times, ms.
  std::deque<double> selection_compute_ms_;
};

}  // namespace crowdfusion::service

#endif  // CROWDFUSION_SERVICE_HTTP_FRONTEND_H_
