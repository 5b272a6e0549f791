#ifndef CROWDFUSION_SERVICE_HTTP_FRONTEND_H_
#define CROWDFUSION_SERVICE_HTTP_FRONTEND_H_

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

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
///                                  -> {"session_id", "done",
///                                      "outcomes": [...]}; a step
///                                  waiting on the crowd parks (see
///                                  below), and a second step on a
///                                  session whose step is parked is 409
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
///
/// Parked steps: a /step whose tickets are all still in flight (in either
/// mode) does not hold its worker through the crowd's latency. It parks the
/// session entry, the ResponseWriter and the due time with the
/// frontend's one waker thread and returns the worker to the pool; the
/// waker calls Session::StepAt again when the step is due and sends the
/// reply once the quantum completes. The waker never sleeps inside a
/// provider: Take answers at once, even for a pool ticket that failed
/// over between its ready poll and its take. A parked request still counts
/// against max_queue_depth. While a step is parked the session answers
/// GET (progress, result) and DELETE as usual; a second /step answers
/// 409 FailedPrecondition, as does /instances. A DELETE or TTL eviction
/// does not cancel the parked step: it completes and answers. Stop()
/// drops every parked step (its connection closes unanswered) and joins
/// the waker.
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
    /// /step requests parked with the waker, waiting on the crowd.
    int steps_parked = 0;
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
    /// A /step of this session is parked with the waker (guarded by
    /// `mutex`).
    bool step_parked = false;
  };

  /// A /step waiting on the crowd: what to resume, whom to answer, when.
  struct ParkedStep {
    std::shared_ptr<SessionEntry> entry;
    net::ResponseWriter writer;
    /// Clock time to call Session::StepAt again.
    double due_at = 0.0;
    /// Clock time the request reached the handler (latency metric).
    double started_at = 0.0;
  };

  common::Clock* clock() const {
    return options_.clock == nullptr ? common::Clock::Real()
                                     : options_.clock;
  }

  /// The server's AsyncHandler.
  void Handle(const net::HttpRequest& request, net::ResponseWriter&& writer);
  /// Routes and answers one request. Returns nullopt when the request
  /// parked: `writer` then moved to the waker, which answers it.
  std::optional<net::HttpResponse> Route(const net::HttpRequest& request,
                                         net::ResponseWriter& writer,
                                         double started_at);
  net::HttpResponse HandleRun(const net::HttpRequest& request);
  std::optional<net::HttpResponse> HandleSessions(
      const net::HttpRequest& request, const std::string& rest,
      net::ResponseWriter& writer, double started_at);
  std::optional<net::HttpResponse> HandleStep(
      const std::shared_ptr<SessionEntry>& entry, net::ResponseWriter& writer,
      double started_at);
  /// The reply to a finished (or failed) step attempt; the caller holds
  /// entry.mutex.
  net::HttpResponse StepReply(SessionEntry& entry,
                              const common::Result<StepAttempt>& attempt);
  /// Records the request's latency and sends its response.
  void Reply(net::ResponseWriter writer, net::HttpResponse response,
             double started_at);

  /// Hands a step to the waker.
  void Park(ParkedStep step);
  /// The waker thread: resumes each parked step when it is due.
  void WakerLoop();
  /// Advances one due step: replies when its quantum completes, parks it
  /// again otherwise.
  void Resume(ParkedStep step);
  /// Joins the waker and drops the steps still parked.
  void StopWaker();

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

  /// Parked steps by due time, and the waker that serves them.
  mutable std::mutex waker_mutex_;
  std::condition_variable waker_wake_;
  std::multimap<double, ParkedStep> parked_;
  bool waker_stop_ = false;
  std::thread waker_;
};

}  // namespace crowdfusion::service

#endif  // CROWDFUSION_SERVICE_HTTP_FRONTEND_H_
