#ifndef CROWDFUSION_NET_HTTP_SERVER_H_
#define CROWDFUSION_NET_HTTP_SERVER_H_

#include <condition_variable>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "common/status.h"
#include "common/thread_pool.h"
#include "net/event_loop.h"
#include "net/http.h"
#include "net/server_config.h"

namespace crowdfusion::net {

/// The completion handle a handler uses to answer one request. Move-only;
/// exactly one Send() per request, callable from any thread — a handler
/// may stash the writer and complete the request later (deferred replies,
/// fan-out to other backends). Dropping an unsent writer answers 500 so a
/// buggy handler can never wedge a connection open until its timeout.
class ResponseWriter {
 public:
  ResponseWriter(std::shared_ptr<CompletionQueue> queue, uint64_t token)
      : queue_(std::move(queue)), token_(token) {}
  ~ResponseWriter();

  ResponseWriter(ResponseWriter&& other) noexcept
      : queue_(std::move(other.queue_)), token_(other.token_) {
    other.queue_.reset();
  }
  ResponseWriter(const ResponseWriter&) = delete;
  ResponseWriter& operator=(const ResponseWriter&) = delete;

  /// Delivers the response. Thread-safe w.r.t. the server; aborts if
  /// called twice. The connection may already be gone (client hung up) —
  /// the response is then silently dropped; Send never fails.
  void Send(HttpResponse response);

  /// False once Send() consumed the writer (or it was moved from).
  bool valid() const { return queue_ != nullptr; }

 private:
  std::shared_ptr<CompletionQueue> queue_;
  uint64_t token_ = 0;
};

/// Adapts a synchronous request->response function to the async handler
/// contract: computes inline on the worker thread and sends immediately.
using SyncHandler = std::function<HttpResponse(const HttpRequest&)>;

/// A dependency-free HTTP/1.1 server, reactor edition: one epoll
/// EventLoop thread owns every socket (accept, parse, write, timeouts)
/// and a small ThreadPool of workers runs the handler.
///
/// Threading contract:
///  * The handler runs on worker threads, never the loop thread, and must
///    be thread-safe (up to `threads` concurrent invocations).
///  * The HttpRequest reference passed to the handler is valid only for
///    the duration of the call — copy what must outlive it.
///  * The ResponseWriter is free-threaded: Send() may be called from the
///    worker, from another thread the handler handed it to, or after the
///    handler returned. Exactly one Send() per writer; destroying an
///    unsent writer auto-answers 500.
///  * Requests from one connection are serialized (the loop dispatches
///    the next pipelined request only after the previous response was
///    written), but requests from different connections are concurrent.
///
/// Backpressure (all enforced on the loop thread, answered from canned
/// bytes): connections beyond ServerConfig::max_connections are rejected
/// with 503 + close at accept; requests beyond max_queue_depth in flight
/// are shed with 503 + Retry-After while the connection stays usable;
/// header/read stalls are answered 408 + close. See EventLoop for the
/// state machine.
///
/// Stop() (and the destructor) joins the loop thread, closes every
/// connection, and drains the workers; responses still being computed are
/// dropped (their Send becomes a no-op). Idempotent.
class HttpServer {
 public:
  /// The handler contract: inspect `request`, eventually call
  /// `writer.Send(response)` exactly once (any thread, any time).
  using AsyncHandler =
      std::function<void(const HttpRequest&, ResponseWriter&&)>;
  /// One unified config for every server in the repo.
  using Options = ServerConfig;

  HttpServer(AsyncHandler handler, Options options);
  ~HttpServer();

  HttpServer(const HttpServer&) = delete;
  HttpServer& operator=(const HttpServer&) = delete;

  /// Binds and starts serving. FailedPrecondition if already started.
  common::Status Start();

  /// Graceful stop; idempotent. Blocks until the loop and workers exited.
  void Stop();

  /// The bound port; valid after Start().
  int port() const { return loop_.port(); }

  int64_t connections_accepted() const {
    return loop_.connections_accepted();
  }
  int64_t connections_rejected() const {
    return loop_.connections_rejected();
  }
  int64_t requests_served() const { return loop_.requests_dispatched(); }
  int64_t requests_shed() const { return loop_.requests_shed(); }
  int connections_current() const { return loop_.connections_current(); }

 private:
  /// EventLoop -> worker hand-off ring. Slots are preallocated to
  /// max_queue_depth (the loop never dispatches beyond it) and their
  /// HttpRequests are recycled by swapping: loop swaps a parsed request
  /// in, a worker swaps it out against its thread-local scratch, and the
  /// emptied-but-capacitied strings flow back toward the connections.
  struct PendingRequest {
    uint64_t token = 0;
    HttpRequest request;
  };

  class Dispatcher;  // EventLoop-facing shim, defined in the .cc

  void DispatchRequest(uint64_t token, HttpRequest* request);
  void WorkerLoop();

  AsyncHandler handler_;
  Options options_;

  std::unique_ptr<Dispatcher> dispatcher_;
  EventLoop loop_;
  std::unique_ptr<common::ThreadPool> pool_;

  std::mutex ring_mutex_;
  std::condition_variable ring_ready_;
  std::vector<PendingRequest> ring_;
  size_t ring_head_ = 0;
  size_t ring_count_ = 0;
  bool draining_ = false;

  bool running_ = false;
  mutable std::mutex lifecycle_mutex_;
};

/// Wraps a synchronous handler as an AsyncHandler: the worker computes
/// the response inline and sends it before returning. The migration path
/// for pre-reactor call sites.
HttpServer::AsyncHandler SyncHandlerAdapter(SyncHandler handler);

}  // namespace crowdfusion::net

#endif  // CROWDFUSION_NET_HTTP_SERVER_H_
