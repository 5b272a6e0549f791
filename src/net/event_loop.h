#ifndef CROWDFUSION_NET_EVENT_LOOP_H_
#define CROWDFUSION_NET_EVENT_LOOP_H_

#include <sys/epoll.h>

#include <array>
#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common/status.h"
#include "net/http.h"
#include "net/server_config.h"
#include "net/socket.h"

namespace crowdfusion::net {

class EventLoop;

/// The worker -> reactor completion channel. Workers Post() finished
/// responses from any thread; the loop thread drains them (woken by a
/// self-pipe byte) and writes them onto their connections. Outlives the
/// loop via shared_ptr so a straggling ResponseWriter can Post after
/// Stop() — the post is then dropped, never a use-after-free.
class CompletionQueue {
 public:
  /// Thread-safe. Returns false (dropping the response) once the loop
  /// that minted the token has stopped.
  bool Post(uint64_t token, HttpResponse&& response);

 private:
  friend class EventLoop;
  struct Item {
    uint64_t token = 0;
    HttpResponse response;
  };

  std::mutex mutex_;
  std::vector<Item> items_;
  /// Write end of the loop's wake pipe; -1 once the loop stopped.
  int wake_fd_ = -1;
  /// Coalesces wake bytes: one per drain cycle, not one per Post.
  bool wake_pending_ = false;
};

/// How the loop hands a parsed request upward (HttpServer implements it
/// with a bounded ring + ThreadPool workers). Called on the loop thread;
/// must not block. The implementation takes the request by swapping it
/// out of `*request` (leaving its own recycled HttpRequest behind, so
/// string/header capacities circulate and the loop thread never
/// allocates), and must eventually cause CompletionQueue::Post(token) —
/// the loop bounds calls so that dispatched-but-unanswered requests never
/// exceed ServerConfig::max_queue_depth.
class RequestDispatcher {
 public:
  virtual ~RequestDispatcher() = default;
  virtual void DispatchRequest(uint64_t token, HttpRequest* request) = 0;
};

/// A single-threaded epoll reactor owning every socket of one server:
/// non-blocking accept, incremental parse into HttpRequestParser,
/// buffered non-blocking writes, and idle/header/read/write timeouts on a
/// hashed timer wheel (~50 ms resolution). One loop thread multiplexes
/// 10k+ keep-alive connections; handler compute never runs here — parsed
/// requests go up through RequestDispatcher and finished responses come
/// back through the CompletionQueue.
///
/// Per-connection state machine:
///   kIdle     between requests (idle timeout armed)
///   kReading  a request is partially buffered (header + frame timeouts
///             armed at its first byte; slow-drip cannot extend them)
///   kHandling dispatched, awaiting the completion (reads parked so
///             pipelined bytes wait in the kernel buffer — natural flow
///             control; only EPOLLRDHUP interest remains)
///   kWriting  flushing the serialized response (write-stall timeout on
///             EAGAIN)
///
/// Backpressure, all answered from prebuilt byte strings:
///   * accepts beyond max_connections: canned 503 + close, counted in
///     connections_rejected()
///   * parsed requests beyond max_queue_depth in flight: canned 503 +
///     Retry-After on a still-open keep-alive connection, counted in
///     requests_shed()
///   * header/frame timeouts: canned 408 + close
///
/// Steady-state allocation: zero on the loop thread. Connection slots
/// (parser buffer, request, response buffer) are recycled through a free
/// list, the parser assigns into recycled strings, responses serialize
/// via AppendResponse into the per-connection out buffer, and completion
/// batches swap between two persistent vectors. tests/net/event_loop_test
/// pins this with a global operator-new hook that counts the allocations
/// of every thread but the test's own and the server's worker.
class EventLoop {
 public:
  /// `dispatcher` is borrowed and must outlive the loop.
  EventLoop(RequestDispatcher* dispatcher, ServerConfig config);
  ~EventLoop();

  EventLoop(const EventLoop&) = delete;
  EventLoop& operator=(const EventLoop&) = delete;

  /// Validates the config, binds, and spawns the loop thread.
  /// FailedPrecondition if already started. Restartable after Stop().
  common::Status Start();

  /// Joins the loop thread and closes every connection. Responses still
  /// in flight on workers are dropped (their Posts no-op). Idempotent.
  void Stop();

  /// The bound port; valid after Start().
  int port() const { return port_; }

  std::shared_ptr<CompletionQueue> completions() const { return completions_; }

  int64_t connections_accepted() const {
    return connections_accepted_.load(std::memory_order_relaxed);
  }
  int64_t connections_rejected() const {
    return connections_rejected_.load(std::memory_order_relaxed);
  }
  int64_t requests_dispatched() const {
    return requests_dispatched_.load(std::memory_order_relaxed);
  }
  int64_t requests_shed() const {
    return requests_shed_.load(std::memory_order_relaxed);
  }
  /// Currently open (admitted) connections.
  int connections_current() const {
    return connections_current_.load(std::memory_order_relaxed);
  }

 private:
  enum class State { kClosed, kIdle, kReading, kHandling, kWriting };

  struct Conn {
    explicit Conn(HttpLimits limits) : parser(limits) {}
    Socket socket;
    HttpRequestParser parser;
    /// Parse target; swapped with the dispatcher's recycled request.
    HttpRequest request;
    /// Serialized response bytes pending flush.
    std::string out;
    size_t out_offset = 0;
    int slot = -1;
    uint32_t generation = 1;
    uint64_t token = 0;
    State state = State::kClosed;
    bool close_after_write = false;
    bool keep_alive = true;
    /// Whether header/frame deadlines are armed for the current request.
    bool read_armed = false;
    uint32_t epoll_events = 0;
    /// Armed wheel deadline plus the per-request pair it derives from.
    double deadline = 0.0;
    double header_deadline = 0.0;
    double frame_deadline = 0.0;
    /// Intrusive doubly-linked timer-wheel list, by connection slot.
    int timer_slot = -1;
    int timer_prev = -1;
    int timer_next = -1;
  };

  enum class ReadResult { kHaveBytes, kNoData, kGone };

  void Run();
  void HandleListenerReady();
  void HandleWake();
  void HandleConnEvent(Conn* conn, uint32_t events);
  /// The per-connection driver: iterates the state machine until the
  /// connection blocks (EAGAIN), parks in kHandling/kIdle, or closes.
  /// Deliberately iterative — a hostile pipeliner cannot recurse it.
  void Drive(Conn* conn);
  void TryParse(Conn* conn);
  ReadResult ReadSome(Conn* conn);
  /// Flushes conn->out; true when fully drained, false when blocked
  /// (EPOLLOUT + write timeout armed) or the connection died.
  bool FlushSome(Conn* conn);
  void ProcessCompletion(uint64_t token, HttpResponse&& response);
  void CloseConn(Conn* conn);
  Conn* LookupConn(uint64_t token);
  int AllocSlot();
  void SetInterest(Conn* conn, uint32_t events);

  void ArmTimer(Conn* conn, double deadline);
  void CancelTimer(Conn* conn);
  void ArmReadTimers(Conn* conn);
  void AdvanceWheel(double now);
  void FireTimer(Conn* conn, double now);

  RequestDispatcher* dispatcher_;
  ServerConfig config_;
  int port_ = 0;

  Listener listener_;
  int epoll_fd_ = -1;
  /// [0] = loop read end, [1] = CompletionQueue write end.
  int wake_pipe_[2] = {-1, -1};
  std::thread thread_;
  std::atomic<bool> stop_{false};
  bool running_ = false;
  std::mutex lifecycle_mutex_;

  std::shared_ptr<CompletionQueue> completions_;
  /// Loop-local drain target, swapped with CompletionQueue::items_.
  std::vector<CompletionQueue::Item> processing_;

  /// Connection slots; index = Conn::slot, recycled through free_slots_.
  std::vector<std::unique_ptr<Conn>> conns_;
  std::vector<int> free_slots_;
  std::vector<struct epoll_event> events_;
  std::vector<char> read_buf_;
  /// Dispatched-but-unanswered requests (loop thread only).
  int in_flight_ = 0;

  static constexpr double kTickSeconds = 0.05;
  static constexpr int kWheelSlots = 512;
  std::array<int, kWheelSlots> wheel_;
  int64_t last_tick_ = 0;
  /// Set on a hard accept error (EMFILE): the listener is deregistered
  /// until this instant so a level-triggered epoll cannot spin on it.
  double listener_paused_until_ = 0.0;

  /// Prebuilt reject/shed/timeout wire bytes (built in Start()).
  std::string reject_503_;
  std::string shed_503_keep_;
  std::string shed_503_close_;
  std::string timeout_408_;

  std::atomic<int64_t> connections_accepted_{0};
  std::atomic<int64_t> connections_rejected_{0};
  std::atomic<int64_t> requests_dispatched_{0};
  std::atomic<int64_t> requests_shed_{0};
  std::atomic<int> connections_current_{0};
};

}  // namespace crowdfusion::net

#endif  // CROWDFUSION_NET_EVENT_LOOP_H_
