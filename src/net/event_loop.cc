#include "net/event_loop.h"

#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <string_view>
#include <utility>

#include "common/json.h"
#include "common/logging.h"
#include "common/string_util.h"

namespace crowdfusion::net {

using common::Status;

namespace {

constexpr uint64_t kListenerToken = ~uint64_t{0};
constexpr uint64_t kWakeToken = ~uint64_t{0} - 1;

double Now() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

uint64_t MakeToken(int slot, uint32_t generation) {
  return (static_cast<uint64_t>(generation) << 32) |
         static_cast<uint32_t>(slot);
}

/// Same JSON envelope as net/wire.h's error responses: built through
/// JsonValue so hostile bytes echoed into the message still emit valid
/// JSON. Allocates — used for canned bytes (Start) and parse errors only.
HttpResponse MakeErrorResponse(int code, const std::string& message) {
  HttpResponse response;
  response.status_code = code;
  response.headers.push_back({"Content-Type", "application/json"});
  common::JsonValue error = common::JsonValue::MakeObject();
  error.Set("code", static_cast<int64_t>(code));
  error.Set("message", message);
  common::JsonValue body = common::JsonValue::MakeObject();
  body.Set("error", std::move(error));
  response.body = body.Dump();
  return response;
}

std::string BuildCanned(int code, const std::string& message, bool close,
                        int retry_after_seconds) {
  HttpResponse response = MakeErrorResponse(code, message);
  if (retry_after_seconds >= 0) {
    response.headers.push_back(
        {"Retry-After", std::to_string(retry_after_seconds)});
  }
  response.headers.push_back({"Connection", close ? "close" : "keep-alive"});
  return SerializeResponse(response);
}

/// Serializes `response` + the server's Connection decision into `*out`
/// without mutating the response or allocating beyond `out` growth (the
/// hot-path sibling of AppendResponse). A handler-set Connection header
/// wins; otherwise the computed keep-alive/close is appended.
void AppendResponseBytes(const HttpResponse& response, bool close,
                         std::string* out) {
  char scratch[64];
  int n = std::snprintf(scratch, sizeof(scratch), "HTTP/1.1 %d ",
                        response.status_code);
  out->append(scratch, static_cast<size_t>(n));
  if (response.reason.empty()) {
    out->append(ReasonPhrase(response.status_code));
  } else {
    out->append(response.reason);
  }
  out->append("\r\n");
  for (const HttpHeader& header : response.headers) {
    out->append(header.name);
    out->append(": ");
    out->append(header.value);
    out->append("\r\n");
  }
  if (response.FindHeader("Connection") == nullptr) {
    out->append(close ? "Connection: close\r\n" : "Connection: keep-alive\r\n");
  }
  if (response.FindHeader("Content-Length") == nullptr) {
    n = std::snprintf(scratch, sizeof(scratch), "Content-Length: %zu\r\n",
                      response.body.size());
    out->append(scratch, static_cast<size_t>(n));
  }
  out->append("\r\n");
  out->append(response.body);
}

}  // namespace

// ---------------------------------------------------------------------------
// CompletionQueue
// ---------------------------------------------------------------------------

bool CompletionQueue::Post(uint64_t token, HttpResponse&& response) {
  std::lock_guard<std::mutex> lock(mutex_);
  if (wake_fd_ < 0) return false;
  items_.push_back(Item{token, std::move(response)});
  if (!wake_pending_) {
    wake_pending_ = true;
    const char byte = 'c';
    (void)!::write(wake_fd_, &byte, 1);
  }
  return true;
}

// ---------------------------------------------------------------------------
// EventLoop lifecycle
// ---------------------------------------------------------------------------

EventLoop::EventLoop(RequestDispatcher* dispatcher, ServerConfig config)
    : dispatcher_(dispatcher), config_(std::move(config)) {
  CF_CHECK(dispatcher_ != nullptr) << "EventLoop needs a dispatcher";
  wheel_.fill(-1);
}

EventLoop::~EventLoop() { Stop(); }

common::Status EventLoop::Start() {
  std::lock_guard<std::mutex> lifecycle(lifecycle_mutex_);
  if (running_) return Status::FailedPrecondition("event loop already started");
  CF_RETURN_IF_ERROR(config_.Validate());
  CF_ASSIGN_OR_RETURN(
      listener_,
      Listener::Bind(config_.host, config_.port, config_.listen_backlog));
  ::fcntl(listener_.fd(), F_SETFL, O_NONBLOCK);
  port_ = listener_.port();

  epoll_fd_ = ::epoll_create1(EPOLL_CLOEXEC);
  if (epoll_fd_ < 0) {
    listener_.Close();
    return Status::Unavailable("epoll_create1 failed");
  }
  if (::pipe2(wake_pipe_, O_NONBLOCK | O_CLOEXEC) != 0) {
    ::close(epoll_fd_);
    epoll_fd_ = -1;
    listener_.Close();
    return Status::Unavailable("pipe2 failed");
  }

  completions_ = std::make_shared<CompletionQueue>();
  completions_->wake_fd_ = wake_pipe_[1];

  reject_503_ = BuildCanned(
      503, "connection limit reached; try again shortly", /*close=*/true,
      config_.retry_after_seconds);
  shed_503_keep_ = BuildCanned(
      503, "server is at queue-depth capacity; retry shortly",
      /*close=*/false, config_.retry_after_seconds);
  shed_503_close_ = BuildCanned(
      503, "server is at queue-depth capacity; retry shortly",
      /*close=*/true, config_.retry_after_seconds);
  timeout_408_ = BuildCanned(
      408, "request was not received within the read deadline",
      /*close=*/true, /*retry_after_seconds=*/-1);

  conns_.clear();
  free_slots_.clear();
  wheel_.fill(-1);
  events_.resize(256);
  read_buf_.resize(64 * 1024);
  processing_.clear();
  in_flight_ = 0;
  listener_paused_until_ = 0.0;
  connections_current_.store(0, std::memory_order_relaxed);

  struct epoll_event ev = {};
  ev.events = EPOLLIN;
  ev.data.u64 = kListenerToken;
  ::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, listener_.fd(), &ev);
  ev.events = EPOLLIN;
  ev.data.u64 = kWakeToken;
  ::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, wake_pipe_[0], &ev);

  stop_.store(false, std::memory_order_release);
  thread_ = std::thread([this] { Run(); });
  running_ = true;
  return Status::Ok();
}

void EventLoop::Stop() {
  std::lock_guard<std::mutex> lifecycle(lifecycle_mutex_);
  if (!running_) return;
  stop_.store(true, std::memory_order_release);
  {
    // Reuse the completion wake path; also flips wake_fd_ off so late
    // Posts from workers are dropped instead of written to a dead pipe.
    std::lock_guard<std::mutex> lock(completions_->mutex_);
    const char byte = 's';
    (void)!::write(completions_->wake_fd_, &byte, 1);
    completions_->wake_fd_ = -1;
  }
  if (thread_.joinable()) thread_.join();
  // The loop thread is gone; tear down every connection from here.
  for (auto& conn : conns_) {
    if (conn->state != State::kClosed) {
      conn->socket.Close();
      conn->state = State::kClosed;
      ++conn->generation;
    }
  }
  connections_current_.store(0, std::memory_order_relaxed);
  ::close(wake_pipe_[0]);
  ::close(wake_pipe_[1]);
  wake_pipe_[0] = wake_pipe_[1] = -1;
  ::close(epoll_fd_);
  epoll_fd_ = -1;
  listener_.Close();
  running_ = false;
}

// ---------------------------------------------------------------------------
// The loop
// ---------------------------------------------------------------------------

void EventLoop::Run() {
  double now = Now();
  last_tick_ = static_cast<int64_t>(now / kTickSeconds);
  while (!stop_.load(std::memory_order_acquire)) {
    // Sleep to the next wheel tick so timeouts keep ~50 ms resolution
    // even when no I/O arrives.
    const double next_tick = (last_tick_ + 1) * kTickSeconds;
    const int timeout_ms = std::clamp(
        static_cast<int>((next_tick - Now()) * 1000.0) + 1, 1, 50);
    const int n_events = ::epoll_wait(epoll_fd_, events_.data(),
                                      static_cast<int>(events_.size()),
                                      timeout_ms);
    if (stop_.load(std::memory_order_acquire)) break;
    if (n_events < 0) {
      if (errno == EINTR) continue;
      break;
    }
    for (int i = 0; i < n_events; ++i) {
      const uint64_t token = events_[i].data.u64;
      if (token == kListenerToken) {
        HandleListenerReady();
      } else if (token == kWakeToken) {
        HandleWake();
      } else {
        // Lookup also drops events queued for a connection that died
        // (and possibly had its slot recycled) earlier in this batch.
        Conn* conn = LookupConn(token);
        if (conn != nullptr) HandleConnEvent(conn, events_[i].events);
      }
    }
    now = Now();
    AdvanceWheel(now);
  }
}

void EventLoop::HandleListenerReady() {
  for (;;) {
    const int fd =
        ::accept4(listener_.fd(), nullptr, nullptr, SOCK_NONBLOCK | SOCK_CLOEXEC);
    if (fd < 0) {
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) return;
      // Hard accept error (EMFILE under fd exhaustion): the listener
      // stays readable, so a level-triggered loop would spin. Deregister
      // it briefly; AdvanceWheel re-adds it after the pause.
      ::epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, listener_.fd(), nullptr);
      listener_paused_until_ = Now() + 0.05;
      return;
    }
    if (connections_current_.load(std::memory_order_relaxed) >=
        config_.max_connections) {
      connections_rejected_.fetch_add(1, std::memory_order_relaxed);
      // Best-effort canned reject; a full socket buffer just loses it.
      (void)!::send(fd, reject_503_.data(), reject_503_.size(), MSG_NOSIGNAL);
      ::close(fd);
      continue;
    }
    const int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    connections_accepted_.fetch_add(1, std::memory_order_relaxed);
    connections_current_.fetch_add(1, std::memory_order_relaxed);

    const int slot = AllocSlot();
    Conn* conn = conns_[slot].get();
    conn->socket = Socket(fd);
    conn->token = MakeToken(slot, conn->generation);
    conn->state = State::kIdle;
    conn->close_after_write = false;
    conn->keep_alive = true;
    conn->read_armed = false;
    conn->out_offset = 0;
    ArmTimer(conn, Now() + config_.idle_timeout_seconds);

    struct epoll_event ev = {};
    ev.events = EPOLLIN | EPOLLRDHUP;
    ev.data.u64 = conn->token;
    ::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, fd, &ev);
    conn->epoll_events = ev.events;
  }
}

void EventLoop::HandleWake() {
  char drain[256];
  while (::read(wake_pipe_[0], drain, sizeof(drain)) > 0) {
  }
  {
    std::lock_guard<std::mutex> lock(completions_->mutex_);
    processing_.swap(completions_->items_);
    completions_->wake_pending_ = false;
  }
  for (CompletionQueue::Item& item : processing_) {
    ProcessCompletion(item.token, std::move(item.response));
  }
  // Destroys the moved-from responses (frees worker-allocated strings —
  // frees, not allocations) while both vectors keep their capacity.
  processing_.clear();
}

void EventLoop::HandleConnEvent(Conn* conn, uint32_t events) {
  if ((events & (EPOLLHUP | EPOLLERR)) != 0) {
    CloseConn(conn);
    return;
  }
  if ((events & EPOLLOUT) != 0 && conn->state == State::kWriting) {
    Drive(conn);
  }
  if ((events & (EPOLLIN | EPOLLRDHUP)) != 0) {
    if (conn->state == State::kHandling) {
      // EPOLLRDHUP while the handler runs: nothing to do yet (pipelined
      // bytes stay in the kernel buffer until the response drains), but
      // squelch the level-triggered repeat.
      SetInterest(conn, 0);
      return;
    }
    if (conn->state == State::kIdle || conn->state == State::kReading) {
      Drive(conn);
    }
  }
}

void EventLoop::Drive(Conn* conn) {
  for (;;) {
    switch (conn->state) {
      case State::kWriting: {
        if (!FlushSome(conn)) return;  // blocked (armed) or closed
        if (conn->close_after_write) {
          CloseConn(conn);
          return;
        }
        conn->state = State::kReading;
        SetInterest(conn, EPOLLIN | EPOLLRDHUP);
        continue;
      }
      case State::kIdle:
      case State::kReading: {
        TryParse(conn);
        if (conn->state == State::kWriting ||
            conn->state == State::kHandling) {
          continue;
        }
        const ReadResult r = ReadSome(conn);
        if (r == ReadResult::kHaveBytes) continue;
        return;  // kNoData (timers armed, epoll waits) or kGone
      }
      case State::kHandling:
        SetInterest(conn, EPOLLRDHUP);
        return;
      case State::kClosed:
        return;
    }
  }
}

void EventLoop::TryParse(Conn* conn) {
  auto ready = conn->parser.Next(&conn->request);
  if (!ready.ok()) {
    // Unrecoverable framing: answer once with the mapped status (431/413/
    // 400), then close. Error path — allocation is fine here.
    HttpResponse response = MakeErrorResponse(
        HttpStatusForParseError(ready.status()), ready.status().message());
    AppendResponseBytes(response, /*close=*/true, &conn->out);
    conn->close_after_write = true;
    conn->read_armed = false;
    conn->state = State::kWriting;
    CancelTimer(conn);
    return;
  }
  if (!*ready) {
    if (conn->parser.buffered_bytes() == 0) {
      if (conn->state != State::kIdle) {
        conn->state = State::kIdle;
        conn->read_armed = false;
        ArmTimer(conn, Now() + config_.idle_timeout_seconds);
      }
    } else if (!conn->read_armed) {
      ArmReadTimers(conn);
    }
    return;
  }
  // One complete request.
  conn->read_armed = false;
  conn->keep_alive = conn->request.KeepAlive();
  if (in_flight_ >= config_.max_queue_depth) {
    requests_shed_.fetch_add(1, std::memory_order_relaxed);
    conn->out.append(conn->keep_alive ? shed_503_keep_ : shed_503_close_);
    conn->close_after_write = !conn->keep_alive;
    conn->state = State::kWriting;
    CancelTimer(conn);
    return;
  }
  ++in_flight_;
  requests_dispatched_.fetch_add(1, std::memory_order_relaxed);
  conn->state = State::kHandling;
  CancelTimer(conn);
  dispatcher_->DispatchRequest(conn->token, &conn->request);
}

EventLoop::ReadResult EventLoop::ReadSome(Conn* conn) {
  for (;;) {
    const ssize_t n =
        ::recv(conn->socket.fd(), read_buf_.data(), read_buf_.size(), 0);
    if (n > 0) {
      if (conn->state == State::kIdle) conn->state = State::kReading;
      conn->parser.Consume(
          std::string_view(read_buf_.data(), static_cast<size_t>(n)));
      return ReadResult::kHaveBytes;
    }
    if (n == 0) {
      // Peer EOF with no complete request buffered (TryParse ran first):
      // nothing further can ever complete — close.
      CloseConn(conn);
      return ReadResult::kGone;
    }
    if (errno == EINTR) continue;
    if (errno == EAGAIN || errno == EWOULDBLOCK) return ReadResult::kNoData;
    CloseConn(conn);
    return ReadResult::kGone;
  }
}

bool EventLoop::FlushSome(Conn* conn) {
  while (conn->out_offset < conn->out.size()) {
    const ssize_t n = ::send(conn->socket.fd(),
                             conn->out.data() + conn->out_offset,
                             conn->out.size() - conn->out_offset,
                             MSG_NOSIGNAL);
    if (n > 0) {
      conn->out_offset += static_cast<size_t>(n);
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
      SetInterest(conn, EPOLLOUT);
      // Re-armed on every EAGAIN: the timeout bounds a write *stall*,
      // not total response time.
      ArmTimer(conn, Now() + config_.write_timeout_seconds);
      return false;
    }
    CloseConn(conn);  // EPIPE / ECONNRESET
    return false;
  }
  conn->out.clear();  // keeps capacity — the per-connection reuse
  conn->out_offset = 0;
  CancelTimer(conn);
  return true;
}

void EventLoop::ProcessCompletion(uint64_t token, HttpResponse&& response) {
  --in_flight_;
  Conn* conn = LookupConn(token);
  if (conn == nullptr || conn->state != State::kHandling) return;
  const bool close = !conn->keep_alive || response.WantsClose();
  conn->close_after_write = close;
  AppendResponseBytes(response, close, &conn->out);
  conn->state = State::kWriting;
  Drive(conn);
}

void EventLoop::CloseConn(Conn* conn) {
  if (conn->state == State::kClosed) return;
  CancelTimer(conn);
  conn->socket.Close();  // also removes the fd from epoll
  conn->state = State::kClosed;
  ++conn->generation;  // invalidates the token of any in-flight handler
  conn->parser.Reset();
  conn->out.clear();
  conn->out_offset = 0;
  conn->close_after_write = false;
  conn->read_armed = false;
  conn->epoll_events = 0;
  free_slots_.push_back(conn->slot);
  connections_current_.fetch_sub(1, std::memory_order_relaxed);
}

EventLoop::Conn* EventLoop::LookupConn(uint64_t token) {
  const uint32_t slot = static_cast<uint32_t>(token & 0xffffffffu);
  if (slot >= conns_.size()) return nullptr;
  Conn* conn = conns_[slot].get();
  if (conn->token != token || conn->state == State::kClosed) return nullptr;
  return conn;
}

int EventLoop::AllocSlot() {
  if (!free_slots_.empty()) {
    const int slot = free_slots_.back();
    free_slots_.pop_back();
    return slot;
  }
  // Grows only at the connection high-water mark; steady state always
  // hits the free list.
  conns_.push_back(std::make_unique<Conn>(config_.limits));
  conns_.back()->slot = static_cast<int>(conns_.size()) - 1;
  return conns_.back()->slot;
}

void EventLoop::SetInterest(Conn* conn, uint32_t events) {
  if (conn->epoll_events == events) return;
  struct epoll_event ev = {};
  ev.events = events;
  ev.data.u64 = conn->token;
  ::epoll_ctl(epoll_fd_, EPOLL_CTL_MOD, conn->socket.fd(), &ev);
  conn->epoll_events = events;
}

// ---------------------------------------------------------------------------
// Timer wheel
// ---------------------------------------------------------------------------

void EventLoop::ArmTimer(Conn* conn, double deadline) {
  CancelTimer(conn);
  conn->deadline = deadline;
  // File into the tick AFTER the deadline (round up): when the wheel
  // visits that slot, now >= tick start >= deadline, so the entry fires
  // on its first visit. Rounding down would leave a deadline landing
  // mid-tick unexpired at visit time — and then parked for a full wheel
  // rotation (25.6 s) before being looked at again.
  int64_t tick = static_cast<int64_t>(deadline / kTickSeconds) + 1;
  // Never file into a tick the wheel already passed — it would not be
  // visited again for a full rotation.
  if (tick <= last_tick_) tick = last_tick_ + 1;
  const int wheel_slot = static_cast<int>(tick % kWheelSlots);
  conn->timer_slot = wheel_slot;
  conn->timer_prev = -1;
  conn->timer_next = wheel_[wheel_slot];
  if (wheel_[wheel_slot] >= 0) {
    conns_[wheel_[wheel_slot]]->timer_prev = conn->slot;
  }
  wheel_[wheel_slot] = conn->slot;
}

void EventLoop::CancelTimer(Conn* conn) {
  if (conn->timer_slot < 0) return;
  if (conn->timer_prev >= 0) {
    conns_[conn->timer_prev]->timer_next = conn->timer_next;
  } else {
    wheel_[conn->timer_slot] = conn->timer_next;
  }
  if (conn->timer_next >= 0) {
    conns_[conn->timer_next]->timer_prev = conn->timer_prev;
  }
  conn->timer_slot = -1;
  conn->timer_prev = -1;
  conn->timer_next = -1;
  conn->deadline = 0.0;
}

void EventLoop::ArmReadTimers(Conn* conn) {
  const double now = Now();
  conn->header_deadline = now + config_.header_timeout_seconds;
  conn->frame_deadline = now + config_.read_timeout_seconds;
  conn->read_armed = true;
  const double first = conn->parser.HasBufferedHeaderEnd()
                           ? conn->frame_deadline
                           : std::min(conn->header_deadline,
                                      conn->frame_deadline);
  ArmTimer(conn, first);
}

void EventLoop::AdvanceWheel(double now) {
  if (listener_paused_until_ > 0.0 && now >= listener_paused_until_) {
    listener_paused_until_ = 0.0;
    struct epoll_event ev = {};
    ev.events = EPOLLIN;
    ev.data.u64 = kListenerToken;
    ::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, listener_.fd(), &ev);
  }
  const int64_t now_tick = static_cast<int64_t>(now / kTickSeconds);
  if (now_tick <= last_tick_) return;
  int64_t steps = now_tick - last_tick_;
  if (steps > kWheelSlots) steps = kWheelSlots;  // one full rotation max
  for (int64_t s = 1; s <= steps; ++s) {
    const int wheel_slot = static_cast<int>((last_tick_ + s) % kWheelSlots);
    int index = wheel_[wheel_slot];
    while (index >= 0) {
      Conn* conn = conns_[index].get();
      const int next = conn->timer_next;
      if (conn->deadline <= now + 1e-9) {
        CancelTimer(conn);
        FireTimer(conn, now);
      }
      // Entries with a future deadline stay filed; the wheel revisits
      // them next rotation.
      index = next;
    }
  }
  last_tick_ = now_tick;
}

void EventLoop::FireTimer(Conn* conn, double now) {
  switch (conn->state) {
    case State::kIdle:
      CloseConn(conn);  // keep-alive idleness expired
      return;
    case State::kReading: {
      // The armed deadline was the *earliest* candidate; re-check which
      // one actually applies now that some bytes may have arrived.
      const double effective =
          conn->parser.HasBufferedHeaderEnd()
              ? conn->frame_deadline
              : std::min(conn->header_deadline, conn->frame_deadline);
      if (now + 1e-9 < effective) {
        ArmTimer(conn, effective);  // header completed in time; wait on
        return;                     // the frame deadline
      }
      conn->out.append(timeout_408_);
      conn->close_after_write = true;
      conn->read_armed = false;
      conn->state = State::kWriting;
      Drive(conn);
      return;
    }
    case State::kWriting:
      CloseConn(conn);  // write stalled past the deadline
      return;
    case State::kHandling:
    case State::kClosed:
      return;  // no timers are armed in these states
  }
}

}  // namespace crowdfusion::net
