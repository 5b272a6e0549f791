/// Reactor contract (ISSUE 10): slow-loris clients are cut off with 408,
/// half-closed peers still get their pipelined responses, EAGAIN-heavy
/// writes flush via EPOLLOUT without wedging the loop, queue-depth
/// overload sheds canned 503 + Retry-After on a still-open connection,
/// the connection cap rejects at accept, and — the core perf invariant —
/// the loop thread allocates NOTHING in steady state (pinned with a
/// global operator-new hook + EventLoop::OnLoopThread).

#include <execinfo.h>
#include <gtest/gtest.h>
#include <unistd.h>

#include <atomic>
#include <condition_variable>
#include <cstdlib>
#include <limits>
#include <mutex>
#include <new>
#include <optional>
#include <string>
#include <thread>
#include <utility>

#include "common/json.h"
#include "net/event_loop.h"
#include "net/http_client.h"
#include "net/http_server.h"
#include "net/socket.h"

// --------------------------------------------------------------------------
// Global allocation hook: counts operator-new calls made ON THE LOOP
// THREAD. Worker/handler/test allocations pass through uncounted.
// --------------------------------------------------------------------------

namespace {
// Starts far below zero, so the allocations of warm-ups and of the other
// tests never reach it; a test that resets it to 0 arms the trace below.
std::atomic<int64_t> g_loop_thread_allocs{
    std::numeric_limits<int64_t>::min() / 2};

// Names the first unexpected allocation: the count's 0 -> 1 step writes
// the allocating stack to stderr. backtrace_symbols_fd writes without
// allocating; backtrace itself may allocate on its first call (it loads
// the unwinder), so BacktraceWarmup makes that call before any test.
void CountLoopThreadAllocation() {
  if (!crowdfusion::net::EventLoop::OnLoopThread()) return;
  if (g_loop_thread_allocs.fetch_add(1, std::memory_order_relaxed) != 0) {
    return;
  }
  static constexpr char kHeader[] =
      "first unexpected loop-thread allocation at:\n";
  (void)!write(STDERR_FILENO, kHeader, sizeof(kHeader) - 1);
  void* frames[64];
  backtrace_symbols_fd(frames, backtrace(frames, 64), STDERR_FILENO);
}

class BacktraceWarmup : public ::testing::Environment {
 public:
  void SetUp() override {
    void* frames[1];
    backtrace(frames, 1);
  }
};
::testing::Environment* const kBacktraceWarmup =
    ::testing::AddGlobalTestEnvironment(new BacktraceWarmup);
}  // namespace

void* operator new(std::size_t size) {
  CountLoopThreadAllocation();
  void* ptr = std::malloc(size == 0 ? 1 : size);
  if (ptr == nullptr) throw std::bad_alloc();
  return ptr;
}

void* operator new[](std::size_t size) {
  CountLoopThreadAllocation();
  void* ptr = std::malloc(size == 0 ? 1 : size);
  if (ptr == nullptr) throw std::bad_alloc();
  return ptr;
}

// GCC's -Wmismatched-new-delete pattern-matches the free() below against
// the replaced operator new at inlined call sites and mis-fires: every
// pointer these deletes receive came from the malloc-backed operators
// above, so the pairing is exact.
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
#endif
void operator delete(void* ptr) noexcept { std::free(ptr); }
void operator delete(void* ptr, std::size_t) noexcept { std::free(ptr); }
void operator delete[](void* ptr) noexcept { std::free(ptr); }
void operator delete[](void* ptr, std::size_t) noexcept { std::free(ptr); }
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic pop
#endif

namespace crowdfusion::net {
namespace {

HttpResponse EchoHandler(const HttpRequest& request) {
  HttpResponse response;
  response.body = request.method + " " + request.target + " " + request.body;
  return response;
}

HttpServer::Options EphemeralOptions() {
  HttpServer::Options options;
  options.port = 0;
  options.threads = 2;
  return options;
}

HttpClient::Options ClientOptions(int port) {
  HttpClient::Options options;
  options.host = "127.0.0.1";
  options.port = port;
  return options;
}

/// Reads until the peer closes or `deadline_seconds` passes with no byte.
std::string DrainUntilClose(Socket& socket, double deadline_seconds = 5.0) {
  std::string received;
  char buf[8192];
  for (;;) {
    auto n = socket.Read(buf, sizeof(buf), deadline_seconds);
    if (!n.ok() || *n == 0) break;
    received.append(buf, *n);
  }
  return received;
}

TEST(EventLoopTest, SlowLorisHeaderIsCutOffWith408) {
  HttpServer::Options options = EphemeralOptions();
  options.header_timeout_seconds = 0.3;
  HttpServer server(SyncHandlerAdapter(EchoHandler), options);
  ASSERT_TRUE(server.Start().ok());

  auto socket = ConnectTcp("127.0.0.1", server.port(), 5.0);
  ASSERT_TRUE(socket.ok()) << socket.status();
  // A header that never finishes. The header deadline must fire even
  // though the connection is not idle (bytes did arrive).
  ASSERT_TRUE(socket->WriteAll("GET /loris HTTP/1.1\r\nX-Drip: st", 5.0).ok());
  const std::string received = DrainUntilClose(*socket);
  EXPECT_NE(received.find("HTTP/1.1 408"), std::string::npos) << received;
  EXPECT_NE(received.find("Connection: close"), std::string::npos) << received;
  EXPECT_EQ(server.requests_served(), 0);
  server.Stop();
}

TEST(EventLoopTest, SlowBodyIsCutOffAtTheFrameDeadline) {
  HttpServer::Options options = EphemeralOptions();
  options.read_timeout_seconds = 0.3;
  HttpServer server(SyncHandlerAdapter(EchoHandler), options);
  ASSERT_TRUE(server.Start().ok());

  auto socket = ConnectTcp("127.0.0.1", server.port(), 5.0);
  ASSERT_TRUE(socket.ok()) << socket.status();
  // Complete headers, declared body never arrives: the whole-frame
  // deadline (not the header one) governs.
  ASSERT_TRUE(socket
                  ->WriteAll("POST /stall HTTP/1.1\r\nContent-Length: "
                             "100\r\n\r\npartial",
                             5.0)
                  .ok());
  const std::string received = DrainUntilClose(*socket);
  EXPECT_NE(received.find("HTTP/1.1 408"), std::string::npos) << received;
  EXPECT_EQ(server.requests_served(), 0);
  server.Stop();
}

TEST(EventLoopTest, HalfClosedPeerStillGetsItsPipelinedResponses) {
  HttpServer server(SyncHandlerAdapter(EchoHandler), EphemeralOptions());
  ASSERT_TRUE(server.Start().ok());

  auto socket = ConnectTcp("127.0.0.1", server.port(), 5.0);
  ASSERT_TRUE(socket.ok()) << socket.status();
  // Two pipelined requests, then FIN: the server must answer both, then
  // close when it rediscovers the EOF — never wedge on the half-open
  // connection.
  ASSERT_TRUE(socket
                  ->WriteAll(
                      "GET /one HTTP/1.1\r\n\r\n"
                      "GET /two HTTP/1.1\r\n\r\n",
                      5.0)
                  .ok());
  socket->ShutdownWrite();
  const std::string received = DrainUntilClose(*socket);
  EXPECT_NE(received.find("GET /one "), std::string::npos) << received;
  EXPECT_NE(received.find("GET /two "), std::string::npos) << received;
  EXPECT_EQ(server.requests_served(), 2);
  server.Stop();
}

TEST(EventLoopTest, EagainHeavyLargeResponseFlushesWithoutWedging) {
  const std::string big(8 * 1024 * 1024, 'z');
  HttpServer server(
      SyncHandlerAdapter([&big](const HttpRequest&) {
        HttpResponse response;
        response.body = big;
        return response;
      }),
      EphemeralOptions());
  ASSERT_TRUE(server.Start().ok());

  auto socket = ConnectTcp("127.0.0.1", server.port(), 5.0);
  ASSERT_TRUE(socket.ok()) << socket.status();
  ASSERT_TRUE(socket->WriteAll("GET /big HTTP/1.1\r\n\r\n", 5.0).ok());
  // Don't read for a moment: the response is far larger than the socket
  // buffers, so the loop's send hits EAGAIN and must park on EPOLLOUT.
  std::this_thread::sleep_for(std::chrono::milliseconds(300));
  std::string received;
  char buf[65536];
  while (received.size() < big.size()) {
    auto n = socket->Read(buf, sizeof(buf), 10.0);
    ASSERT_TRUE(n.ok()) << n.status();
    ASSERT_GT(*n, 0u) << "peer closed after " << received.size() << " bytes";
    received.append(buf, *n);
  }
  EXPECT_NE(received.find("HTTP/1.1 200"), std::string::npos);
  EXPECT_EQ(received.size() - received.find("\r\n\r\n") - 4, big.size());
  server.Stop();
}

TEST(EventLoopTest, StalledReaderIsDroppedAtTheWriteTimeout) {
  const std::string big(8 * 1024 * 1024, 'w');
  HttpServer::Options options = EphemeralOptions();
  options.write_timeout_seconds = 0.3;
  HttpServer server(
      SyncHandlerAdapter([&big](const HttpRequest&) {
        HttpResponse response;
        response.body = big;
        return response;
      }),
      options);
  ASSERT_TRUE(server.Start().ok());

  auto socket = ConnectTcp("127.0.0.1", server.port(), 5.0);
  ASSERT_TRUE(socket.ok()) << socket.status();
  ASSERT_TRUE(socket->WriteAll("GET /big HTTP/1.1\r\n\r\n", 5.0).ok());
  // Don't read past the write timeout: the send stalls at EAGAIN, the
  // write-stall timer fires, and the server must close rather than hold
  // the 8 MB buffer forever. Whatever sat in kernel buffers still drains.
  std::this_thread::sleep_for(std::chrono::milliseconds(700));
  const std::string received = DrainUntilClose(*socket, 5.0);
  EXPECT_LT(received.size(), big.size());
  server.Stop();
}

/// Async handler that parks every writer until the test releases it —
/// holds requests "in flight" deterministically.
class WriterParkingLot {
 public:
  HttpServer::AsyncHandler Handler() {
    return [this](const HttpRequest&, ResponseWriter&& writer) {
      std::lock_guard<std::mutex> lock(mutex_);
      parked_.push_back(std::move(writer));
      arrived_.notify_all();
    };
  }

  void AwaitParked(size_t count) {
    std::unique_lock<std::mutex> lock(mutex_);
    arrived_.wait(lock, [&] { return parked_.size() >= count; });
  }

  void ReleaseAll() {
    std::lock_guard<std::mutex> lock(mutex_);
    for (ResponseWriter& writer : parked_) {
      HttpResponse response;
      response.body = "released";
      writer.Send(std::move(response));
    }
    parked_.clear();
  }

 private:
  std::mutex mutex_;
  std::condition_variable arrived_;
  std::vector<ResponseWriter> parked_;
};

TEST(EventLoopTest, QueueDepthOverloadShedsCanned503WithRetryAfter) {
  WriterParkingLot lot;
  HttpServer::Options options = EphemeralOptions();
  options.max_queue_depth = 1;
  options.retry_after_seconds = 7;
  HttpServer server(lot.Handler(), options);
  ASSERT_TRUE(server.Start().ok());

  // First request occupies the only queue slot (its writer is parked).
  auto first = ConnectTcp("127.0.0.1", server.port(), 5.0);
  ASSERT_TRUE(first.ok());
  ASSERT_TRUE(first->WriteAll("GET /held HTTP/1.1\r\n\r\n", 5.0).ok());
  lot.AwaitParked(1);

  // Second connection's request must be shed: canned 503, Retry-After
  // from the config, connection kept open (keep-alive request).
  auto second = ConnectTcp("127.0.0.1", server.port(), 5.0);
  ASSERT_TRUE(second.ok());
  ASSERT_TRUE(second->WriteAll("GET /shed HTTP/1.1\r\n\r\n", 5.0).ok());
  std::string shed;
  char buf[8192];
  while (shed.find("\r\n\r\n") == std::string::npos ||
         shed.find("}") == std::string::npos) {
    auto n = second->Read(buf, sizeof(buf), 5.0);
    ASSERT_TRUE(n.ok()) << n.status();
    ASSERT_GT(*n, 0u);
    shed.append(buf, *n);
  }
  EXPECT_NE(shed.find("HTTP/1.1 503"), std::string::npos) << shed;
  EXPECT_NE(shed.find("Retry-After: 7"), std::string::npos) << shed;
  EXPECT_NE(shed.find("Connection: keep-alive"), std::string::npos) << shed;
  // The envelope is valid JSON with the standard error shape.
  const std::string body = shed.substr(shed.find("\r\n\r\n") + 4);
  auto parsed = common::JsonValue::Parse(body);
  ASSERT_TRUE(parsed.ok()) << body;
  ASSERT_NE(parsed->Find("error"), nullptr) << body;
  EXPECT_EQ(server.requests_shed(), 1);

  // Release the parked writer; the held connection gets its answer and
  // the shed connection is still usable for a normal request.
  lot.ReleaseAll();
  const std::string held = DrainUntilClose(*first, 2.0);
  EXPECT_NE(held.find("HTTP/1.1 200"), std::string::npos) << held;
  ASSERT_TRUE(second->WriteAll("GET /after HTTP/1.1\r\n\r\n", 5.0).ok());
  lot.AwaitParked(1);  // the follow-up request reaches the handler now
  lot.ReleaseAll();
  std::string after;
  while (after.find("released") == std::string::npos) {
    auto n = second->Read(buf, sizeof(buf), 5.0);
    ASSERT_TRUE(n.ok()) << n.status() << " got: " << after;
    ASSERT_GT(*n, 0u) << after;
    after.append(buf, *n);
  }
  EXPECT_NE(after.find("HTTP/1.1 200"), std::string::npos) << after;
  server.Stop();
}

TEST(EventLoopTest, ConnectionCapRejectsWithImmediate503) {
  HttpServer::Options options = EphemeralOptions();
  options.max_connections = 2;
  HttpServer server(SyncHandlerAdapter(EchoHandler), options);
  ASSERT_TRUE(server.Start().ok());

  // Two admitted connections, proven live with one request each.
  HttpClient a(ClientOptions(server.port()));
  HttpClient b(ClientOptions(server.port()));
  ASSERT_TRUE(a.Get("/a").ok());
  ASSERT_TRUE(b.Get("/b").ok());
  ASSERT_EQ(server.connections_current(), 2);

  // The third is bounced at accept with the canned reject and a close.
  auto third = ConnectTcp("127.0.0.1", server.port(), 5.0);
  ASSERT_TRUE(third.ok());
  const std::string received = DrainUntilClose(*third);
  EXPECT_NE(received.find("HTTP/1.1 503"), std::string::npos) << received;
  EXPECT_EQ(server.connections_rejected(), 1);
  EXPECT_EQ(server.connections_accepted(), 2);
  server.Stop();
}

TEST(EventLoopTest, DroppedWriterAnswers500InsteadOfWedging) {
  HttpServer server(
      [](const HttpRequest&, ResponseWriter&& writer) {
        // Handler "forgets" to answer; the dying writer must answer 500
        // for it.
        ResponseWriter dropped = std::move(writer);
        (void)dropped;
      },
      EphemeralOptions());
  ASSERT_TRUE(server.Start().ok());
  HttpClient client(ClientOptions(server.port()));
  auto response = client.Get("/forgotten");
  ASSERT_TRUE(response.ok()) << response.status();
  EXPECT_EQ(response->status_code, 500);
  server.Stop();
}

TEST(EventLoopTest, StopWithWriterStillHeldDoesNotHang) {
  WriterParkingLot lot;
  HttpServer server(lot.Handler(), EphemeralOptions());
  ASSERT_TRUE(server.Start().ok());
  auto socket = ConnectTcp("127.0.0.1", server.port(), 5.0);
  ASSERT_TRUE(socket.ok());
  ASSERT_TRUE(socket->WriteAll("GET /held HTTP/1.1\r\n\r\n", 5.0).ok());
  lot.AwaitParked(1);
  server.Stop();  // must return despite the in-flight request
  lot.ReleaseAll();  // the straggler Send is dropped, never a crash
}

TEST(EventLoopTest, PipelinedBurstIsServedInOrder) {
  HttpServer server(SyncHandlerAdapter(EchoHandler), EphemeralOptions());
  ASSERT_TRUE(server.Start().ok());
  auto socket = ConnectTcp("127.0.0.1", server.port(), 5.0);
  ASSERT_TRUE(socket.ok());
  std::string wire;
  for (int i = 0; i < 10; ++i) {
    wire += "GET /burst-" + std::to_string(i) + " HTTP/1.1\r\n\r\n";
  }
  ASSERT_TRUE(socket->WriteAll(wire, 5.0).ok());
  std::string received;
  char buf[8192];
  while (received.find("/burst-9") == std::string::npos) {
    auto n = socket->Read(buf, sizeof(buf), 5.0);
    ASSERT_TRUE(n.ok()) << n.status();
    ASSERT_GT(*n, 0u);
    received.append(buf, *n);
  }
  size_t at = 0;
  for (int i = 0; i < 10; ++i) {
    const size_t found = received.find("/burst-" + std::to_string(i), at);
    ASSERT_NE(found, std::string::npos) << "response " << i << " missing";
    at = found;
  }
  EXPECT_EQ(server.requests_served(), 10);
  server.Stop();
}

TEST(EventLoopTest, LoopThreadAllocatesNothingInSteadyState) {
  HttpServer::Options options = EphemeralOptions();
  // Small queue so the warm-up pass touches every recycled ring slot.
  options.max_queue_depth = 4;
  HttpServer server(SyncHandlerAdapter(EchoHandler), options);
  ASSERT_TRUE(server.Start().ok());

  HttpClient client(ClientOptions(server.port()));
  const std::string body(256, 'p');
  // Warm-up: grows every per-connection buffer, parser string, ring-slot
  // request, and worker scratch to its steady-state capacity. Must be the
  // byte-identical request — even a 2-byte-longer target would force one
  // legitimate out-buffer regrowth in the measured phase.
  for (int i = 0; i < 64; ++i) {
    auto response = client.Post("/steady", body);
    ASSERT_TRUE(response.ok()) << response.status();
  }

  g_loop_thread_allocs.store(0, std::memory_order_relaxed);
  for (int i = 0; i < 256; ++i) {
    auto response = client.Post("/steady", body);
    ASSERT_TRUE(response.ok()) << response.status();
  }
  EXPECT_EQ(g_loop_thread_allocs.load(std::memory_order_relaxed), 0)
      << "the reactor thread allocated during steady-state serving";
  server.Stop();
}

TEST(EventLoopTest, RestartServesAgainAndCountersPersist) {
  HttpServer server(SyncHandlerAdapter(EchoHandler), EphemeralOptions());
  ASSERT_TRUE(server.Start().ok());
  HttpClient client(ClientOptions(server.port()));
  ASSERT_TRUE(client.Get("/first").ok());
  server.Stop();
  ASSERT_TRUE(server.Start().ok());
  HttpClient again(ClientOptions(server.port()));
  auto response = again.Get("/second");
  ASSERT_TRUE(response.ok()) << response.status();
  EXPECT_EQ(response->body, "GET /second ");
  // Cumulative counters survive the restart; gauges reset.
  EXPECT_EQ(server.requests_served(), 2);
  server.Stop();
  EXPECT_EQ(server.connections_current(), 0);
}

}  // namespace
}  // namespace crowdfusion::net
