/// HttpServer contract: ephemeral-port binding (every socket test binds
/// port 0 — the parallel-ctest rule), keep-alive, concurrent clients over
/// the ThreadPool workers, size-cap error mapping, and clean Stop() with
/// connections open.

#include <gtest/gtest.h>

#include <atomic>
#include <string>
#include <thread>
#include <vector>

#include "common/json.h"
#include "net/http_client.h"
#include "net/http_server.h"
#include "support/status_printing.h"

namespace crowdfusion::net {
namespace {

HttpClient::Options ClientOptions(int port) {
  HttpClient::Options options;
  options.host = "127.0.0.1";
  options.port = port;
  return options;
}

HttpServer::Options EphemeralOptions() {
  HttpServer::Options options;
  options.port = 0;
  options.threads = 4;
  return options;
}

/// Echoes method, target and body so tests can see exactly what arrived.
HttpResponse EchoHandler(const HttpRequest& request) {
  HttpResponse response;
  response.body = request.method + " " + request.target + " " + request.body;
  return response;
}

TEST(HttpServerTest, ServesOverEphemeralPort) {
  HttpServer server(SyncHandlerAdapter(EchoHandler), EphemeralOptions());
  ASSERT_TRUE(server.Start().ok());
  ASSERT_GT(server.port(), 0);

  HttpClient client(ClientOptions(server.port()));
  auto response = client.Get("/hello");
  ASSERT_TRUE(response.ok()) << response.status();
  EXPECT_EQ(response->status_code, 200);
  EXPECT_EQ(response->body, "GET /hello ");
  server.Stop();
}

TEST(HttpServerTest, TwoEphemeralServersNeverCollide) {
  HttpServer a(SyncHandlerAdapter(EchoHandler), EphemeralOptions());
  HttpServer b(SyncHandlerAdapter(EchoHandler), EphemeralOptions());
  ASSERT_TRUE(a.Start().ok());
  ASSERT_TRUE(b.Start().ok());
  EXPECT_NE(a.port(), b.port());
}

TEST(HttpServerTest, KeepAliveReusesOneConnection) {
  HttpServer server(SyncHandlerAdapter(EchoHandler), EphemeralOptions());
  ASSERT_TRUE(server.Start().ok());
  HttpClient client(ClientOptions(server.port()));
  for (int i = 0; i < 5; ++i) {
    auto response = client.Post("/seq", std::to_string(i));
    ASSERT_TRUE(response.ok()) << response.status();
    EXPECT_EQ(response->body, "POST /seq " + std::to_string(i));
  }
  EXPECT_EQ(server.connections_accepted(), 1);
  EXPECT_EQ(server.requests_served(), 5);
}

TEST(HttpServerTest, ConcurrentClientsAllServed) {
  HttpServer server(SyncHandlerAdapter(EchoHandler), EphemeralOptions());
  ASSERT_TRUE(server.Start().ok());
  constexpr int kThreads = 8;
  constexpr int kRequests = 16;
  std::atomic<int> ok_count{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&server, &ok_count, t] {
      HttpClient client(ClientOptions(server.port()));
      for (int i = 0; i < kRequests; ++i) {
        const std::string body =
            std::to_string(t) + ":" + std::to_string(i);
        auto response = client.Post("/work", body);
        if (response.ok() && response->status_code == 200 &&
            response->body == "POST /work " + body) {
          ok_count.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  EXPECT_EQ(ok_count.load(), kThreads * kRequests);
  EXPECT_EQ(server.requests_served(), kThreads * kRequests);
}

TEST(HttpServerTest, OversizedHeadersAnswer431) {
  HttpServer::Options options = EphemeralOptions();
  options.limits.max_header_bytes = 256;
  HttpServer server(SyncHandlerAdapter(EchoHandler), options);
  ASSERT_TRUE(server.Start().ok());
  HttpClient client(ClientOptions(server.port()));
  HttpRequest request;
  request.method = "GET";
  request.target = "/";
  request.headers.push_back({"X-Padding", std::string(1024, 'p')});
  auto response = client.Call(request);
  ASSERT_TRUE(response.ok()) << response.status();
  EXPECT_EQ(response->status_code, 431);
}

TEST(HttpServerTest, OversizedBodyAnswers413) {
  HttpServer::Options options = EphemeralOptions();
  options.limits.max_body_bytes = 128;
  HttpServer server(SyncHandlerAdapter(EchoHandler), options);
  ASSERT_TRUE(server.Start().ok());
  HttpClient client(ClientOptions(server.port()));
  auto response = client.Post("/big", std::string(4096, 'b'));
  ASSERT_TRUE(response.ok()) << response.status();
  EXPECT_EQ(response->status_code, 413);
}

TEST(HttpServerTest, MalformedRequestAnswers400AndCloses) {
  HttpServer server(SyncHandlerAdapter(EchoHandler), EphemeralOptions());
  ASSERT_TRUE(server.Start().ok());
  auto socket = ConnectTcp("127.0.0.1", server.port(), 5.0);
  ASSERT_TRUE(socket.ok()) << socket.status();
  ASSERT_TRUE(
      socket->WriteAll("THIS IS NOT HTTP\r\n\r\n", 5.0).ok());
  std::string received;
  char buf[4096];
  for (;;) {
    auto n = socket->Read(buf, sizeof(buf), 5.0);
    ASSERT_TRUE(n.ok()) << n.status();
    if (*n == 0) break;  // server closed after the error response
    received.append(buf, *n);
  }
  EXPECT_NE(received.find("HTTP/1.1 400"), std::string::npos) << received;
  EXPECT_NE(received.find("Connection: close"), std::string::npos);
}

TEST(HttpServerTest, SlowDripRequestIsCutOffAtTheRequestDeadline) {
  HttpServer::Options options = EphemeralOptions();
  options.read_timeout_seconds = 0.5;
  options.header_timeout_seconds = 0.5;
  HttpServer server(SyncHandlerAdapter(EchoHandler), options);
  ASSERT_TRUE(server.Start().ok());
  auto socket = ConnectTcp("127.0.0.1", server.port(), 5.0);
  ASSERT_TRUE(socket.ok());
  // Drip a header byte every 150 ms: each read succeeds, but the
  // per-REQUEST deadline (0.5 s from the first byte) must still cut the
  // connection — a slow-loris client cannot pin a worker indefinitely.
  const std::string wire = "GET /slow HTTP/1.1\r\nX-Drip: aaaa\r\n\r\n";
  bool disconnected = false;
  for (size_t i = 0; i < wire.size(); ++i) {
    if (!socket->WriteAll(wire.substr(i, 1), 1.0).ok()) {
      disconnected = true;
      break;
    }
    char buf[64];
    auto n = socket->Read(buf, sizeof(buf), 0.150);
    if (n.ok() && *n == 0) {
      disconnected = true;  // server closed mid-request: the deadline hit
      break;
    }
  }
  EXPECT_TRUE(disconnected);
  EXPECT_EQ(server.requests_served(), 0);
}

TEST(HttpServerTest, StopUnblocksIdleKeepAliveConnections) {
  HttpServer server(SyncHandlerAdapter(EchoHandler), EphemeralOptions());
  ASSERT_TRUE(server.Start().ok());
  HttpClient client(ClientOptions(server.port()));
  ASSERT_TRUE(client.Get("/warm").ok());  // leaves a keep-alive conn open
  // Must return promptly even though a worker is blocked reading that
  // idle connection (read timeout is 10 s — Stop cannot wait for it).
  server.Stop();
  // And the connection is actually dead.
  auto after = client.Get("/after");
  EXPECT_FALSE(after.ok());
  // Stop left the server stopped: it starts again instead of refusing
  // with "already started".
  EXPECT_TRUE(server.Start().ok());
}

TEST(HttpServerTest, StartAfterStopServesAgain) {
  HttpServer server(SyncHandlerAdapter(EchoHandler), EphemeralOptions());
  ASSERT_TRUE(server.Start().ok());
  const int first_port = server.port();
  server.Stop();
  ASSERT_TRUE(server.Start().ok());
  ASSERT_GT(server.port(), 0);
  EXPECT_NE(server.port(), 0);
  HttpClient client(ClientOptions(server.port()));
  auto response = client.Get("/again");
  ASSERT_TRUE(response.ok()) << response.status();
  EXPECT_EQ(response->body, "GET /again ");
  (void)first_port;
}

TEST(HttpServerTest, DoubleStartIsFailedPrecondition) {
  HttpServer server(SyncHandlerAdapter(EchoHandler), EphemeralOptions());
  ASSERT_TRUE(server.Start().ok());
  EXPECT_EQ(server.Start().code(), common::StatusCode::kFailedPrecondition);
}

/// Reads one raw HTTP exchange until the server closes the connection.
std::string DrainResponse(Socket& socket) {
  std::string received;
  char buf[4096];
  for (;;) {
    auto n = socket.Read(buf, sizeof(buf), 5.0);
    if (!n.ok() || *n == 0) break;
    received.append(buf, *n);
  }
  return received;
}

TEST(HttpServerTest, ErrorEnvelopeBodiesAreAlwaysValidJson) {
  // Parse-error messages echo the offending bytes back at the client.
  // Quotes, backslashes and control characters in those bytes must not
  // be able to corrupt the JSON error envelope — every 4xx body has to
  // round-trip through the JSON parser.
  HttpServer server(SyncHandlerAdapter(EchoHandler), EphemeralOptions());
  ASSERT_TRUE(server.Start().ok());
  const std::vector<std::string> hostile = {
      "TH\"IS \\IS\" NOT\\ HTTP\r\n\r\n",
      "GET /x HT\"TP\\1.1\r\n\r\n",
      "GET / HTTP/1.1\r\nBad\"Header\\\\Line\r\n\r\n",
      "GET / HTTP/1.1\r\n\"\r\n\r\n",
      std::string("QU\x01OTE\" \\\x02 \"\r\n\r\n"),
      "\\\"\\\"\\ \" \"\r\n\r\n",
  };
  for (const std::string& wire : hostile) {
    auto socket = ConnectTcp("127.0.0.1", server.port(), 5.0);
    ASSERT_TRUE(socket.ok()) << socket.status();
    ASSERT_TRUE(socket->WriteAll(wire, 5.0).ok());
    const std::string received = DrainResponse(*socket);
    ASSERT_NE(received.find("HTTP/1.1 4"), std::string::npos) << received;
    const size_t split = received.find("\r\n\r\n");
    ASSERT_NE(split, std::string::npos) << received;
    const std::string body = received.substr(split + 4);
    auto parsed = common::JsonValue::Parse(body);
    ASSERT_TRUE(parsed.ok()) << "unparseable error body: " << body;
    const common::JsonValue* error = parsed->Find("error");
    ASSERT_NE(error, nullptr) << body;
    EXPECT_NE(error->Find("code"), nullptr) << body;
    EXPECT_NE(error->Find("message"), nullptr) << body;
  }
}

TEST(HttpServerTest, HandlerConnectionCloseEndsTheConnection) {
  // A handler that answers "Connection: close" is instructing the server
  // to drop the connection after the response — the server must not park
  // it for reuse, even though the client asked for keep-alive.
  HttpServer server(
      SyncHandlerAdapter([](const HttpRequest&) {
        HttpResponse response;
        response.body = "bye";
        response.headers.push_back({"Connection", "close"});
        return response;
      }),
      EphemeralOptions());
  ASSERT_TRUE(server.Start().ok());
  auto socket = ConnectTcp("127.0.0.1", server.port(), 5.0);
  ASSERT_TRUE(socket.ok()) << socket.status();
  // Two pipelined keep-alive requests: the server must answer the first
  // and close before ever serving the second.
  const std::string wire =
      "GET /one HTTP/1.1\r\n\r\n"
      "GET /two HTTP/1.1\r\n\r\n";
  ASSERT_TRUE(socket->WriteAll(wire, 5.0).ok());
  const std::string received = DrainResponse(*socket);
  size_t responses = 0;
  for (size_t at = received.find("HTTP/1.1 200"); at != std::string::npos;
       at = received.find("HTTP/1.1 200", at + 1)) {
    ++responses;
  }
  EXPECT_EQ(responses, 1u) << received;
  EXPECT_NE(received.find("Connection: close"), std::string::npos);
  EXPECT_EQ(server.requests_served(), 1);
}

}  // namespace
}  // namespace crowdfusion::net
