/// HTTP request-parser contract (ISSUE 5 satellite): framing, keep-alive
/// semantics, pipelining, size caps — plus seeded fuzz the same way
/// request_json_test fuzzes JSON: truncations at every byte boundary,
/// random chunking, oversized headers, and pipelined garbage must fail
/// with a Status (or wait for more bytes), never crash or mis-frame.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "common/random.h"
#include "net/http.h"
#include "support/status_printing.h"

namespace crowdfusion::net {
namespace {

common::Result<bool> Feed(HttpRequestParser& parser, std::string_view bytes,
                          HttpRequest* out) {
  parser.Consume(bytes);
  return parser.Next(out);
}

TEST(HttpParserTest, ParsesSimpleGet) {
  HttpRequestParser parser;
  HttpRequest request;
  auto ready = Feed(parser,
                    "GET /healthz HTTP/1.1\r\nHost: x\r\n\r\n", &request);
  ASSERT_TRUE(ready.ok()) << ready.status();
  ASSERT_TRUE(*ready);
  EXPECT_EQ(request.method, "GET");
  EXPECT_EQ(request.target, "/healthz");
  EXPECT_EQ(request.version, "HTTP/1.1");
  ASSERT_NE(request.FindHeader("host"), nullptr);  // case-insensitive
  EXPECT_EQ(*request.FindHeader("HOST"), "x");
  EXPECT_TRUE(request.body.empty());
  EXPECT_TRUE(request.KeepAlive());
}

TEST(HttpParserTest, ParsesPostWithBody) {
  HttpRequestParser parser;
  HttpRequest request;
  auto ready = Feed(parser,
                    "POST /v1/fusion:run HTTP/1.1\r\n"
                    "Content-Type: application/json\r\n"
                    "Content-Length: 11\r\n\r\n"
                    "{\"a\": true}",
                    &request);
  ASSERT_TRUE(ready.ok()) << ready.status();
  ASSERT_TRUE(*ready);
  EXPECT_EQ(request.method, "POST");
  EXPECT_EQ(request.body, "{\"a\": true}");
}

TEST(HttpParserTest, ConnectionCloseDisablesKeepAlive) {
  HttpRequestParser parser;
  HttpRequest request;
  auto ready = Feed(parser,
                    "GET / HTTP/1.1\r\nConnection: close\r\n\r\n", &request);
  ASSERT_TRUE(ready.ok());
  ASSERT_TRUE(*ready);
  EXPECT_FALSE(request.KeepAlive());
}

TEST(HttpParserTest, Http10DefaultsToClose) {
  HttpRequestParser parser;
  HttpRequest request;
  auto ready = Feed(parser, "GET / HTTP/1.0\r\n\r\n", &request);
  ASSERT_TRUE(ready.ok());
  ASSERT_TRUE(*ready);
  EXPECT_FALSE(request.KeepAlive());

  HttpRequestParser parser2;
  auto ready2 = Feed(parser2,
                     "GET / HTTP/1.0\r\nConnection: keep-alive\r\n\r\n",
                     &request);
  ASSERT_TRUE(ready2.ok());
  ASSERT_TRUE(*ready2);
  EXPECT_TRUE(request.KeepAlive());
}

TEST(HttpParserTest, PipelinedRequestsPopOneAtATime) {
  HttpRequestParser parser;
  parser.Consume(
      "GET /a HTTP/1.1\r\n\r\n"
      "POST /b HTTP/1.1\r\nContent-Length: 2\r\n\r\nhi"
      "GET /c HTTP/1.1\r\n\r\n");
  HttpRequest request;
  auto first = parser.Next(&request);
  ASSERT_TRUE(first.ok());
  ASSERT_TRUE(*first);
  EXPECT_EQ(request.target, "/a");
  auto second = parser.Next(&request);
  ASSERT_TRUE(second.ok());
  ASSERT_TRUE(*second);
  EXPECT_EQ(request.target, "/b");
  EXPECT_EQ(request.body, "hi");
  auto third = parser.Next(&request);
  ASSERT_TRUE(third.ok());
  ASSERT_TRUE(*third);
  EXPECT_EQ(request.target, "/c");
  auto fourth = parser.Next(&request);
  ASSERT_TRUE(fourth.ok());
  EXPECT_FALSE(*fourth);
}

TEST(HttpParserTest, TruncationAtEveryPrefixNeverErrsOrMisframes) {
  const std::string wire =
      "POST /v1/sessions/s-1/step HTTP/1.1\r\n"
      "Host: 127.0.0.1:8080\r\n"
      "Content-Type: application/json\r\n"
      "Content-Length: 14\r\n\r\n"
      "{\"step\": true}";
  for (size_t cut = 0; cut < wire.size(); ++cut) {
    HttpRequestParser parser;
    parser.Consume(std::string_view(wire).substr(0, cut));
    HttpRequest request;
    auto ready = parser.Next(&request);
    ASSERT_TRUE(ready.ok()) << "cut " << cut << ": " << ready.status();
    EXPECT_FALSE(*ready) << "cut " << cut;
    // Completing the request always parses it.
    parser.Consume(std::string_view(wire).substr(cut));
    auto complete = parser.Next(&request);
    ASSERT_TRUE(complete.ok()) << "cut " << cut;
    ASSERT_TRUE(*complete) << "cut " << cut;
    EXPECT_EQ(request.target, "/v1/sessions/s-1/step");
  }
}

TEST(HttpParserTest, OversizedHeaderBlockIsResourceExhausted) {
  HttpLimits limits;
  limits.max_header_bytes = 256;
  HttpRequestParser parser(limits);
  std::string wire = "GET / HTTP/1.1\r\nX-Padding: ";
  wire += std::string(512, 'a');
  parser.Consume(wire);
  HttpRequest request;
  auto ready = parser.Next(&request);
  ASSERT_FALSE(ready.ok());
  EXPECT_EQ(ready.status().code(), common::StatusCode::kResourceExhausted);
  // Sticky: the connection cannot resync.
  parser.Consume("\r\n\r\n");
  EXPECT_FALSE(parser.Next(&request).ok());
}

TEST(HttpParserTest, OversizedDeclaredBodyIsResourceExhausted) {
  HttpLimits limits;
  limits.max_body_bytes = 1024;
  HttpRequestParser parser(limits);
  parser.Consume("POST / HTTP/1.1\r\nContent-Length: 1048576\r\n\r\n");
  HttpRequest request;
  auto ready = parser.Next(&request);
  ASSERT_FALSE(ready.ok());
  EXPECT_EQ(ready.status().code(), common::StatusCode::kResourceExhausted);
}

TEST(HttpParserTest, AbsurdContentLengthDigitsRejectedWithoutOverflow) {
  HttpRequestParser parser;
  parser.Consume("POST / HTTP/1.1\r\nContent-Length: " +
                 std::string(100, '9') + "\r\n\r\n");
  HttpRequest request;
  auto ready = parser.Next(&request);
  ASSERT_FALSE(ready.ok());
  EXPECT_EQ(ready.status().code(), common::StatusCode::kResourceExhausted);
}

TEST(HttpParserTest, MalformedInputsAreInvalidArgument) {
  const std::vector<std::string> bad = {
      "GET /\r\n\r\n",                                 // missing version
      "GET / HTTP/2\r\n\r\n",                          // unsupported version
      "GET  / HTTP/1.1\r\n\r\n",                       // double space
      "/ GET HTTP/1.1\r\n\r\n",                        // swapped fields
      "GET relative HTTP/1.1\r\n\r\n",                 // non-origin target
      "GET / HTTP/1.1\r\nNoColonHere\r\n\r\n",         // header w/o colon
      "GET / HTTP/1.1\r\n: empty-name\r\n\r\n",        // empty header name
      "GET / HTTP/1.1\r\nBad Name: x\r\n\r\n",         // space in name
      "GET / HTTP/1.1\r\nA: 1\r\n folded\r\n\r\n",     // obs-fold
      "POST / HTTP/1.1\r\nContent-Length: two\r\n\r\n",  // non-numeric CL
      "POST / HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n",
  };
  for (const std::string& wire : bad) {
    HttpRequestParser parser;
    parser.Consume(wire);
    HttpRequest request;
    auto ready = parser.Next(&request);
    ASSERT_FALSE(ready.ok()) << wire;
    EXPECT_EQ(ready.status().code(), common::StatusCode::kInvalidArgument)
        << wire;
  }
}

/// Seeded fuzz: random valid requests serialized, then re-parsed in
/// random-size chunks (byte-at-a-time included) — fields survive exactly,
/// across pipelined sequences.
TEST(HttpParserTest, FuzzRandomChunkingRoundTripsPipelinedRequests) {
  for (uint64_t seed = 1; seed <= 32; ++seed) {
    common::Rng rng(seed * 7717 + 5);
    std::vector<HttpRequest> sent;
    std::string wire;
    const int count = 1 + static_cast<int>(rng.NextBounded(4));
    for (int i = 0; i < count; ++i) {
      HttpRequest request;
      request.method = rng.NextBernoulli(0.5) ? "POST" : "GET";
      request.target =
          "/fuzz/" + std::to_string(rng.NextBounded(1000));
      const size_t body_len = rng.NextBounded(200);
      for (size_t b = 0; b < body_len; ++b) {
        request.body.push_back(
            static_cast<char>('a' + rng.NextBounded(26)));
      }
      request.headers.push_back(
          {"X-Seq", std::to_string(i)});
      wire += SerializeRequest(request, "h");
      sent.push_back(std::move(request));
    }

    HttpRequestParser parser;
    std::vector<HttpRequest> received;
    size_t offset = 0;
    while (offset < wire.size()) {
      const size_t chunk =
          1 + rng.NextBounded(rng.NextBernoulli(0.3) ? 3 : 64);
      const size_t take = std::min(chunk, wire.size() - offset);
      parser.Consume(std::string_view(wire).substr(offset, take));
      offset += take;
      for (;;) {
        HttpRequest request;
        auto ready = parser.Next(&request);
        ASSERT_TRUE(ready.ok()) << "seed " << seed << ": "
                                << ready.status();
        if (!*ready) break;
        received.push_back(std::move(request));
      }
    }
    ASSERT_EQ(received.size(), sent.size()) << "seed " << seed;
    for (size_t i = 0; i < sent.size(); ++i) {
      EXPECT_EQ(received[i].method, sent[i].method) << "seed " << seed;
      EXPECT_EQ(received[i].target, sent[i].target) << "seed " << seed;
      EXPECT_EQ(received[i].body, sent[i].body) << "seed " << seed;
      ASSERT_NE(received[i].FindHeader("X-Seq"), nullptr);
      EXPECT_EQ(*received[i].FindHeader("X-Seq"), std::to_string(i));
    }
  }
}

/// Seeded fuzz: pipelined garbage — random bytes, possibly after a valid
/// request — must end in a Status or a wait-for-more, never a crash, and
/// must never fabricate a second request from noise after an error.
TEST(HttpParserTest, FuzzGarbageNeverCrashes) {
  for (uint64_t seed = 1; seed <= 32; ++seed) {
    common::Rng rng(seed * 104729 + 1);
    HttpRequestParser parser;
    HttpRequest request;
    if (rng.NextBernoulli(0.5)) {
      parser.Consume("GET /ok HTTP/1.1\r\n\r\n");
      auto ready = parser.Next(&request);
      ASSERT_TRUE(ready.ok());
      ASSERT_TRUE(*ready);
    }
    std::string garbage;
    const size_t len = 1 + rng.NextBounded(2048);
    for (size_t i = 0; i < len; ++i) {
      // Bias toward structure-looking bytes so framing code paths fire.
      const double roll = rng.NextDouble();
      if (roll < 0.2) {
        garbage += "\r\n";
      } else if (roll < 0.3) {
        garbage.push_back(':');
      } else if (roll < 0.4) {
        garbage.push_back(' ');
      } else {
        garbage.push_back(static_cast<char>(rng.NextBounded(256)));
      }
    }
    parser.Consume(garbage);
    bool errored = false;
    for (int i = 0; i < 8 && !errored; ++i) {
      auto ready = parser.Next(&request);
      if (!ready.ok()) {
        errored = true;  // sticky from here on
        EXPECT_FALSE(parser.Next(&request).ok()) << "seed " << seed;
      } else if (!*ready) {
        break;  // waiting for more bytes: acceptable
      }
    }
  }
}

TEST(HttpResponseParserTest, ParsesResponseWithBody) {
  HttpResponseParser parser;
  parser.Consume(
      "HTTP/1.1 404 Not Found\r\nContent-Length: 2\r\n"
      "Content-Type: text/plain\r\n\r\nno");
  HttpResponse response;
  auto ready = parser.Next(&response);
  ASSERT_TRUE(ready.ok()) << ready.status();
  ASSERT_TRUE(*ready);
  EXPECT_EQ(response.status_code, 404);
  EXPECT_EQ(response.reason, "Not Found");
  EXPECT_EQ(response.body, "no");
}

TEST(HttpResponseParserTest, SerializedResponseRoundTrips) {
  HttpResponse response;
  response.status_code = 201;
  response.headers.push_back({"Content-Type", "application/json"});
  response.body = "{\"session_id\": \"s-1\"}";
  HttpResponseParser parser;
  parser.Consume(SerializeResponse(response));
  HttpResponse reparsed;
  auto ready = parser.Next(&reparsed);
  ASSERT_TRUE(ready.ok()) << ready.status();
  ASSERT_TRUE(*ready);
  EXPECT_EQ(reparsed.status_code, 201);
  EXPECT_EQ(reparsed.reason, "Created");
  EXPECT_EQ(reparsed.body, response.body);
  ASSERT_NE(reparsed.FindHeader("Content-Length"), nullptr);
  EXPECT_EQ(*reparsed.FindHeader("Content-Length"),
            std::to_string(response.body.size()));
}

}  // namespace
}  // namespace crowdfusion::net
