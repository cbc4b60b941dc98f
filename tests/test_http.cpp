// rvhpc::http — HTTP/1.1 framing and the HTTP front end on net::Server.
//
// Two layers under test.  The parsers (src/http/parser.cpp) are pure
// incremental state machines, so the unit tests feed them whole, split
// and byte-at-a-time inputs and expect identical outcomes.  The
// integration tests run a real Server with the HTTP listener enabled on
// an ephemeral loopback port and drive it with blocking sockets: framing
// edge cases (headers split across reads, pipelined keep-alive), the
// bounded-memory taxonomy (oversized body → 413 + close, malformed
// request line → 400 + close, connection limit → 503 + Retry-After) and
// the drain contract (SIGTERM mid-chunked-response answers every item).

#include <algorithm>
#include <chrono>
#include <csignal>
#include <cstdint>
#include <cstring>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "http/message.hpp"
#include "http/parser.hpp"
#include "net/loopback.hpp"
#include "net/net.hpp"
#include "obs/json.hpp"
#include "obs/metrics.hpp"
#include "serve/service.hpp"

namespace {

using namespace rvhpc;
using namespace std::chrono_literals;

// --- request parser -------------------------------------------------------

constexpr const char* kPostReq =
    "POST /v1/predict HTTP/1.1\r\n"
    "Host: 127.0.0.1\r\n"
    "Content-Type: application/json\r\n"
    "Content-Length: 14\r\n"
    "\r\n"
    "{\"cores\": 16}\n";

TEST(HttpRequestParser, WholeRequestInOneFeed) {
  http::RequestParser p;
  const std::string req = kPostReq;
  EXPECT_EQ(p.feed(req), req.size());
  ASSERT_TRUE(p.complete());
  EXPECT_EQ(p.method(), "POST");
  EXPECT_EQ(p.target(), "/v1/predict");
  EXPECT_EQ(p.version_minor(), 1);
  EXPECT_EQ(p.body(), "{\"cores\": 16}\n");
  EXPECT_TRUE(p.keep_alive());
  ASSERT_NE(p.header("content-type"), nullptr);
  EXPECT_EQ(*p.header("content-type"), "application/json");
}

TEST(HttpRequestParser, HeadersSplitAcrossEveryPossibleRead) {
  // Byte-at-a-time is the adversarial superset of "header split across
  // reads": every boundary — mid-request-line, mid-header-name,
  // between CR and LF, mid-body — is exercised.
  const std::string req = kPostReq;
  http::RequestParser p;
  for (char c : req) {
    ASSERT_FALSE(p.failed());
    EXPECT_EQ(p.feed(std::string_view(&c, 1)), 1u);
  }
  ASSERT_TRUE(p.complete());
  EXPECT_EQ(p.body(), "{\"cores\": 16}\n");
  EXPECT_EQ(p.headers().size(), 3u);
}

TEST(HttpRequestParser, PipelinedRequestsStopAtMessageBoundary) {
  const std::string two = std::string(kPostReq) + kPostReq;
  http::RequestParser p;
  const std::size_t used = p.feed(two);
  EXPECT_EQ(used, std::strlen(kPostReq))
      << "feed must not consume the next pipelined request";
  ASSERT_TRUE(p.complete());
  p.reset();
  EXPECT_EQ(p.feed(std::string_view(two).substr(used)), std::strlen(kPostReq));
  ASSERT_TRUE(p.complete());
  EXPECT_EQ(p.body(), "{\"cores\": 16}\n");
}

TEST(HttpRequestParser, HeaderStorageIsExactAfterReset) {
  // reset() keeps header strings as reusable storage; a second request
  // with fewer headers must not leak the first request's extras.
  http::RequestParser p;
  const std::string big =
      "GET /metrics HTTP/1.1\r\nHost: a\r\nAccept: b\r\nUser-Agent: c\r\n\r\n";
  ASSERT_EQ(p.feed(big), big.size());
  ASSERT_TRUE(p.complete());
  EXPECT_EQ(p.headers().size(), 3u);
  p.reset();
  const std::string small = "GET /healthz HTTP/1.1\r\nHost: z\r\n\r\n";
  ASSERT_EQ(p.feed(small), small.size());
  ASSERT_TRUE(p.complete());
  ASSERT_EQ(p.headers().size(), 1u);
  EXPECT_EQ(p.headers()[0].name, "host");
  EXPECT_EQ(p.headers()[0].value, "z");
  EXPECT_EQ(p.header("accept"), nullptr);
}

TEST(HttpRequestParser, MalformedRequestLineFails) {
  for (const char* bad : {"GARBAGE\r\n", "GET /x\r\n", "GET  /x HTTP/1.1\r\n",
                          "GET /x HTTP/2.0\r\n", "GET /x HTTQ/9\r\n"}) {
    http::RequestParser p;
    p.feed(bad);
    p.feed("\r\n");
    EXPECT_TRUE(p.failed()) << "accepted: " << bad;
    EXPECT_EQ(http::status_for_error(p.error()), 400) << bad;
  }
}

TEST(HttpRequestParser, BodyBeyondLimitIsTypedOversize) {
  http::Limits limits;
  limits.max_body = 64;
  http::RequestParser p(limits);
  p.feed("POST /v1/predict HTTP/1.1\r\nContent-Length: 65\r\n\r\n");
  ASSERT_TRUE(p.failed());
  EXPECT_EQ(p.error(), http::Error::BodyTooLarge);
  EXPECT_EQ(http::status_for_error(p.error()), 413);
}

TEST(HttpRequestParser, TransferEncodingIsRejected) {
  http::RequestParser p;
  p.feed("POST /v1/predict HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n");
  ASSERT_TRUE(p.failed());
  EXPECT_EQ(p.error(), http::Error::UnsupportedBody);
}

TEST(HttpRequestParser, KeepAliveDefaultsPerVersion) {
  http::RequestParser p;
  p.feed("GET / HTTP/1.1\r\n\r\n");
  ASSERT_TRUE(p.complete());
  EXPECT_TRUE(p.keep_alive());
  p.reset();
  p.feed("GET / HTTP/1.1\r\nConnection: close\r\n\r\n");
  ASSERT_TRUE(p.complete());
  EXPECT_FALSE(p.keep_alive());
  p.reset();
  p.feed("GET / HTTP/1.0\r\n\r\n");
  ASSERT_TRUE(p.complete());
  EXPECT_FALSE(p.keep_alive());
  p.reset();
  p.feed("GET / HTTP/1.0\r\nConnection: keep-alive\r\n\r\n");
  ASSERT_TRUE(p.complete());
  EXPECT_TRUE(p.keep_alive());
}

TEST(HttpRequestParser, ExpectContinueIsSurfacedAtHeaderEnd) {
  http::RequestParser p;
  p.feed("POST /v1/predict HTTP/1.1\r\nContent-Length: 4\r\n"
         "Expect: 100-continue\r\n\r\n");
  EXPECT_FALSE(p.complete());
  ASSERT_TRUE(p.headers_complete());
  EXPECT_TRUE(p.expect_continue());
  p.feed("abcd");
  EXPECT_TRUE(p.complete());
}

// --- response parser ------------------------------------------------------

TEST(HttpResponseParser, ChunkedBodySplitAtEveryByte) {
  const std::string resp =
      "HTTP/1.1 200 OK\r\n"
      "Transfer-Encoding: chunked\r\n"
      "\r\n"
      "6\r\nhello\n\r\n"
      "7\r\nworld!\n\r\n"
      "0\r\n\r\n";
  http::ResponseParser p;
  for (char c : resp) {
    ASSERT_FALSE(p.failed());
    EXPECT_EQ(p.feed(std::string_view(&c, 1)), 1u);
  }
  ASSERT_TRUE(p.complete());
  EXPECT_TRUE(p.chunked());
  EXPECT_EQ(p.status(), 200);
  EXPECT_EQ(p.body(), "hello\nworld!\n");
}

TEST(HttpResponseParser, PipelinedResponsesStopAtBoundary) {
  const std::string one =
      "HTTP/1.1 200 OK\r\nContent-Length: 3\r\n\r\nabc";
  const std::string two = one + "HTTP/1.1 404 Not Found\r\n"
                                "Content-Length: 0\r\n\r\n";
  http::ResponseParser p;
  const std::size_t used = p.feed(two);
  EXPECT_EQ(used, one.size());
  ASSERT_TRUE(p.complete());
  EXPECT_EQ(p.status(), 200);
  EXPECT_EQ(p.body(), "abc");
  p.reset();
  p.feed(std::string_view(two).substr(used));
  ASSERT_TRUE(p.complete());
  EXPECT_EQ(p.status(), 404);
  EXPECT_TRUE(p.body().empty());
}

TEST(HttpResponseParser, InterimContinueIsSkipped) {
  http::ResponseParser p;
  p.feed("HTTP/1.1 100 Continue\r\n\r\n"
         "HTTP/1.1 200 OK\r\nContent-Length: 2\r\n\r\nok");
  ASSERT_TRUE(p.complete());
  EXPECT_EQ(p.status(), 200);
  EXPECT_EQ(p.body(), "ok");
}

TEST(HttpResponseParser, EofBodyCompletesOnFinishEof) {
  http::ResponseParser p;
  p.feed("HTTP/1.0 200 OK\r\n\r\npartial");
  EXPECT_FALSE(p.complete());
  p.finish_eof();
  ASSERT_TRUE(p.complete());
  EXPECT_EQ(p.body(), "partial");
}

// --- server integration ---------------------------------------------------

/// Server options with the HTTP listener enabled next to the raw one.
net::ServerOptions with_http() {
  net::ServerOptions o;
  o.http = true;
  return o;
}

std::string predict_line(const std::string& id, int cores) {
  return "{\"id\": \"" + id + "\", \"machine\": \"sg2044\", \"kernel\": "
         "\"MG\", \"cores\": " + std::to_string(cores) + "}\n";
}

std::string slow_line(const std::string& id, int cores) {
  return "{\"id\": \"" + id + "\", \"machine\": \"sg2044\", \"kernel\": "
         "\"CG\", \"class\": \"C\", \"cores\": " + std::to_string(cores) +
         ", \"backend\": \"interval\"}\n";
}

std::string http_post(const std::string& body) {
  return "POST /v1/predict HTTP/1.1\r\nHost: t\r\n"
         "Content-Type: application/json\r\nContent-Length: " +
         std::to_string(body.size()) + "\r\n\r\n" + body;
}

TEST(HttpServer_, SinglePredictAnswersFixedLength) {
  net::LoopbackServer s(with_http());
  net::LoopbackClient cl(s.server.http_port());
  ASSERT_TRUE(cl.connected());
  ASSERT_TRUE(cl.send_all(http_post(predict_line("one", 16))));
  http::ResponseParser rp;
  ASSERT_TRUE(cl.recv_response(rp));
  EXPECT_EQ(rp.status(), 200);
  EXPECT_FALSE(rp.chunked());
  ASSERT_NE(rp.header("content-length"), nullptr);
  const auto parsed = obs::json::parse(rp.body());
  EXPECT_EQ(parsed.find("id")->str, "one");
}

TEST(HttpServer_, RequestSplitAcrossManySocketWrites) {
  net::LoopbackServer s(with_http());
  net::LoopbackClient cl(s.server.http_port());
  ASSERT_TRUE(cl.connected());
  const std::string req = http_post(predict_line("split", 8));
  // Dribble the request a few bytes per send with pauses, so the server
  // sees the head and body across many poll() wakeups.
  for (std::size_t off = 0; off < req.size(); off += 7) {
    ASSERT_TRUE(cl.send_all(req.substr(off, 7)));
    std::this_thread::sleep_for(1ms);
  }
  http::ResponseParser rp;
  ASSERT_TRUE(cl.recv_response(rp));
  EXPECT_EQ(rp.status(), 200);
  EXPECT_EQ(obs::json::parse(rp.body()).find("id")->str, "split");
}

TEST(HttpServer_, PipelinedKeepAliveAnswersInOrder) {
  net::LoopbackServer s(with_http());
  net::LoopbackClient cl(s.server.http_port());
  ASSERT_TRUE(cl.connected());
  std::string burst;
  constexpr int kN = 5;
  for (int i = 0; i < kN; ++i) {
    burst += http_post(predict_line("p" + std::to_string(i), 1 << i));
  }
  ASSERT_TRUE(cl.send_all(burst));
  for (int i = 0; i < kN; ++i) {
    http::ResponseParser rp;
    ASSERT_TRUE(cl.recv_response(rp)) << "response " << i;
    EXPECT_EQ(rp.status(), 200);
    EXPECT_EQ(obs::json::parse(rp.body()).find("id")->str,
              "p" + std::to_string(i))
        << "pipelined responses must arrive in request order";
  }
}

TEST(HttpServer_, BatchBodyStreamsBackChunked) {
  net::LoopbackServer s(with_http());
  net::LoopbackClient cl(s.server.http_port());
  ASSERT_TRUE(cl.connected());
  std::string body;
  for (int i = 0; i < 3; ++i) {
    body += predict_line("b" + std::to_string(i), 4 << i);
  }
  ASSERT_TRUE(cl.send_all(http_post(body)));
  http::ResponseParser rp;
  ASSERT_TRUE(cl.recv_response(rp));
  EXPECT_EQ(rp.status(), 200);
  EXPECT_TRUE(rp.chunked()) << "a multi-line batch must stream chunked";
  std::istringstream lines(rp.body());
  std::string line;
  int n = 0;
  while (std::getline(lines, line)) {
    EXPECT_EQ(obs::json::parse(line).find("id")->str,
              "b" + std::to_string(n));
    ++n;
  }
  EXPECT_EQ(n, 3);
}

TEST(HttpServer_, LargeBatchOfCachedHitsIsNotASlowReader) {
  // One batch of 1,000 cached hits is answered within one loop pass, and
  // its ~330 KiB of chunks pass the 256 KiB write bound before the loop
  // next writes: the reading client must get the whole body.
  net::LoopbackServer s(with_http());
  net::LoopbackClient cl(s.server.http_port());
  ASSERT_TRUE(cl.connected());
  const std::string line = predict_line("", 8);
  ASSERT_TRUE(cl.send_all(http_post(line)));  // warms the cache
  http::ResponseParser warm;
  ASSERT_TRUE(cl.recv_response(warm));

  constexpr int kLines = 1000;
  std::string body;
  for (int i = 0; i < kLines; ++i) body += line;
  ASSERT_TRUE(cl.send_all(http_post(body)));
  http::ResponseParser rp;
  ASSERT_TRUE(cl.recv_response(rp));
  EXPECT_EQ(rp.status(), 200);
  EXPECT_EQ(std::count(rp.body().begin(), rp.body().end(), '\n'), kLines);
  EXPECT_EQ(s.server.stats().disconnect_slow_reader, 0u);
}

TEST(HttpServer_, MalformedRequestLineGets400AndClose) {
  net::LoopbackServer s(with_http());
  net::LoopbackClient cl(s.server.http_port());
  ASSERT_TRUE(cl.connected());
  ASSERT_TRUE(cl.send_all("NOT A REQUEST LINE AT ALL\r\n\r\n"));
  http::ResponseParser rp;
  ASSERT_TRUE(cl.recv_response(rp));
  EXPECT_EQ(rp.status(), 400);
  const auto parsed = obs::json::parse(rp.body());
  EXPECT_EQ(parsed.find("status")->str, "error");
  EXPECT_TRUE(cl.at_eof()) << "a framing error must close the connection";
}

TEST(HttpServer_, OversizedBodyGets413AndClose) {
  net::ServerOptions nopts = with_http();
  nopts.max_body_bytes = 128;
  net::LoopbackServer s(nopts);
  net::LoopbackClient cl(s.server.http_port());
  ASSERT_TRUE(cl.connected());
  ASSERT_TRUE(cl.send_all(http_post(std::string(512, 'x'))));
  http::ResponseParser rp;
  ASSERT_TRUE(cl.recv_response(rp));
  EXPECT_EQ(rp.status(), 413);
  EXPECT_TRUE(cl.at_eof()) << "an oversized body must close the connection";
  ASSERT_TRUE(s.wait_for([](const net::ServerStats& st) {
    return st.disconnect_oversize == 1;
  }));
}

TEST(HttpServer_, ConnectionLimitGets503WithRetryAfter) {
  net::ServerOptions nopts = with_http();
  nopts.max_connections = 1;
  net::LoopbackServer s(nopts);
  net::LoopbackClient held(s.server.http_port());
  ASSERT_TRUE(held.connected());
  ASSERT_TRUE(s.wait_for([](const net::ServerStats& st) {
    return st.accepted == 1;
  }));
  net::LoopbackClient refused(s.server.http_port());
  ASSERT_TRUE(refused.connected());
  http::ResponseParser rp;
  ASSERT_TRUE(refused.recv_response(rp));
  EXPECT_EQ(rp.status(), 503);
  ASSERT_NE(rp.header("retry-after"), nullptr);
  EXPECT_EQ(*rp.header("retry-after"), "1");
  EXPECT_EQ(obs::json::parse(rp.body()).find("error")->str, "overloaded");
}

TEST(HttpServer_, MetricsRouteRendersLabelledCounters) {
  obs::set_metrics_enabled(true);
  net::LoopbackServer s(with_http());
  net::LoopbackClient cl(s.server.http_port());
  ASSERT_TRUE(cl.connected());
  std::string burst = http_post(predict_line("m", 2));
  burst += "GET /metrics HTTP/1.1\r\nHost: t\r\n\r\n";
  ASSERT_TRUE(cl.send_all(burst));
  http::ResponseParser rp;
  ASSERT_TRUE(cl.recv_response(rp));
  EXPECT_EQ(rp.status(), 200);
  rp.reset();
  ASSERT_TRUE(cl.recv_response(rp));
  EXPECT_EQ(rp.status(), 200);
  ASSERT_NE(rp.header("content-type"), nullptr);
  EXPECT_NE(rp.header("content-type")->find("text/plain"), std::string::npos);
  EXPECT_NE(rp.body().find("rvhpc_http_requests_total{route=\"/v1/predict\","
                           "status=\"200\"}"),
            std::string::npos)
      << "/metrics must expose the per-route, per-status request counter";
}

TEST(HttpServer_, HealthzAndRouting) {
  net::LoopbackServer s(with_http());
  net::LoopbackClient cl(s.server.http_port());
  ASSERT_TRUE(cl.connected());
  std::string burst =
      "GET /healthz HTTP/1.1\r\nHost: t\r\n\r\n"
      "GET /no/such/route HTTP/1.1\r\nHost: t\r\n\r\n"
      "GET /v1/predict HTTP/1.1\r\nHost: t\r\n\r\n";
  ASSERT_TRUE(cl.send_all(burst));
  http::ResponseParser rp;
  ASSERT_TRUE(cl.recv_response(rp));
  EXPECT_EQ(rp.status(), 200);
  EXPECT_EQ(obs::json::parse(rp.body()).find("status")->str, "serving");
  rp.reset();
  ASSERT_TRUE(cl.recv_response(rp));
  EXPECT_EQ(rp.status(), 404);
  rp.reset();
  ASSERT_TRUE(cl.recv_response(rp));
  EXPECT_EQ(rp.status(), 405);
  ASSERT_NE(rp.header("allow"), nullptr);
  EXPECT_EQ(*rp.header("allow"), "POST");
}

TEST(HttpServer_, SigtermDrainFinishesChunkedResponseMidFlight) {
  serve::install_shutdown_handlers();
  serve::reset_shutdown();
  {
    serve::Service::Options sopts;
    sopts.jobs = 2;
    net::LoopbackServer s(with_http(), sopts);
    net::LoopbackClient cl(s.server.http_port());
    ASSERT_TRUE(cl.connected());
    constexpr int kN = 4;
    std::string body;
    for (int i = 0; i < kN; ++i) {
      body += slow_line("d" + std::to_string(i), 32 + i);
    }
    ASSERT_TRUE(cl.send_all(http_post(body)));
    // Pull the plug once every item is on the compute pool — the chunked
    // response is mid-flight when the drain starts.
    ASSERT_TRUE(s.wait_for([](const net::ServerStats& st) {
      return st.dispatched >= kN;
    }));
    std::raise(SIGTERM);
    s.loop.join();  // run() must return on its own

    http::ResponseParser rp;
    ASSERT_TRUE(cl.recv_response(rp))
        << "drain must complete the in-flight chunked response";
    EXPECT_EQ(rp.status(), 200);
    EXPECT_TRUE(rp.chunked());
    std::vector<bool> seen(kN, false);
    std::istringstream lines(rp.body());
    std::string line;
    while (std::getline(lines, line)) {
      const std::string id = obs::json::parse(line).find("id")->str;
      ASSERT_EQ(id.size(), 2u);
      seen[static_cast<std::size_t>(id[1] - '0')] = true;
    }
    for (int i = 0; i < kN; ++i) {
      EXPECT_TRUE(seen[static_cast<std::size_t>(i)])
          << "drain dropped in-flight item d" << i;
    }
    EXPECT_NE(s.log.str().find("http exchange(s)"), std::string::npos);
  }
  serve::reset_shutdown();
}

/// The response lines of one batch reply, in the order they were sent.
std::vector<std::string> body_lines(const std::string& body) {
  std::vector<std::string> lines;
  std::istringstream in(body);
  std::string line;
  while (std::getline(in, line)) lines.push_back(line);
  return lines;
}

TEST(HttpServer_, BatchIdsMayOvertakeAsTheirComputeLands) {
  // The raw wire's out-of-order contract, inside one chunked batch: while
  // the single pool worker computes the slow item, the cached items
  // behind it are streamed as chunks.
  net::LoopbackServer s(with_http());
  net::LoopbackClient cl(s.server.http_port());
  ASSERT_TRUE(cl.connected());
  std::string warm;
  for (int i = 0; i < 4; ++i) {
    warm += predict_line("w" + std::to_string(i), 1 << i);
  }
  ASSERT_TRUE(cl.send_all(http_post(warm)));
  http::ResponseParser warmed;
  ASSERT_TRUE(cl.recv_response(warmed));

  std::string body = slow_line("slow", 64);
  for (int i = 0; i < 4; ++i) {
    body += predict_line("h" + std::to_string(i), 1 << i);
  }
  ASSERT_TRUE(cl.send_all(http_post(body)));
  http::ResponseParser rp;
  ASSERT_TRUE(cl.recv_response(rp));
  ASSERT_TRUE(rp.chunked());
  std::vector<std::string> order;
  for (const std::string& line : body_lines(rp.body())) {
    order.push_back(obs::json::parse(line).find("id")->str);
  }
  const std::vector<std::string> want{"h0", "h1", "h2", "h3", "slow"};
  EXPECT_EQ(order, want);
}

TEST(HttpServer_, BatchIdLessResponsesStayInRequestOrder) {
  // Id-less batch items come back in body order even when a later one
  // finishes first, exactly like id-less lines on the raw wire.
  serve::Service::Options sopts;
  sopts.jobs = 2;
  net::LoopbackServer s(with_http(), sopts);
  net::LoopbackClient cl(s.server.http_port());
  ASSERT_TRUE(cl.connected());
  ASSERT_TRUE(cl.send_all(http_post(predict_line("w", 8))));
  http::ResponseParser warmed;
  ASSERT_TRUE(cl.recv_response(warmed));

  std::string body = slow_line("", 64);
  for (int i = 0; i < 3; ++i) body += predict_line("", 8);
  ASSERT_TRUE(cl.send_all(http_post(body)));
  http::ResponseParser rp;
  ASSERT_TRUE(cl.recv_response(rp));
  std::vector<std::string> backends;
  for (const std::string& line : body_lines(rp.body())) {
    backends.push_back(obs::json::parse(line).find("backend")->str);
  }
  const std::vector<std::string> want{"interval", "analytic", "analytic",
                                      "analytic"};
  EXPECT_EQ(backends, want)
      << "id-less batch items must be delivered in request order";
}

TEST(HttpServer_, BatchLinesShedAtTheBacklogKeepTheContract) {
  // With one request's worth of backlog, the slow item fills it and the
  // next two are shed.  The shed id-less item still waits its turn behind
  // the slow one, and the shed item with an id gets that id back.
  serve::Service::Options sopts = net::LoopbackServer::one_job();
  sopts.queue_capacity = 1;
  net::LoopbackServer s(with_http(), sopts);
  net::LoopbackClient cl(s.server.http_port());
  ASSERT_TRUE(cl.connected());
  ASSERT_TRUE(cl.send_all(http_post(slow_line("", 64) + predict_line("", 8) +
                                    predict_line("o", 4))));
  http::ResponseParser rp;
  ASSERT_TRUE(cl.recv_response(rp));
  std::vector<std::string> idless;
  int with_id = 0;
  for (const std::string& line : body_lines(rp.body())) {
    const obs::json::Value v = obs::json::parse(line);
    if (v.find("id")->str == "o") {
      ++with_id;
      EXPECT_EQ(v.find("error")->str, "overloaded");
    } else {
      EXPECT_EQ(v.find("id")->str, "");
      idless.push_back(v.find("status")->str == "ok"
                           ? v.find("backend")->str
                           : v.find("error")->str);
    }
  }
  EXPECT_EQ(with_id, 1) << rp.body();
  const std::vector<std::string> want{"interval", "overloaded"};
  EXPECT_EQ(idless, want) << rp.body();
}

TEST(HttpServer_, BothListenersShareOneServiceAndCache) {
  net::LoopbackServer s(with_http());
  // Warm through the raw wire, hit through HTTP: one shared cache.
  net::LoopbackClient raw(s.server.port());
  ASSERT_TRUE(raw.connected());
  ASSERT_TRUE(raw.send_all(predict_line("warm", 32)));
  ASSERT_FALSE(raw.recv_line().empty());
  const auto before = s.server.stats().dispatched;

  net::LoopbackClient cl(s.server.http_port());
  ASSERT_TRUE(cl.connected());
  ASSERT_TRUE(cl.send_all(http_post(predict_line("hit", 32))));
  http::ResponseParser rp;
  ASSERT_TRUE(cl.recv_response(rp));
  EXPECT_EQ(rp.status(), 200);
  EXPECT_EQ(s.server.stats().dispatched, before)
      << "an HTTP request warmed by the raw wire must be a cache hit";
}

// --- HEAD requests --------------------------------------------------------

/// One full response head (through the blank line); everything after it
/// stays buffered.  HEAD responses carry a Content-Length but no body, so
/// ResponseParser would wait forever — raw bytes are the only honest way
/// to read them.
std::string recv_head(net::LoopbackClient& cl) {
  return cl.recv_until("\r\n\r\n");
}

TEST(HttpServer_, HeadHealthzMatchesGetHeadByteForByte) {
  net::LoopbackServer s(with_http());
  net::LoopbackClient cl(s.server.http_port());
  ASSERT_TRUE(cl.connected());
  ASSERT_TRUE(cl.send_all(
      "HEAD /healthz HTTP/1.1\r\nHost: t\r\n\r\n"
      "GET /healthz HTTP/1.1\r\nHost: t\r\n\r\n"));
  // If the HEAD response smuggled any body bytes, they would land at the
  // start of the second head and break both assertions below.
  const std::string head_head = recv_head(cl);
  const std::string get_head = recv_head(cl);
  ASSERT_FALSE(head_head.empty());
  EXPECT_NE(head_head.find("HTTP/1.1 200"), std::string::npos) << head_head;
  EXPECT_NE(head_head.find("Content-Length: "), std::string::npos);
  EXPECT_EQ(head_head, get_head)
      << "HEAD must answer exactly the GET headers";
  // The advertised length matches the GET body that follows.
  const std::size_t cl_pos = get_head.find("Content-Length: ") + 16;
  const std::size_t want = std::stoul(get_head.substr(cl_pos));
  ASSERT_GT(want, 0u);
  const std::string body = cl.recv_until("\n");  // JSON bodies end in '\n'
  EXPECT_EQ(body.size(), want);
  EXPECT_EQ(obs::json::parse(body).find("status")->str, "serving");
}

TEST(HttpServer_, HeadMetricsAnswersHeadersOnly) {
  obs::set_metrics_enabled(true);
  net::LoopbackServer s(with_http());
  net::LoopbackClient cl(s.server.http_port());
  ASSERT_TRUE(cl.connected());
  ASSERT_TRUE(cl.send_all(
      "HEAD /metrics HTTP/1.1\r\nHost: t\r\n\r\n"
      "GET /healthz HTTP/1.1\r\nHost: t\r\n\r\n"));
  const std::string head = recv_head(cl);
  ASSERT_FALSE(head.empty());
  EXPECT_NE(head.find("HTTP/1.1 200"), std::string::npos) << head;
  EXPECT_NE(head.find("text/plain"), std::string::npos) << head;
  EXPECT_NE(head.find("Content-Length: "), std::string::npos) << head;
  // The healthz response must follow immediately: no metrics body bytes.
  http::ResponseParser rp;
  ASSERT_TRUE(cl.recv_response(rp));
  EXPECT_EQ(rp.status(), 200);
  EXPECT_EQ(obs::json::parse(rp.body()).find("status")->str, "serving");
}

// --- header-read timeout (slow loris) -------------------------------------

TEST(HttpServer_, SlowLorisHeadersAnswered408AndCounted) {
  obs::set_metrics_enabled(true);
  net::ServerOptions nopts = with_http();
  nopts.header_timeout_ms = 60;
  nopts.poll_interval_ms = 5;
  net::LoopbackServer s(nopts);

  // A well-behaved keep-alive client: its requests complete, so however
  // long it idles between them the header deadline must never bite.
  net::LoopbackClient good(s.server.http_port());
  ASSERT_TRUE(good.connected());
  ASSERT_TRUE(good.send_all("GET /healthz HTTP/1.1\r\nHost: t\r\n\r\n"));
  http::ResponseParser ok;
  ASSERT_TRUE(good.recv_response(ok));
  EXPECT_EQ(ok.status(), 200);

  // The loris drips its header bytes forever without the closing blank
  // line; every drip would reset an idle timeout, but not this one.
  net::LoopbackClient loris(s.server.http_port());
  ASSERT_TRUE(loris.connected());
  const std::string req = "GET /healthz HTTP/1.1\r\nHost: dribble\r\n";
  for (char c : req) {
    if (!loris.send_all(std::string(1, c))) break;  // server hung up
    std::this_thread::sleep_for(5ms);
  }
  http::ResponseParser rp;
  ASSERT_TRUE(loris.recv_response(rp));
  EXPECT_EQ(rp.status(), 408);
  EXPECT_TRUE(loris.at_eof());
  ASSERT_TRUE(s.wait_for([](const net::ServerStats& st) {
    return st.disconnect_header_timeout == 1;
  }));

  // The patient complete-request client survived the purge...
  ASSERT_TRUE(good.send_all("GET /healthz HTTP/1.1\r\nHost: t\r\n\r\n"));
  http::ResponseParser again;
  ASSERT_TRUE(good.recv_response(again));
  EXPECT_EQ(again.status(), 200);

  // ...and the scrape exposes the exact labeled counter.
  net::LoopbackClient m(s.server.http_port());
  ASSERT_TRUE(m.connected());
  ASSERT_TRUE(m.send_all("GET /metrics HTTP/1.1\r\nHost: t\r\n\r\n"));
  http::ResponseParser metrics;
  ASSERT_TRUE(m.recv_response(metrics));
  EXPECT_NE(metrics.body().find(
                "rvhpc_net_disconnect_total{reason=\"header_timeout\"}"),
            std::string::npos)
      << "the disconnect must surface as "
         "rvhpc_net_disconnect_total{reason=\"header_timeout\"}";
}

// --- one count per fact ----------------------------------------------------

const std::string kScrapeRequest = "GET /metrics HTTP/1.1\r\nHost: t\r\n\r\n";

/// One /metrics body: series name -> value, plus every name seen twice.
struct Scrape {
  std::map<std::string, double> series;
  std::vector<std::string> duplicates;

  /// The series `name` (an exact name, labels included); UINT64_MAX when
  /// absent, so a missing series fails the comparison that asks for it.
  [[nodiscard]] std::uint64_t at(const std::string& name) const {
    const auto it = series.find(name);
    return it == series.end() ? UINT64_MAX
                              : static_cast<std::uint64_t>(it->second);
  }
  /// `family` plus every labeled child `family{...}`, summed.
  [[nodiscard]] std::uint64_t sum(const std::string& family) const {
    double total = 0.0;
    for (const auto& [name, value] : series) {
      if (name == family || name.rfind(family + "{", 0) == 0) total += value;
    }
    return static_cast<std::uint64_t>(total);
  }
};

/// GET /metrics on `cl` (a keep-alive HTTP connection), parsed.
Scrape scrape(net::LoopbackClient& cl) {
  Scrape m;
  if (!cl.send_all(kScrapeRequest)) return m;
  http::ResponseParser rp;
  if (!cl.recv_response(rp)) return m;
  std::istringstream body(rp.body());
  std::string line;
  while (std::getline(body, line)) {
    if (line.empty() || line[0] == '#') continue;
    const std::size_t sp = line.rfind(' ');
    const std::string name = line.substr(0, sp);
    if (m.series.count(name)) m.duplicates.push_back(name);
    m.series[name] = std::stod(line.substr(sp + 1));
  }
  return m;
}

/// Every ServiceStats/ServerStats field equals its series (or the sum of
/// its labeled children) in a scrape rendered right after `st` was read:
/// only the scrape request's own bytes have arrived since.
void expect_stats_match_series(const Scrape& m, const serve::ServiceStats& sv,
                               const net::ServerStats& st) {
  EXPECT_FALSE(m.series.empty());
  EXPECT_TRUE(m.duplicates.empty())
      << "series rendered twice, first: " << m.duplicates.front();
  EXPECT_EQ(m.at("rvhpc_serve_requests_total"), sv.received);
  EXPECT_EQ(m.sum("rvhpc_serve_ok_total"), sv.ok);
  EXPECT_EQ(m.at("rvhpc_serve_ok_total{cache=\"hit\"}"), sv.cache_hits);
  EXPECT_EQ(m.at("rvhpc_serve_dnr_total"), sv.dnr);
  EXPECT_EQ(m.at("rvhpc_serve_rejected_total{reason=\"parse\"}"),
            sv.parse_errors);
  EXPECT_EQ(m.at("rvhpc_serve_rejected_total{reason=\"lint\"}"),
            sv.lint_rejected);
  EXPECT_EQ(m.at("rvhpc_serve_rejected_total{reason=\"overloaded\"}"),
            sv.overloaded);
  EXPECT_EQ(m.at("rvhpc_serve_timeouts_total"), sv.timeouts);
  EXPECT_EQ(m.at("rvhpc_serve_cache_restored_total"), sv.restored);

  EXPECT_EQ(m.sum("rvhpc_net_connections_total"), st.accepted);
  EXPECT_EQ(m.sum("rvhpc_net_requests_total"), st.answered);
  for (std::size_t i = 0; i < st.shard_connections.size(); ++i) {
    const std::string shard = "{shard=\"" + std::to_string(i) + "\"}";
    EXPECT_EQ(m.at("rvhpc_net_connections_total" + shard),
              st.shard_connections[i]);
    EXPECT_EQ(m.at("rvhpc_net_requests_total" + shard), st.shard_answered[i]);
  }
  EXPECT_EQ(m.at("rvhpc_net_dispatched_total"), st.dispatched);
  EXPECT_EQ(m.at("rvhpc_net_inflight_requests"), st.inflight);
  EXPECT_EQ(m.at("rvhpc_net_bytes_read_total"),
            st.bytes_in + kScrapeRequest.size());
  EXPECT_EQ(m.at("rvhpc_net_bytes_written_total"), st.bytes_out);
  EXPECT_EQ(m.sum("rvhpc_http_requests_total"), st.http_requests);
  const auto reason = [&](const char* r) {
    return m.at(std::string("rvhpc_net_disconnect_total{reason=\"") + r +
                "\"}");
  };
  EXPECT_EQ(reason("eof"), st.disconnect_eof);
  EXPECT_EQ(reason("idle"), st.disconnect_idle);
  EXPECT_EQ(reason("oversize"), st.disconnect_oversize);
  EXPECT_EQ(reason("slow_reader"), st.disconnect_slow_reader);
  EXPECT_EQ(reason("refused"), st.disconnect_refused);
  EXPECT_EQ(reason("error"), st.disconnect_error);
  EXPECT_EQ(reason("drained"), st.disconnect_drained);
  EXPECT_EQ(reason("header_timeout"), st.disconnect_header_timeout);
}

TEST(HttpServer_, EveryStatsFieldIsItsMetricsSeries) {
  obs::set_metrics_enabled(true);
  std::ifstream in(std::string(RVHPC_SOURCE_DIR) +
                   "/tests/data/serve_replay20.jsonl");
  const std::string fixture((std::istreambuf_iterator<char>(in)),
                            std::istreambuf_iterator<char>());
  const auto lines = static_cast<int>(
      std::count(fixture.begin(), fixture.end(), '\n'));
  ASSERT_GT(lines, 0);

  net::ServerOptions nopts = with_http();
  nopts.shards = 2;
  nopts.max_connections = 3;
  nopts.max_line_bytes = 8192;
  nopts.header_timeout_ms = 100;
  nopts.poll_interval_ms = 5;
  net::LoopbackServer s(nopts);

  // The fixture over the raw wire (misses, a DNR, parse errors, a lint
  // reject, a repeat that hits), then again as one HTTP batch (hits).
  net::LoopbackClient raw(s.server.port());
  ASSERT_TRUE(raw.connected());
  ASSERT_TRUE(raw.send_all(fixture));
  for (int i = 0; i < lines; ++i) ASSERT_FALSE(raw.recv_line().empty());
  net::LoopbackClient web(s.server.http_port());
  ASSERT_TRUE(web.connected());
  ASSERT_TRUE(web.send_all(http_post(fixture)));
  http::ResponseParser batch;
  ASSERT_TRUE(web.recv_response(batch));
  EXPECT_EQ(batch.status(), 200);

  // An oversize line, a header timeout (HTTP: 408 + close) and, with two
  // clients still open, one connection past the cap of three.
  {
    net::LoopbackClient big(s.server.port());
    ASSERT_TRUE(big.connected());
    (void)big.send_all(std::string(9000, 'x') + "\n");
    ASSERT_TRUE(s.wait_for([](const net::ServerStats& st) {
      return st.disconnect_oversize == 1;
    }));
  }
  {
    net::LoopbackClient loris(s.server.http_port());
    ASSERT_TRUE(loris.connected());
    ASSERT_TRUE(loris.send_all("GET /healthz HTTP/1.1\r\nHost:"));
    ASSERT_TRUE(s.wait_for([](const net::ServerStats& st) {
      return st.disconnect_header_timeout == 1;
    }));
  }
  {
    net::LoopbackClient third(s.server.port());
    ASSERT_TRUE(third.connected());
    ASSERT_TRUE(s.wait_for([](const net::ServerStats& st) {
      return st.accepted == 5;
    }));
    net::LoopbackClient refused(s.server.port());
    ASSERT_TRUE(refused.connected());
    ASSERT_TRUE(s.wait_for([](const net::ServerStats& st) {
      return st.disconnect_refused == 1;
    }));
  }
  ASSERT_TRUE(s.wait_for([](const net::ServerStats& st) {
    return st.inflight == 0 && st.disconnect_eof == 1;
  }));

  const serve::ServiceStats sv = s.service.stats();
  const net::ServerStats st = s.server.stats();
  EXPECT_EQ(sv.received, static_cast<std::uint64_t>(2 * lines));
  EXPECT_GT(sv.cache_hits, 0u);
  EXPECT_GT(sv.ok, sv.cache_hits);
  EXPECT_GT(sv.dnr, 0u);
  EXPECT_GT(sv.parse_errors, 0u);
  EXPECT_GT(sv.lint_rejected, 0u);
  EXPECT_EQ(sv.cache_hits, s.service.cache().hits())
      << "the service's hit count is the memo cache's own";
  EXPECT_EQ(st.accepted, 6u);
  EXPECT_EQ(st.disconnect_oversize + st.disconnect_header_timeout +
                st.disconnect_refused,
            3u);
  expect_stats_match_series(scrape(web), sv, st);
  EXPECT_EQ(s.server.stats().http_requests, st.http_requests + 1)
      << "the scrape itself is counted once it is answered";

  // Overloaded: a second service that admits nothing.
  serve::Service::Options none = net::LoopbackServer::one_job();
  none.queue_capacity = 0;
  net::LoopbackServer full(with_http(), none);
  net::LoopbackClient cl(full.server.port());
  ASSERT_TRUE(cl.connected());
  ASSERT_TRUE(cl.send_all(predict_line("busy", 4)));
  EXPECT_EQ(obs::json::parse(cl.recv_line()).find("error")->str,
            "overloaded");
  net::LoopbackClient web2(full.server.http_port());
  ASSERT_TRUE(web2.connected());
  ASSERT_TRUE(full.wait_for([](const net::ServerStats& st2) {
    return st2.accepted == 2;
  }));
  EXPECT_EQ(full.service.stats().overloaded, 1u);
  expect_stats_match_series(scrape(web2), full.service.stats(),
                            full.server.stats());
}

TEST(HttpServer_, TwoServersInOneProcessReportOnlyTheirOwnTraffic) {
  obs::set_metrics_enabled(true);
  net::LoopbackServer a(with_http());
  net::LoopbackServer b(with_http());
  const auto drive = [](net::LoopbackServer& s, int requests) {
    net::LoopbackClient cl(s.server.port());
    ASSERT_TRUE(cl.connected());
    for (int i = 0; i < requests; ++i) {
      std::string id = "p";  // (two-step concat dodges GCC bug 105651)
      id += std::to_string(i);
      ASSERT_TRUE(cl.send_all(predict_line(id, 1 + i)));
      ASSERT_FALSE(cl.recv_line().empty());
    }
  };
  drive(a, 2);
  drive(b, 5);

  for (auto [s, requests] : {std::pair{&a, 2u}, std::pair{&b, 5u}}) {
    net::LoopbackClient web(s->server.http_port());
    ASSERT_TRUE(web.connected());
    ASSERT_TRUE(s->wait_for([](const net::ServerStats& st) {
      return st.accepted == 2 && st.disconnect_eof == 1;
    }));
    const Scrape m = scrape(web);
    EXPECT_EQ(m.at("rvhpc_serve_requests_total"), requests);
    EXPECT_EQ(m.sum("rvhpc_net_requests_total"), requests);
    EXPECT_EQ(m.sum("rvhpc_net_connections_total"), 2u);
    EXPECT_EQ(s->service.stats().received, requests);
    EXPECT_EQ(s->server.stats().answered, requests);
  }
}

}  // namespace
