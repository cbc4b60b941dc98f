// rvhpc::net — the transport for the prediction service: TCP and stdio.
//
// The load-bearing guarantees: many concurrent clients each get exactly
// their own responses (attributed by id) over one shared Service; a
// misbehaving peer — oversized line, never-reading client, idle
// connection, mid-request disconnect — costs bounded memory and a
// structured goodbye, never a crash or a wedge; SIGTERM drains:
// buffered requests answered, cache flushed; and stdio, served as one
// more shard connection, keeps the same admission, ordering and drain.
//
// Every socket test runs a real Server on an ephemeral loopback port with
// the event loop on a background thread (net::LoopbackServer), and drives
// it with blocking client sockets (net::LoopbackClient: 5 s receive
// timeouts so a regression fails instead of hanging).  The stdio tests
// serve the same shard loop over a pair of pipes.

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <bit>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "net/loopback.hpp"
#include "net/net.hpp"
#include "obs/json.hpp"
#include "obs/trace.hpp"
#include "serve/persist.hpp"
#include "serve/service.hpp"

namespace {

using namespace rvhpc;
using namespace std::chrono_literals;

/// RAII temp path: removed on destruction.
struct TempFile {
  std::string path;
  explicit TempFile(std::string p) : path(std::move(p)) {
    std::remove(path.c_str());
  }
  ~TempFile() { std::remove(path.c_str()); }
};

std::string request_line(const std::string& id, const std::string& kernel,
                         int cores) {
  return "{\"id\": \"" + id + "\", \"machine\": \"sg2044\", \"kernel\": \"" +
         kernel + "\", \"cores\": " + std::to_string(cores) + "}\n";
}

// --- listener -------------------------------------------------------------

TEST(NetListener, EphemeralPortIsReported) {
  net::Listener listener;
  listener.open(0);
  EXPECT_TRUE(listener.is_open());
  EXPECT_NE(listener.port(), 0) << "port 0 must resolve to the bound port";
  listener.close();
  EXPECT_FALSE(listener.is_open());
}

TEST(NetListener, PortCollisionThrowsInsteadOfServingBlind) {
  net::Listener first;
  first.open(0);
  net::Listener second;
  EXPECT_THROW(second.open(first.port()), std::runtime_error);
}

// --- concurrent clients ---------------------------------------------------

TEST(NetServer, FourConcurrentClientsGetTheirOwnResponses) {
  net::LoopbackServer s;
  constexpr int kClients = 4;
  constexpr int kRequests = 6;
  std::atomic<int> failures{0};

  std::vector<std::thread> clients;
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      net::LoopbackClient cl(s.server.port());
      if (!cl.connected()) {
        ++failures;
        return;
      }
      for (int r = 0; r < kRequests; ++r) {
        // Distinct (id, cores) per request: the response must echo OUR id
        // and OUR cores even while three other clients interleave.
        const std::string id =
            "c" + std::to_string(c) + "-r" + std::to_string(r);
        const int cores = 1 + c * kRequests + r;
        if (!cl.send_all(request_line(id, "CG", cores))) {
          ++failures;
          return;
        }
        const std::string line = cl.recv_line();
        try {
          const obs::json::Value v = obs::json::parse(line);
          if (v.find("id")->str != id ||
              v.find("status")->str != "ok" ||
              static_cast<int>(v.find("cores")->num) != cores) {
            ++failures;
          }
        } catch (const std::exception&) {
          ++failures;
        }
      }
    });
  }
  for (std::thread& t : clients) t.join();

  EXPECT_EQ(failures.load(), 0);
  const net::ServerStats stats = s.server.stats();
  EXPECT_EQ(stats.accepted, static_cast<std::uint64_t>(kClients));
  EXPECT_EQ(stats.answered, static_cast<std::uint64_t>(kClients * kRequests));
  EXPECT_EQ(s.service.stats().received,
            static_cast<std::uint64_t>(kClients * kRequests));
}

TEST(NetServer, IntervalBackendOverTcpIsDistinctAndSeparatelyCached) {
  // The ISSUE 7 acceptance path: a client sending backend=interval over
  // TCP must get the interval mechanism's answer, keyed separately from
  // the analytic twin it just warmed the shared cache with.
  net::LoopbackServer s;
  net::LoopbackClient cl(s.server.port());
  ASSERT_TRUE(cl.connected());

  const std::string point =
      R"("machine": "sg2044", "kernel": "CG", "class": "C", "cores": 64)";
  ASSERT_TRUE(cl.send_all("{\"id\": \"a\", " + point + "}\n"));
  const obs::json::Value analytic = obs::json::parse(cl.recv_line());
  ASSERT_TRUE(cl.send_all("{\"id\": \"i\", " + point +
                          ", \"backend\": \"interval\"}\n"));
  const obs::json::Value interval = obs::json::parse(cl.recv_line());
  ASSERT_TRUE(cl.send_all("{\"id\": \"w\", " + point +
                          ", \"backend\": \"interval\"}\n"));
  const obs::json::Value warm = obs::json::parse(cl.recv_line());

  EXPECT_EQ(analytic.find("status")->str, "ok");
  EXPECT_EQ(analytic.find("backend")->str, "analytic");
  EXPECT_EQ(interval.find("backend")->str, "interval");
  // Same point, different mechanism, different prediction — and the warm
  // analytic cache entry must NOT have answered the interval request.
  EXPECT_EQ(interval.find("cache")->str, "miss");
  EXPECT_NE(analytic.find("seconds")->num, interval.find("seconds")->num);
  // The repeat hits the interval entry, bit-identically.
  EXPECT_EQ(warm.find("cache")->str, "hit");
  EXPECT_EQ(warm.find("backend")->str, "interval");
  EXPECT_EQ(std::bit_cast<std::uint64_t>(warm.find("seconds")->num),
            std::bit_cast<std::uint64_t>(interval.find("seconds")->num));
}

TEST(NetServer, PipelinedClientDrainsOnHalfClose) {
  // The rvhpc-client protocol: send everything, shutdown the write side,
  // read until EOF.  Every non-blank line must be answered.
  net::LoopbackServer s;
  net::LoopbackClient cl(s.server.port());
  ASSERT_TRUE(cl.connected());
  std::string batch;
  for (int r = 0; r < 5; ++r) {
    batch += request_line("p" + std::to_string(r), "MG", 8 + r);
  }
  batch += "\n";  // blank line: consumed, never answered
  ASSERT_TRUE(cl.send_all(batch));
  cl.shutdown_write();

  const std::string all = cl.recv_until_eof();
  std::istringstream lines(all);
  std::string line;
  int count = 0;
  while (std::getline(lines, line)) {
    const obs::json::Value v = obs::json::parse(line);
    EXPECT_EQ(v.find("id")->str, "p" + std::to_string(count));
    ++count;
  }
  EXPECT_EQ(count, 5);
  ASSERT_TRUE(s.wait_for([](const net::ServerStats& st) {
    return st.disconnect_eof == 1;
  }));
}

// --- bounded buffers ------------------------------------------------------

TEST(NetServer, OversizedLineAnswersOverloadedAndDisconnects) {
  net::ServerOptions nopts;
  nopts.max_line_bytes = 256;
  nopts.poll_interval_ms = 10;
  net::LoopbackServer s(nopts);
  net::LoopbackClient cl(s.server.port());
  ASSERT_TRUE(cl.connected());
  ASSERT_TRUE(cl.send_all(std::string(600, 'x')));  // no newline, ever

  const std::string line = cl.recv_line();
  const obs::json::Value v = obs::json::parse(line);
  EXPECT_EQ(v.find("status")->str, "error");
  EXPECT_EQ(v.find("error")->str, "overloaded");
  EXPECT_NE(v.find("message")->str.find("256"), std::string::npos);
  EXPECT_TRUE(cl.recv_line().empty()) << "server must close after the error";
  ASSERT_TRUE(s.wait_for([](const net::ServerStats& st) {
    return st.disconnect_oversize == 1;
  }));
  EXPECT_EQ(s.service.stats().received, 0u)
      << "an oversized line is rejected by the transport, not the service";
}

TEST(NetServer, SlowReaderIsDisconnectedWithBoundedMemory) {
  net::ServerOptions nopts;
  nopts.max_write_buffer = 1024;  // ~3 responses
  nopts.so_sndbuf = 4096;  // keep the kernel from absorbing the pile-up
  nopts.poll_interval_ms = 10;
  net::LoopbackServer s(nopts);
  net::LoopbackClient cl(s.server.port(), 5s, /*rcvbuf=*/4096);
  ASSERT_TRUE(cl.connected());

  // 300 requests (one predict, the rest cache hits), never reading a
  // byte: responses overflow the shrunken kernel buffers, pile up in the
  // server's write buffer until the bound trips, and the connection is
  // dropped.
  std::string batch;
  for (int r = 0; r < 300; ++r) {
    std::string id = "s";  // (two-step concat dodges GCC bug 105651)
    id += std::to_string(r);
    batch.append(request_line(id, "EP", 8));
  }
  (void)cl.send_all(batch);  // the server may hang up mid-send
  ASSERT_TRUE(s.wait_for([](const net::ServerStats& st) {
    return st.disconnect_slow_reader == 1;
  }));
  const net::ServerStats stats = s.server.stats();
  EXPECT_LT(stats.answered, 300u) << "the bound must trip before all 300";

  // Until the first predict lands in the cache, every duplicate of it is
  // dispatched too, so up to queue_capacity of the slow reader's requests
  // can still be computing after its disconnect — and a line arriving
  // meanwhile is rightly answered "overloaded".  Let them finish first.
  ASSERT_TRUE(s.wait_for([](const net::ServerStats& st) {
    return st.inflight == 0;
  }));

  // The server is still healthy for a well-behaved client.
  net::LoopbackClient good(s.server.port());
  ASSERT_TRUE(good.connected());
  ASSERT_TRUE(good.send_all(request_line("ok", "CG", 64)));
  const obs::json::Value v = obs::json::parse(good.recv_line());
  EXPECT_EQ(v.find("id")->str, "ok");
  EXPECT_EQ(v.find("status")->str, "ok");
}

TEST(NetServer, PipelinedBurstOfCachedHitsIsNotASlowReader) {
  // 1,000 short cached-hit lines in one write fit one 64 KiB read, and
  // their ~330-byte answers pass the 256 KiB write bound within a single
  // loop pass.  The client *is* reading, so it must get every answer
  // rather than a slow-reader disconnect.
  net::LoopbackServer s;
  net::LoopbackClient cl(s.server.port());
  ASSERT_TRUE(cl.connected());
  const std::string line =
      "{\"machine\": \"sg2044\", \"kernel\": \"EP\", \"cores\": 8}\n";
  ASSERT_TRUE(cl.send_all(line));
  ASSERT_FALSE(cl.recv_line().empty());  // warms the cache

  constexpr int kLines = 1000;
  std::string burst;
  for (int r = 0; r < kLines; ++r) burst += line;
  ASSERT_TRUE(cl.send_all(burst));
  int received = 0;
  while (received < kLines) {
    const std::string response = cl.recv_line();
    if (response.empty()) break;
    EXPECT_NE(response.find("\"cache\": \"hit\""), std::string::npos);
    ++received;
  }
  EXPECT_EQ(received, kLines);
  EXPECT_EQ(s.server.stats().disconnect_slow_reader, 0u);
}

// --- timeouts -------------------------------------------------------------

TEST(NetServer, IdleConnectionIsToldTimeoutAndClosed) {
  net::ServerOptions nopts;
  nopts.idle_timeout_ms = 50;
  nopts.poll_interval_ms = 10;
  net::LoopbackServer s(nopts);
  net::LoopbackClient cl(s.server.port());
  ASSERT_TRUE(cl.connected());
  // Send nothing: the farewell and EOF arrive on their own.
  const std::string line = cl.recv_line();
  const obs::json::Value v = obs::json::parse(line);
  EXPECT_EQ(v.find("status")->str, "error");
  EXPECT_EQ(v.find("error")->str, "timeout");
  EXPECT_TRUE(cl.recv_line().empty());
  ASSERT_TRUE(s.wait_for([](const net::ServerStats& st) {
    return st.disconnect_idle == 1;
  }));
}

TEST(NetServer, SlowLorisPartialLineHitsHeaderDeadlineNotIdle) {
  net::ServerOptions nopts;
  nopts.idle_timeout_ms = 2000;  // generous: every drip resets it
  nopts.header_timeout_ms = 60;  // the deadline actually under test
  nopts.poll_interval_ms = 5;
  net::LoopbackServer s(nopts);
  net::LoopbackClient cl(s.server.port());
  ASSERT_TRUE(cl.connected());
  // Drip a request one byte at a time, never sending the newline: the
  // idle clock restarts on every byte, but the partial-request clock
  // started with the first byte and runs out mid-drip.
  const std::string partial = R"({"id": "loris", "machine": "sg2)";
  for (char c : partial) {
    if (!cl.send_all(std::string(1, c))) break;  // server hung up
    std::this_thread::sleep_for(5ms);
  }
  const obs::json::Value v = obs::json::parse(cl.recv_line());
  EXPECT_EQ(v.find("status")->str, "error");
  EXPECT_EQ(v.find("error")->str, "timeout");
  EXPECT_TRUE(cl.recv_line().empty());
  ASSERT_TRUE(s.wait_for([](const net::ServerStats& st) {
    return st.disconnect_header_timeout == 1;
  }));
  EXPECT_EQ(s.server.stats().disconnect_idle, 0u)
      << "the header deadline, not the idle timeout, must attribute this";
}

// --- misbehaving peers ----------------------------------------------------

TEST(NetServer, MidRequestDisconnectDiscardsThePartialLine) {
  net::LoopbackServer s;
  {
    net::LoopbackClient cl(s.server.port());
    ASSERT_TRUE(cl.connected());
    ASSERT_TRUE(cl.send_all(R"({"id": "half", "machine": "sg20)"));
  }  // gone mid-request, no newline
  ASSERT_TRUE(s.wait_for([](const net::ServerStats& st) {
    return st.disconnect_eof == 1;
  }));
  EXPECT_EQ(s.service.stats().received, 0u)
      << "a partial line must be discarded, not parsed";

  net::LoopbackClient next(s.server.port());
  ASSERT_TRUE(next.connected());
  ASSERT_TRUE(next.send_all(request_line("whole", "CG", 32)));
  EXPECT_EQ(obs::json::parse(next.recv_line()).find("id")->str, "whole");
}

TEST(NetServer, ConnectionsPastTheCapAreRefusedPolitely) {
  net::ServerOptions nopts;
  nopts.max_connections = 1;
  nopts.poll_interval_ms = 10;
  net::LoopbackServer s(nopts);
  net::LoopbackClient first(s.server.port());
  ASSERT_TRUE(first.connected());
  // A full round-trip guarantees the server registered `first` before the
  // second connect arrives.
  ASSERT_TRUE(first.send_all(request_line("one", "CG", 16)));
  ASSERT_FALSE(first.recv_line().empty());

  net::LoopbackClient second(s.server.port());
  ASSERT_TRUE(second.connected()) << "the kernel accepts; the server refuses";
  const obs::json::Value v = obs::json::parse(second.recv_line());
  EXPECT_EQ(v.find("error")->str, "overloaded");
  EXPECT_TRUE(second.recv_line().empty());
  ASSERT_TRUE(s.wait_for([](const net::ServerStats& st) {
    return st.disconnect_refused == 1;
  }));
}

// --- shutdown -------------------------------------------------------------

TEST(NetServer, SigtermDrainsAndFlushesThePersistentCache) {
  TempFile cache("test_net_sigterm_cache.tmp.bin");
  serve::install_shutdown_handlers();
  serve::reset_shutdown();

  serve::Service::Options sopts = net::LoopbackServer::one_job();
  sopts.cache_file = cache.path;
  {
    net::LoopbackServer s({}, sopts);
    net::LoopbackClient cl(s.server.port());
    ASSERT_TRUE(cl.connected());
    for (int r = 0; r < 3; ++r) {
      ASSERT_TRUE(cl.send_all(request_line("d" + std::to_string(r), "CG",
                                           8 << r)));
      ASSERT_FALSE(cl.recv_line().empty());
    }

    std::raise(SIGTERM);  // the handler sets the serve-wide drain flag
    s.loop.join();        // run() must return on its own
    EXPECT_TRUE(cl.recv_line().empty()) << "drain closes the connection";
    EXPECT_NE(s.log.str().find("net: drained"), std::string::npos);
    EXPECT_NE(s.log.str().find("checkpointed"), std::string::npos);

    // The flush happened during drain, before the Service died.
    engine::PredictionCache loaded(16);
    const serve::LoadResult r = serve::load_cache(cache.path, loaded);
    EXPECT_TRUE(r.ok());
    EXPECT_EQ(r.restored, 3u);
  }
  serve::reset_shutdown();
}

TEST(NetServer, StopAnswersBufferedRequestsBeforeClosing) {
  net::ServerOptions nopts;
  nopts.poll_interval_ms = 10;
  net::LoopbackServer s(nopts);
  net::LoopbackClient cl(s.server.port());
  ASSERT_TRUE(cl.connected());
  std::string batch;
  for (int r = 0; r < 4; ++r) {
    batch += request_line("b" + std::to_string(r), "MG", 4 + r);
  }
  ASSERT_TRUE(cl.send_all(batch));
  // Wait until the requests are inside the server, then pull the plug.
  ASSERT_TRUE(s.wait_for([](const net::ServerStats& st) {
    return st.answered >= 4;
  }));
  s.server.stop();
  s.loop.join();

  const std::string all = cl.recv_until_eof();
  int count = 0;
  std::istringstream lines(all);
  std::string line;
  while (std::getline(lines, line)) ++count;
  EXPECT_EQ(count, 4) << "every admitted request is answered at drain";
}

// --- out-of-order completion (ISSUE 8) ------------------------------------

/// An uncached interval-backend request: the backend walks the whole
/// simulated timeline (~ms of compute), so it is the "slow" request the
/// async front end must not let block anyone else.
std::string slow_line(const std::string& id, int cores) {
  std::string line = "{";
  if (!id.empty()) line += "\"id\": \"" + id + "\", ";
  line += "\"machine\": \"sg2044\", \"kernel\": \"CG\", \"class\": \"C\", "
          "\"cores\": " + std::to_string(cores) +
          ", \"backend\": \"interval\"}\n";
  return line;
}

TEST(NetServer, SlowUncachedRequestDoesNotStallCachedPeer) {
  serve::Service::Options sopts;
  sopts.jobs = 2;
  net::ServerOptions nopts;
  nopts.shards = 2;
  net::LoopbackServer s(nopts, sopts);

  net::LoopbackClient warm(s.server.port());
  ASSERT_TRUE(warm.connected());
  ASSERT_TRUE(warm.send_all(request_line("w", "MG", 8)));
  ASSERT_FALSE(warm.recv_line().empty());

  net::LoopbackClient slow(s.server.port());
  net::LoopbackClient hits(s.server.port());
  ASSERT_TRUE(slow.connected());
  ASSERT_TRUE(hits.connected());

  // 16 distinct uncached interval requests (~2 ms compute each) on one
  // connection; 16 cache hits on the other.  The hits are served inline
  // on their shard while the computes run on the pool, so every hit must
  // land before the slow batch's final response.
  constexpr int kEach = 16;
  std::string slow_batch;
  for (int i = 0; i < kEach; ++i) {
    slow_batch += slow_line("s" + std::to_string(i), 40 + i);
  }
  std::string hit_batch;
  for (int i = 0; i < kEach; ++i) {
    hit_batch += request_line("h" + std::to_string(i), "MG", 8);
  }
  ASSERT_TRUE(slow.send_all(slow_batch));
  ASSERT_TRUE(hits.send_all(hit_batch));

  const auto t0 = std::chrono::steady_clock::now();
  auto last_slow = t0;
  int slow_got = 0;
  std::thread slow_reader([&] {
    for (int i = 0; i < kEach; ++i) {
      if (slow.recv_line().empty()) return;
      last_slow = std::chrono::steady_clock::now();
      ++slow_got;
    }
  });
  auto last_hit = t0;
  int hits_got = 0;
  for (int i = 0; i < kEach; ++i) {
    const std::string line = hits.recv_line();
    if (line.empty()) break;
    EXPECT_EQ(obs::json::parse(line).find("cache")->str, "hit");
    last_hit = std::chrono::steady_clock::now();
    ++hits_got;
  }
  slow_reader.join();

  EXPECT_EQ(slow_got, kEach);
  EXPECT_EQ(hits_got, kEach);
  EXPECT_LT(last_hit, last_slow)
      << "cached responses queued behind another connection's compute";
}

TEST(NetServer, OutOfOrderIdsWithinOneConnection) {
  // One pool thread, one shard: while the pool is busy with the slow
  // request, the shard keeps admitting and answering the cached lines
  // behind it — id-carrying responses may overtake.
  net::LoopbackServer s;
  net::LoopbackClient cl(s.server.port());
  ASSERT_TRUE(cl.connected());
  for (int i = 0; i < 4; ++i) {  // warm the hit keys
    ASSERT_TRUE(cl.send_all(request_line("w" + std::to_string(i), "MG", 1 << i)));
    ASSERT_FALSE(cl.recv_line().empty());
  }

  std::string batch = slow_line("slow", 64);
  for (int i = 0; i < 4; ++i) {
    batch += request_line("h" + std::to_string(i), "MG", 1 << i);
  }
  ASSERT_TRUE(cl.send_all(batch));

  std::vector<std::string> order;
  for (int i = 0; i < 5; ++i) {
    const std::string line = cl.recv_line();
    ASSERT_FALSE(line.empty());
    order.push_back(obs::json::parse(line).find("id")->str);
  }
  // The cached hits come back first, in admission order; the slow
  // response arrives last even though it was sent first.
  const std::vector<std::string> want{"h0", "h1", "h2", "h3", "slow"};
  EXPECT_EQ(order, want);
}

TEST(NetServer, IdLessResponsesStayInRequestOrder) {
  // Without an id the client has no way to match responses, so the
  // in-order contract holds even when a later request finishes first.
  serve::Service::Options sopts;
  sopts.jobs = 2;
  net::LoopbackServer s({}, sopts);
  net::LoopbackClient cl(s.server.port());
  ASSERT_TRUE(cl.connected());
  ASSERT_TRUE(cl.send_all(request_line("w", "MG", 8)));
  ASSERT_FALSE(cl.recv_line().empty());

  std::string batch = slow_line(/*id=*/"", 64);
  for (int i = 0; i < 3; ++i) {
    batch += request_line("", "MG", 8);  // cached: completes instantly
  }
  ASSERT_TRUE(cl.send_all(batch));

  std::vector<std::string> backends;
  for (int i = 0; i < 4; ++i) {
    const std::string line = cl.recv_line();
    ASSERT_FALSE(line.empty());
    backends.push_back(obs::json::parse(line).find("backend")->str);
  }
  const std::vector<std::string> want{"interval", "analytic", "analytic",
                                      "analytic"};
  EXPECT_EQ(backends, want)
      << "id-less responses must be delivered in request order";
}

TEST(NetServer, LinesShedAtTheBacklogKeepTheContract) {
  // With one request's worth of backlog, the slow line fills it and the
  // next two are shed.  The shed id-less line still waits its turn behind
  // the slow one, and the shed line with an id gets that id back.
  serve::Service::Options sopts = net::LoopbackServer::one_job();
  sopts.queue_capacity = 1;
  net::LoopbackServer s({}, sopts);
  net::LoopbackClient cl(s.server.port());
  ASSERT_TRUE(cl.connected());
  ASSERT_TRUE(cl.send_all(slow_line(/*id=*/"", 64) + request_line("", "MG", 8) +
                          request_line("o", "MG", 4)));

  std::vector<std::string> idless;
  int with_id = 0;
  for (int i = 0; i < 3; ++i) {
    const std::string line = cl.recv_line();
    ASSERT_FALSE(line.empty()) << "response " << i << " never came";
    const obs::json::Value v = obs::json::parse(line);
    if (v.find("id")->str == "o") {
      ++with_id;
      EXPECT_EQ(v.find("error")->str, "overloaded");
    } else {
      EXPECT_EQ(v.find("id")->str, "");
      idless.push_back(v.find("status")->str == "ok" ? v.find("backend")->str
                                                     : v.find("error")->str);
    }
  }
  EXPECT_EQ(with_id, 1);
  const std::vector<std::string> want{"interval", "overloaded"};
  EXPECT_EQ(idless, want)
      << "a shed id-less line must not overtake the one before it";
}

TEST(NetServer, EveryResponseReachesItsRequestWhileComputesOverlap) {
  // Twelve uncached lines on one connection, ids on the even ones: the
  // connection always has compute in flight while its delivered answers
  // are dropped from the front, and each answer must still land on its
  // own request — ids matched by cores, id-less ones in request order.
  net::LoopbackServer s;
  net::LoopbackClient cl(s.server.port());
  ASSERT_TRUE(cl.connected());
  constexpr int kLines = 12;
  std::string batch;
  for (int i = 0; i < kLines; ++i) {
    batch += slow_line(i % 2 == 0 ? "s" + std::to_string(i) : "", 8 + i);
  }
  ASSERT_TRUE(cl.send_all(batch));

  std::vector<int> idless_cores;
  for (int i = 0; i < kLines; ++i) {
    const std::string line = cl.recv_line();
    ASSERT_FALSE(line.empty()) << "response " << i << " never came";
    const obs::json::Value v = obs::json::parse(line);
    const int cores = static_cast<int>(v.find("cores")->num);
    const std::string& id = v.find("id")->str;
    if (id.empty()) {
      idless_cores.push_back(cores);
    } else {
      EXPECT_EQ(id, "s" + std::to_string(cores - 8));
    }
  }
  const std::vector<int> want{9, 11, 13, 15, 17, 19};
  EXPECT_EQ(idless_cores, want);
}

TEST(NetServer, SigtermDrainAnswersInFlightComputes) {
  serve::install_shutdown_handlers();
  serve::reset_shutdown();
  {
    serve::Service::Options sopts;
    sopts.jobs = 2;
    net::LoopbackServer s({}, sopts);
    net::LoopbackClient cl(s.server.port());
    ASSERT_TRUE(cl.connected());
    std::string batch;
    for (int i = 0; i < 4; ++i) {
      batch += slow_line("f" + std::to_string(i), 32 + i);
    }
    ASSERT_TRUE(cl.send_all(batch));
    // Pull the plug once all four computes are dispatched to the pool —
    // most of them are still in flight when the drain starts.
    ASSERT_TRUE(s.wait_for([](const net::ServerStats& st) {
      return st.dispatched >= 4;
    }));
    std::raise(SIGTERM);
    s.loop.join();

    const std::string all = cl.recv_until_eof();
    std::vector<bool> seen(4, false);
    std::istringstream lines(all);
    std::string line;
    while (std::getline(lines, line)) {
      const std::string id = obs::json::parse(line).find("id")->str;
      ASSERT_EQ(id.size(), 2u);
      seen[static_cast<std::size_t>(id[1] - '0')] = true;
    }
    for (int i = 0; i < 4; ++i) {
      EXPECT_TRUE(seen[static_cast<std::size_t>(i)])
          << "drain dropped in-flight request f" << i;
    }
  }
  serve::reset_shutdown();
}

/// Most spans named `category`/`name` open at any one instant of
/// `session` (spans that merely touch do not overlap).
std::size_t peak_overlap(const obs::TraceSession& session,
                         const std::string& category,
                         const std::string& name, std::size_t& spans) {
  std::vector<std::pair<double, int>> edges;  // (time, +1 open / -1 close)
  spans = 0;
  for (const obs::Span& sp : session.spans()) {
    if (sp.category != category || sp.name != name) continue;
    ++spans;
    edges.emplace_back(sp.start_us, 1);
    edges.emplace_back(sp.start_us + sp.dur_us, -1);
  }
  std::sort(edges.begin(), edges.end());  // a close sorts before an open
  std::size_t open = 0, peak = 0;
  for (const auto& [t, step] : edges) {
    open = step > 0 ? open + 1 : open - 1;
    peak = std::max(peak, open);
  }
  return peak;
}

TEST(NetServer, JobsCapsTheComputesRunningAtOnce) {
  // The server's computes run on the process-wide pool, which has a
  // worker per hardware thread; `jobs` alone bounds how many of them one
  // server keeps busy.  Service::complete records one serve/request span
  // per miss, so the trace shows the bound directly.
  for (int jobs : {1, 2}) {
    obs::SessionScope scope;
    {
      serve::Service::Options sopts;
      sopts.jobs = jobs;
      net::LoopbackServer s({}, sopts);
      net::LoopbackClient cl(s.server.port());
      ASSERT_TRUE(cl.connected());
      std::string batch;
      for (int i = 0; i < 8; ++i) {
        batch += slow_line("j" + std::to_string(i), 24 + i);
      }
      ASSERT_TRUE(cl.send_all(batch));
      for (int i = 0; i < 8; ++i) ASSERT_NE(cl.recv_line(), "");
    }
    std::size_t spans = 0;
    const std::size_t peak =
        peak_overlap(scope.session(), "serve", "request", spans);
    EXPECT_EQ(spans, 8u);
    EXPECT_GE(peak, 1u);
    EXPECT_LE(peak, static_cast<std::size_t>(jobs)) << "jobs = " << jobs;
  }
}

// --- shards ---------------------------------------------------------------

TEST(NetServer, ShardFairnessAcrossTwoShards) {
  net::ServerOptions nopts;
  nopts.shards = 2;
  net::LoopbackServer s(nopts);

  // Four connections held open together: round-robin dealing must give
  // each shard exactly two, and both shards must answer requests.
  std::vector<std::unique_ptr<net::LoopbackClient>> clients;
  for (int c = 0; c < 4; ++c) {
    clients.push_back(
        std::make_unique<net::LoopbackClient>(s.server.port()));
    ASSERT_TRUE(clients.back()->connected());
    const std::string id = "c" + std::to_string(c);
    ASSERT_TRUE(clients.back()->send_all(request_line(id, "CG", 8 + c)));
    const obs::json::Value v = obs::json::parse(clients.back()->recv_line());
    EXPECT_EQ(v.find("id")->str, id);
  }

  const net::ServerStats stats = s.server.stats();
  ASSERT_EQ(stats.shard_connections.size(), 2u);
  ASSERT_EQ(stats.shard_answered.size(), 2u);
  EXPECT_EQ(stats.shard_connections[0], 2u);
  EXPECT_EQ(stats.shard_connections[1], 2u);
  EXPECT_GT(stats.shard_answered[0], 0u);
  EXPECT_GT(stats.shard_answered[1], 0u);
  EXPECT_EQ(stats.shard_answered[0] + stats.shard_answered[1], 4u);
}

// --- stdio: the same shard loop over a pair of pipes ---------------------

/// Writes every byte unless the reader is gone (EPIPE: the Server
/// ignores SIGPIPE for the whole process).
void write_all(int fd, const std::string& bytes) {
  std::size_t off = 0;
  while (off < bytes.size()) {
    const ssize_t n = ::write(fd, bytes.data() + off, bytes.size() - off);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) return;
    off += static_cast<std::size_t>(n);
  }
}

/// One Server::run_stdio session over two pipes, the way rvhpc-serve
/// --listen=stdio runs it over fds 0 and 1: a writer thread feeds `input`
/// to the server's stdin (then closes it, unless `keep_input_open`), a
/// reader thread copies its stdout into `out`.
net::ServerStats serve_stdio(serve::Service& svc, const std::string& input,
                             std::ostream& out, std::ostream& log,
                             bool keep_input_open = false) {
  int in[2];
  int res[2];
  if (::pipe(in) != 0) return {};
  if (::pipe(res) != 0) return {};
  std::thread writer([&] {
    write_all(in[1], input);
    if (!keep_input_open) ::close(in[1]);
  });
  std::string output;
  std::thread reader([&] {
    char chunk[4096];
    ssize_t n = 0;
    while ((n = ::read(res[0], chunk, sizeof(chunk))) > 0) {
      output.append(chunk, static_cast<std::size_t>(n));
    }
  });
  net::Server server(svc, {});
  server.run_stdio(in[0], res[1], log);
  // run_stdio never closes what it borrows: closing the write end is the
  // reader's EOF, closing the read end frees a writer the server stopped
  // reading.
  ::close(res[1]);
  ::close(in[0]);
  writer.join();
  reader.join();
  if (keep_input_open) ::close(in[1]);
  ::close(res[0]);
  out << output;
  return server.stats();
}

std::vector<std::string> lines_of(const std::string& text) {
  std::vector<std::string> lines;
  std::istringstream in(text);
  std::string line;
  while (std::getline(in, line)) lines.push_back(line);
  return lines;
}

TEST(Service, FullBacklogAnswersOverloaded) {
  serve::Service::Options opts = net::LoopbackServer::one_job();
  opts.queue_capacity = 0;  // reject everything: deterministic drill
  serve::Service svc(opts);
  std::ostringstream out, log;
  serve_stdio(svc,
              R"({"id": "o", "machine": "sg2044", "kernel": "CG", "cores": 4})"
              "\n",
              out, log);
  const auto v = obs::json::parse(out.str());
  EXPECT_EQ(v.find("status")->str, "error");
  EXPECT_EQ(v.find("error")->str, "overloaded");
  EXPECT_EQ(svc.stats().overloaded, 1u);
}

TEST(Service, RunAnswersEveryLineAndDrains) {
  serve::Service::Options opts = net::LoopbackServer::one_job();
  opts.jobs = 2;
  serve::Service svc(opts);
  std::ostringstream out, log;
  serve_stdio(svc,
              R"({"id": "1", "machine": "sg2044", "kernel": "CG", "cores": 64})"
              "\n"
              "\n"  // blank lines are skipped, not answered
              "garbage\n"
              R"({"id": "3", "machine": "sg2042", "kernel": "EP", "cores": 16})"
              "\n",
              out, log);

  std::istringstream lines(out.str());
  std::string line;
  std::size_t count = 0;
  while (std::getline(lines, line)) {
    ++count;
    EXPECT_NO_THROW((void)obs::json::parse(line)) << line;
  }
  EXPECT_EQ(count, 3u) << "every non-blank request line gets one response";
  EXPECT_EQ(svc.stats().received, 3u);
  EXPECT_EQ(svc.stats().ok, 2u);
  EXPECT_EQ(svc.stats().parse_errors, 1u);
  EXPECT_NE(log.str().find("drained"), std::string::npos);
}

TEST(NetStdio, IdLessResponsesComeBackInRequestOrder) {
  // The ordering contract DESIGN §13.2 states for every transport: a slow
  // id-less request holds back the cached id-less one behind it, even
  // with a second worker free to finish the cached one first.
  serve::Service::Options sopts;
  sopts.jobs = 2;
  serve::Service svc(sopts);
  (void)svc.handle_line(request_line("warm", "MG", 8));
  std::ostringstream out, log;
  serve_stdio(svc, slow_line(/*id=*/"", 64) + request_line("", "MG", 8), out,
              log);

  const std::vector<std::string> lines = lines_of(out.str());
  ASSERT_EQ(lines.size(), 2u) << out.str();
  EXPECT_EQ(obs::json::parse(lines[0]).find("backend")->str, "interval");
  EXPECT_EQ(obs::json::parse(lines[1]).find("backend")->str, "analytic");
  EXPECT_EQ(obs::json::parse(lines[1]).find("cache")->str, "hit");
}

TEST(NetStdio, OversizedLineAnswersOverloadedAndEndsTheSession) {
  serve::Service svc(net::LoopbackServer::one_job());
  std::ostringstream out, log;
  // Input stays open after the 200 KB line: only the line bound can end
  // this session, and the valid request behind the line is never read.
  const net::ServerStats stats =
      serve_stdio(svc, std::string(200 * 1024, 'x') + "\n" +
                           request_line("after", "CG", 8),
                  out, log, /*keep_input_open=*/true);

  const std::vector<std::string> lines = lines_of(out.str());
  ASSERT_EQ(lines.size(), 1u) << out.str();
  EXPECT_EQ(obs::json::parse(lines[0]).find("error")->str, "overloaded");
  EXPECT_EQ(stats.disconnect_oversize, 1u);
  EXPECT_EQ(svc.stats().received, 0u)
      << "an oversized line is rejected by the transport, not the service";
}

TEST(NetStdio, ReaderGoneEndsTheSessionAndCheckpoints) {
  // `rvhpc-serve --listen=stdio | head -n 1`: the reader leaves after one
  // line.  The write fails with EPIPE instead of raising SIGPIPE, the
  // session drains, and the cache still reaches disk.
  TempFile cache("test_net_stdio_reader_gone.tmp.bin");
  serve::Service::Options sopts = net::LoopbackServer::one_job();
  sopts.cache_file = cache.path;
  serve::Service svc(sopts);
  int in[2];
  int res[2];
  ASSERT_EQ(::pipe(in), 0);
  ASSERT_EQ(::pipe(res), 0);
  write_all(in[1], request_line("gone", "CG", 64));  // fits the pipe buffer
  ::close(res[0]);

  std::ostringstream log;
  {
    net::Server server(svc, {});
    server.run_stdio(in[0], res[1], log);  // stdin stays open throughout
    EXPECT_EQ(server.stats().disconnect_error, 1u);
  }
  // Borrowed, not owned: both fds are still open, blocking again.
  EXPECT_EQ(::fcntl(in[0], F_GETFL) & O_NONBLOCK, 0);
  EXPECT_EQ(::fcntl(res[1], F_GETFL) & O_NONBLOCK, 0);
  ::close(in[0]);
  ::close(in[1]);
  ::close(res[1]);

  EXPECT_NE(log.str().find("net: drained"), std::string::npos);
  engine::PredictionCache loaded(16);
  const serve::LoadResult r = serve::load_cache(cache.path, loaded);
  EXPECT_TRUE(r.ok());
  EXPECT_EQ(r.restored, 1u);
}

}  // namespace
