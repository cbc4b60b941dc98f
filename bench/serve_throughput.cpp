// serve_throughput — acceptance gate for the sharded async front end.
//
// Drives a real net::Server on an ephemeral loopback port with raw
// blocking client sockets and checks the two properties ISSUE 8's
// refactor exists to deliver:
//
//   1. ordering gate (always enforced in --gate mode): one connection
//      streams a batch of slow uncached interval-backend requests while a
//      second connection streams cached hits.  Every cached response must
//      arrive before the slow batch's last response — with the old
//      blocking loop the cached peer sat behind the compute, so this
//      assertion is the refactor's observable contract; and
//   2. speedup gate (hosts with >= 4 hardware threads, unsanitized
//      builds only): an uncached 4-connection workload on shards=2 /
//      jobs=4 must beat shards=1 / jobs=1 by >= 1.5x, best of 3 runs.
//
// A machine-readable summary (requests/s, p50/p99 end-to-end latency
// from rvhpc_serve_request_latency_seconds) is written as
// BENCH_serve.json.
//
// Flags:
//   --gate       exit non-zero when a gate fails (the ctest entry)
//   --out=FILE   where to write the JSON (default: BENCH_serve.json)

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "cli/cli.hpp"
#include "net/loopback.hpp"
#include "net/net.hpp"
#include "obs/metrics.hpp"
#include "report/table.hpp"
#include "serve/service.hpp"

using namespace rvhpc;
using Clock = std::chrono::steady_clock;

namespace {

/// Client receive timeout: a regression fails the bench instead of
/// hanging it.
constexpr std::chrono::seconds kRecvTimeout{30};

/// A slow request: the interval backend walks the whole simulated
/// timeline, so CG class C costs ~2 ms of compute per call — three
/// orders of magnitude above a cached hit.
std::string slow_request(const std::string& id, const std::string& kernel,
                         int cores) {
  return "{\"id\": \"" + id + "\", \"machine\": \"sg2044\", \"kernel\": \"" +
         kernel + "\", \"class\": \"C\", \"cores\": " + std::to_string(cores) +
         ", \"backend\": \"interval\"}\n";
}

/// A cheap analytic request; cycling a small core grid keeps every send
/// after the warm-up a pure cache hit.
std::string cached_request(const std::string& id, int cores) {
  return "{\"id\": \"" + id +
         "\", \"machine\": \"sg2044\", \"kernel\": \"MG\", \"cores\": " +
         std::to_string(cores) + "}\n";
}

struct OrderingResult {
  bool ok = false;
  std::size_t cached = 0;           ///< cached responses received
  std::size_t slow = 0;             ///< slow responses received
  std::size_t cached_after = 0;     ///< cached arrivals after the last slow one
  double slow_window_ms = 0.0;      ///< first send -> last slow response
  double cached_window_ms = 0.0;    ///< first send -> last cached response
};

/// Conn A streams `kSlow` uncached interval requests; conn B then streams
/// `kCached` pre-warmed hits.  Two reader threads timestamp every
/// response line; the gate is that B's last arrival precedes A's.
OrderingResult run_ordering_phase() {
  constexpr int kSlow = 24;
  constexpr int kCached = 64;
  OrderingResult r;

  serve::Service::Options sopts;
  sopts.jobs = 2;
  net::ServerOptions nopts;
  nopts.shards = 2;
  net::LoopbackServer s(nopts, sopts);

  // Warm the cache so every request conn B sends is a hit.
  {
    net::LoopbackClient warm(s.server.port(), kRecvTimeout);
    if (!warm.connected()) return r;
    for (int i = 0; i < 7; ++i) {
      if (!warm.send_all(cached_request("warm-" + std::to_string(i), 1 << i)))
        return r;
    }
    for (int i = 0; i < 7; ++i) {
      if (warm.recv_line().empty()) return r;
    }
  }

  net::LoopbackClient slow_conn(s.server.port(), kRecvTimeout);
  net::LoopbackClient hit_conn(s.server.port(), kRecvTimeout);
  if (!slow_conn.connected() || !hit_conn.connected()) return r;

  std::string slow_batch;
  for (int i = 0; i < kSlow; ++i) {
    // Distinct cores -> distinct memo keys, so every request computes.
    slow_batch += slow_request("slow-" + std::to_string(i), "CG", 33 + i);
  }
  std::string hit_batch;
  for (int i = 0; i < kCached; ++i) {
    hit_batch += cached_request("hit-" + std::to_string(i), 1 << (i % 7));
  }

  const auto t0 = Clock::now();
  if (!slow_conn.send_all(slow_batch) || !hit_conn.send_all(hit_batch))
    return r;

  Clock::time_point last_slow = t0;
  Clock::time_point last_cached = t0;
  std::vector<Clock::time_point> cached_times;
  cached_times.reserve(kCached);
  std::thread slow_reader([&] {
    for (int i = 0; i < kSlow; ++i) {
      if (slow_conn.recv_line().empty()) return;
      last_slow = Clock::now();
      ++r.slow;
    }
  });
  for (int i = 0; i < kCached; ++i) {
    if (hit_conn.recv_line().empty()) break;
    cached_times.push_back(Clock::now());
    ++r.cached;
  }
  if (!cached_times.empty()) last_cached = cached_times.back();
  slow_reader.join();

  for (const auto& t : cached_times) {
    if (t > last_slow) ++r.cached_after;
  }
  r.slow_window_ms = std::chrono::duration<double, std::milli>(last_slow - t0).count();
  r.cached_window_ms =
      std::chrono::duration<double, std::milli>(last_cached - t0).count();
  r.ok = r.slow == kSlow && r.cached == kCached && r.cached_after == 0;
  return r;
}

/// End-to-end latency of one run, from its service's
/// rvhpc_serve_request_latency_seconds histogram.
struct Latency {
  double p50_us = 0.0;
  double p99_us = 0.0;
  std::uint64_t count = 0;
};

/// Wall time for `kClients` connections x `kPerClient` distinct uncached
/// interval requests against a fresh server (cold cache every run); fills
/// `latency` when given.
double timed_run_seconds(std::size_t shards, int jobs,
                         Latency* latency = nullptr) {
  constexpr int kClients = 4;
  constexpr int kPerClient = 24;

  serve::Service::Options sopts;
  sopts.jobs = jobs;
  net::ServerOptions nopts;
  nopts.shards = shards;
  net::LoopbackServer s(nopts, sopts);

  std::vector<std::thread> clients;
  std::atomic<int> failures{0};
  const auto t0 = Clock::now();
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      net::LoopbackClient cl(s.server.port(), kRecvTimeout);
      if (!cl.connected()) {
        ++failures;
        return;
      }
      std::string batch;
      for (int i = 0; i < kPerClient; ++i) {
        const int g = c * kPerClient + i;
        batch += slow_request("r-" + std::to_string(g), g < 48 ? "CG" : "LU",
                              1 + g % 48);
      }
      if (!cl.send_all(batch)) {
        ++failures;
        return;
      }
      for (int i = 0; i < kPerClient; ++i) {
        if (cl.recv_line().empty()) {
          ++failures;
          return;
        }
      }
    });
  }
  for (auto& t : clients) t.join();
  const double secs = std::chrono::duration<double>(Clock::now() - t0).count();
  if (latency) {
    const obs::Histogram& lat = s.service.registry().histogram(
        "rvhpc_serve_request_latency_seconds");
    *latency = {lat.percentile(50.0) * 1e6, lat.percentile(99.0) * 1e6,
                lat.count()};
  }
  return failures.load() == 0 ? secs : -1.0;
}

double best_of(int runs, std::size_t shards, int jobs) {
  double best = -1.0;
  for (int i = 0; i < runs; ++i) {
    const double t = timed_run_seconds(shards, jobs);
    if (t < 0.0) return -1.0;
    if (best < 0.0 || t < best) best = t;
  }
  return best;
}

std::string fmt_json(double v, int precision) {
  std::ostringstream os;
  os.setf(std::ios::fixed);
  os.precision(precision);
  os << v;
  return os.str();
}

}  // namespace

int main(int argc, char** argv) {
  bool gate = false;
  std::string out_path = "BENCH_serve.json";
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--gate") {
      gate = true;
    } else if (arg.rfind("--out=", 0) == 0) {
      out_path = arg.substr(std::string("--out=").size());
    } else {
      std::cerr << "serve_throughput: unknown argument '" << arg << "'\n";
      return 2;
    }
  }

  obs::set_metrics_enabled(true);
  const unsigned hw = std::thread::hardware_concurrency();

  // --- ordering: cached hits must overtake slow compute ---------------------
  const OrderingResult ord = run_ordering_phase();
  std::cout << "ordering: " << ord.cached << " cached response(s) in "
            << fmt_json(ord.cached_window_ms, 1) << " ms, " << ord.slow
            << " slow interval response(s) in "
            << fmt_json(ord.slow_window_ms, 1) << " ms, " << ord.cached_after
            << " cached arrival(s) after the last slow one\n";
  if (!ord.ok) {
    std::cerr << "FAIL: cached responses did not all precede the slow "
                 "batch's completion — the front end is blocking I/O on "
                 "compute\n";
    if (gate) return 1;
  }

  // --- throughput: sharded vs single-threaded front end ---------------------
  constexpr int kRuns = 3;
  constexpr std::size_t kRequests = 4 * 24;
  const double t_base = best_of(kRuns, /*shards=*/1, /*jobs=*/1);
  const double t_shard = best_of(kRuns, /*shards=*/2, /*jobs=*/4);
  if (t_base < 0.0 || t_shard < 0.0) {
    std::cerr << "FAIL: a timed run lost a connection or a response\n";
    return 1;
  }
  const double speedup = t_base / t_shard;

  // Dedicated measurement run for the latency summary: its fresh service's
  // end-to-end histogram describes exactly one shards=2 / jobs=4 workload.
  Latency lat;
  const double t_meas = timed_run_seconds(/*shards=*/2, /*jobs=*/4, &lat);
  if (t_meas < 0.0) {
    std::cerr << "FAIL: the measurement run lost a connection\n";
    return 1;
  }
  const double rps = static_cast<double>(kRequests) / t_meas;
  const double p50_us = lat.p50_us;
  const double p99_us = lat.p99_us;

  report::Table t({"config", "seconds", "requests/s", "speedup"});
  t.add_row({"shards=1 jobs=1", report::fmt(t_base, 3),
             report::fmt(static_cast<double>(kRequests) / t_base, 0), "1.00x"});
  t.add_row({"shards=2 jobs=4", report::fmt(t_shard, 3),
             report::fmt(static_cast<double>(kRequests) / t_shard, 0),
             report::fmt(speedup, 2) + "x"});
  std::cout << "\n"
            << t.render() << "\np50 " << report::fmt(p50_us, 0) << " us, p99 "
            << report::fmt(p99_us, 0) << " us end to end ("
            << lat.count
            << " requests)\nhardware threads: " << hw << "\n";

  // --- BENCH_serve.json -----------------------------------------------------
  {
    std::ofstream out(out_path, std::ios::binary);
    out << "{\n"
        << "  \"bench\": \"serve_throughput\",\n"
        << "  \"shards\": 2,\n"
        << "  \"jobs\": 4,\n"
        << "  \"hardware_threads\": " << hw << ",\n"
        << "  \"sanitized\": " << (cli::kSanitized ? "true" : "false") << ",\n"
        << "  \"ordering\": {\n"
        << "    \"cached_responses\": " << ord.cached << ",\n"
        << "    \"slow_responses\": " << ord.slow << ",\n"
        << "    \"cached_after_last_slow\": " << ord.cached_after << ",\n"
        << "    \"cached_window_ms\": " << fmt_json(ord.cached_window_ms, 3)
        << ",\n"
        << "    \"slow_window_ms\": " << fmt_json(ord.slow_window_ms, 3)
        << ",\n"
        << "    \"passed\": " << (ord.ok ? "true" : "false") << "\n"
        << "  },\n"
        << "  \"throughput\": {\n"
        << "    \"requests\": " << kRequests << ",\n"
        << "    \"baseline_seconds\": " << fmt_json(t_base, 6) << ",\n"
        << "    \"sharded_seconds\": " << fmt_json(t_shard, 6) << ",\n"
        << "    \"speedup\": " << fmt_json(speedup, 3) << ",\n"
        << "    \"requests_per_s\": " << fmt_json(rps, 1) << "\n"
        << "  },\n"
        << "  \"latency\": {\n"
        << "    \"p50_us\": " << fmt_json(p50_us, 1) << ",\n"
        << "    \"p99_us\": " << fmt_json(p99_us, 1) << "\n"
        << "  }\n"
        << "}\n";
    if (!out) {
      std::cerr << "serve_throughput: cannot write " << out_path << "\n";
      return 1;
    }
    std::cout << "wrote " << out_path << "\n";
  }

  if (!gate) return 0;
  if (cli::kSanitized) {
    std::cout << "gate: sanitized build — ordering checked, speedup "
                 "threshold skipped\n";
    return 0;
  }
  if (hw < 4) {
    std::cout << "gate: " << hw << " hardware thread(s) — ordering checked, "
                 "speedup threshold needs >= 4\n";
    return 0;
  }
  if (speedup < 1.5) {
    std::cerr << "FAIL: sharded speedup " << report::fmt(speedup, 2)
              << "x is below the 1.5x acceptance bar\n";
    return 1;
  }
  std::cout << "gate: ordering held and sharded speedup "
            << report::fmt(speedup, 2) << "x >= 1.5x — PASSED\n";
  return 0;
}
