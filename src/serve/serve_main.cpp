// rvhpc-serve — the prediction model as a long-running service.
//
// Reads line-delimited JSON prediction requests (stdin by default, a
// replay log with --replay, or a loopback TCP socket with --listen=tcp),
// answers each with one line of JSON, and keeps the engine's memo cache
// warm across processes through a persistent cache file.  Every live
// listener, stdin included, is a connection on net::Server.  See
// src/serve/service.hpp for the request/response schema, DESIGN.md §9 for
// the service and §13 for the transport.
//
//   echo '{"id":"r1","machine":"sg2044","kernel":"CG","cores":64}' |
//     rvhpc-serve --cache-file=predictions.bin
//   rvhpc-serve --replay=tests/data/serve_replay20.jsonl
//               --cache-file=predictions.bin --out=responses.jsonl
//   rvhpc-serve --listen=tcp:0 --cache-file=predictions.bin &
//     # stderr logs "net: listening on 127.0.0.1:<port>"; drive it with
//     # rvhpc-client --connect=127.0.0.1:<port> --in=requests.jsonl
//   rvhpc-serve --http=tcp:0 &
//     # stderr logs "http: listening on 127.0.0.1:<port>"; then
//     # curl --data-binary @requests.jsonl http://127.0.0.1:<port>/v1/predict
//     # (README "Serving over HTTP" has the full tour; --listen=tcp and
//     # --http may run together in one process, on separate ports)
//
// Exit status: 0 on success (including replays with per-request errors —
// those are *answered*, not fatal), 1 on gate failure, 2 on usage errors.

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "arch/registry.hpp"
#include "cli/cli.hpp"
#include "engine/thread_pool.hpp"
#include "net/net.hpp"
#include "obs/metrics.hpp"
#include "serve/persist.hpp"
#include "serve/service.hpp"

using namespace rvhpc;

namespace {

const cli::ToolInfo kTool{
    "rvhpc-serve",
    "serve predictions over line-delimited JSON with a persistent cache",
    "usage: rvhpc-serve [--listen=stdio|tcp:PORT] [--http=tcp:PORT]\n"
    "                   [--shards=N] [--max-body=N]\n"
    "                   [--replay=<requests.jsonl>]\n"
    "                   [--out=<responses.jsonl>] [--cache-file=<file.bin>]\n"
    "                   [--cache-capacity=N] [--cache-max-entries=N]\n"
    "                   [--queue=N] [--timeout-ms=T] [--idle-timeout-ms=T]\n"
    "                   [--header-timeout-ms=T]\n"
    "                   [--checkpoint-every=N] [--no-lint] [--no-live-fields]\n"
    "                   [--jobs=N] [--metrics[=<file>]] [--gate]\n"
    "\n"
    "  --listen=stdio        serve requests from stdin until EOF/SIGTERM or\n"
    "                        until stdout's reader goes away (the default;\n"
    "                        incompatible with --http); same admission,\n"
    "                        ordering and drain as tcp\n"
    "  --listen=tcp:PORT     serve concurrent clients on 127.0.0.1:PORT\n"
    "                        until SIGTERM; PORT 0 picks an ephemeral port\n"
    "                        (logged as \"net: listening on ...\"); drive it\n"
    "                        with rvhpc-client\n"
    "  --http=tcp:PORT       also serve HTTP/1.1 on 127.0.0.1:PORT (0 =\n"
    "                        ephemeral, logged as \"http: listening on ...\"):\n"
    "                        POST /v1/predict (JSON-lines body; batches\n"
    "                        stream back chunked), GET /metrics, GET\n"
    "                        /healthz.  Alone it replaces the stdio\n"
    "                        listener; with --listen=tcp:PORT one process\n"
    "                        serves both protocols\n"
    "  --shards=N            tcp/http: event-loop shards accepting\n"
    "                        connections round-robin (default 1); 0 = auto,\n"
    "                        min(hardware threads, 4)\n"
    "  --max-body=N          http only: largest request body in bytes\n"
    "                        (default 1048576); beyond it the request is\n"
    "                        answered 413 and the connection closed\n"
    "  --replay=FILE         batch-replay a request log instead of serving;\n"
    "                        responses in request order, summary on stderr\n"
    "  --out=FILE            write responses there instead of stdout\n"
    "  --cache-file=FILE     load the prediction cache on start, checkpoint\n"
    "                        and flush it on shutdown (corrupt or\n"
    "                        version-mismatched files are ignored, cold)\n"
    "  --cache-capacity=N    resident cache entries (default 16384)\n"
    "  --cache-max-entries=N cap entries written to --cache-file; saves trim\n"
    "                        the oldest-LRU overflow first (0 = uncapped)\n"
    "  --queue=N             live-mode admission bound; requests past it\n"
    "                        answer \"overloaded\" (default 256)\n"
    "  --timeout-ms=T        default per-request deadline (0 = none)\n"
    "  --idle-timeout-ms=T   tcp only: disconnect clients idle for T ms\n"
    "                        (0 = never, the default)\n"
    "  --header-timeout-ms=T tcp/http: disconnect clients that start a\n"
    "                        request but do not finish framing it within T\n"
    "                        ms (slow loris; 0 = never, the default).\n"
    "                        Distinct from --idle-timeout-ms, which a\n"
    "                        dripped byte resets\n"
    "  --checkpoint-every=N  checkpoint the cache every N evaluations\n"
    "  --no-lint             skip A0xx admission lint of machine_text\n"
    "  --no-live-fields      omit the \"cache\"/\"latency_us\" response\n"
    "                        fields so live output is byte-comparable with\n"
    "                        a --replay of the same requests\n"
    + cli::jobs_flag_help() + "\n"
    "  --metrics[=FILE]      dump the Prometheus metrics on exit: the\n"
    "                        process registry, then the service's and the\n"
    "                        server's (stderr, or FILE)\n"
    "  --gate                self-check: replay determinism across pool\n"
    "                        sizes and cold/warm cache runs, then exit"};

struct Options {
  serve::Service::Options svc;
  net::ServerOptions net;
  std::string replay_path;
  std::string out_path;
  std::string metrics_path;  ///< empty = stderr
  bool tcp = false;          ///< --listen=tcp:PORT (port in net.port)
  bool http = false;         ///< --http=tcp:PORT (port in net.http_port)
  bool metrics = false;
  bool gate = false;
};

using cli::parse_size;

int usage_error(const std::string& message) {
  std::cerr << "rvhpc-serve: " << message << "\n\n" << kTool.usage << "\n";
  return 2;
}

// --- gate -----------------------------------------------------------------

/// Synthetic replay log: the paper's HPC machines × three kernels × the
/// power-of-two core counts — enough distinct points that pool scheduling
/// differences would show if responses depended on evaluation order.
std::string gate_requests() {
  std::ostringstream os;
  int id = 0;
  for (arch::MachineId mid : arch::hpc_machines()) {
    const arch::MachineModel& m = arch::machine(mid);
    for (const char* kernel : {"CG", "MG", "EP"}) {
      for (int cores = 1; cores <= m.cores; cores *= 2) {
        os << "{\"id\": \"g" << id++ << "\", \"machine\": \"" << m.name
           << "\", \"kernel\": \"" << kernel << "\", \"cores\": " << cores
           << "}\n";
      }
    }
  }
  return os.str();
}

/// One full replay of `path` with its own Service; responses to `out`,
/// summary discarded, wall time returned in seconds.
double timed_replay(const std::string& path, int jobs,
                    const std::string& cache_file, std::ostream& out,
                    serve::ServiceStats* stats = nullptr) {
  serve::Service::Options opts;
  opts.jobs = jobs;
  opts.cache_file = cache_file;
  std::ostringstream log;
  serve::Service svc(opts);
  svc.start(log);
  const auto t0 = std::chrono::steady_clock::now();
  (void)svc.replay(path, out, log);
  const auto t1 = std::chrono::steady_clock::now();
  if (stats) *stats = svc.stats();
  return std::chrono::duration<double>(t1 - t0).count();
}

int run_gate() {
  const std::string requests_path = "rvhpc-serve-gate-requests.tmp";
  const std::string cache_path = "rvhpc-serve-gate-cache.tmp";
  {
    std::ofstream f(requests_path);
    f << gate_requests();
    if (!f.good()) {
      std::cerr << "gate: cannot write " << requests_path << "\n";
      return 1;
    }
  }
  std::remove(cache_path.c_str());
  bool ok = true;

  // 1. Pool-size independence: jobs=1 and jobs=4 replays are byte-equal.
  std::ostringstream one, four;
  const double t1 = timed_replay(requests_path, 1, "", one);
  const double t4 = timed_replay(requests_path, 4, "", four);
  if (one.str() != four.str() || one.str().empty()) {
    std::cerr << "gate: FAIL — replay responses differ between jobs=1 and "
                 "jobs=4 pools\n";
    ok = false;
  } else {
    std::cerr << "gate: ok — jobs=1 and jobs=4 replays byte-identical ("
              << t1 << "s vs " << t4 << "s)\n";
  }

  // 2. Cold/warm cache equivalence: a warm run answers from the restored
  //    cache and must reproduce the cold run exactly.
  std::ostringstream cold, warm;
  serve::ServiceStats cold_stats, warm_stats;
  timed_replay(requests_path, 0, cache_path, cold, &cold_stats);
  timed_replay(requests_path, 0, cache_path, warm, &warm_stats);
  if (cold.str() != warm.str() || cold.str().empty()) {
    std::cerr << "gate: FAIL — warm-cache replay differs from cold replay\n";
    ok = false;
  } else if (warm_stats.cache_hits < warm_stats.ok ||
             warm_stats.restored == 0) {
    std::cerr << "gate: FAIL — warm replay restored " << warm_stats.restored
              << " entries and hit on " << warm_stats.cache_hits << "/"
              << warm_stats.ok << " requests (want all)\n";
    ok = false;
  } else {
    std::cerr << "gate: ok — warm replay bit-identical, " << warm_stats.restored
              << " entries restored, " << warm_stats.cache_hits << "/"
              << warm_stats.ok << " cache hits\n";
  }

  // 3. Throughput: the pool should beat one worker — only meaningful on
  //    real multicore hardware and without sanitizer overhead.
  const unsigned hw = std::thread::hardware_concurrency();
  if (hw >= 4 && !cli::kSanitized) {
    double best = 0.0;
    for (int rep = 0; rep < 3; ++rep) {
      std::ostringstream sink1, sink4;
      const double s1 = timed_replay(requests_path, 1, "", sink1);
      const double s4 = timed_replay(requests_path, 4, "", sink4);
      if (s4 > 0.0) best = std::max(best, s1 / s4);
    }
    if (best < 1.5) {
      std::cerr << "gate: FAIL — jobs=4 replay only " << best
                << "x faster than jobs=1 (want >= 1.5x)\n";
      ok = false;
    } else {
      std::cerr << "gate: ok — jobs=4 replay " << best << "x faster\n";
    }
  } else {
    std::cerr << "gate: skip — throughput check needs >= 4 hardware threads"
              << " and an unsanitized build (have " << hw
              << (cli::kSanitized ? ", sanitized" : "") << ")\n";
  }

  std::remove(requests_path.c_str());
  std::remove(cache_path.c_str());
  std::cerr << (ok ? "gate: PASS\n" : "gate: FAIL\n");
  return ok ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  if (cli::handle_standard_flags(argc, argv, kTool, std::cout)) return 0;
  const int jobs_applied = cli::apply_jobs_flag(argc, argv);

  Options opt;
  bool shards_set = false;
  bool stdio_set = false;
  bool max_body_set = false;
  if (jobs_applied > 0) opt.svc.jobs = jobs_applied;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto value = [&](const char* prefix) {
      return arg.substr(std::string(prefix).size());
    };
    if (arg.rfind("--listen=", 0) == 0) {
      // Validate the listener by name: an unrecognised value must be a
      // usage error, never silently treated as stdio.
      const std::string listener = value("--listen=");
      if (listener == "stdio") {
        opt.tcp = false;
        stdio_set = true;
      } else if (listener.rfind("tcp:", 0) == 0) {
        std::size_t port = 0;
        if (!parse_size(listener.substr(4), port) || port > 65535) {
          return usage_error("bad --listen port in '" + arg +
                             "' (want tcp:0..65535)");
        }
        opt.tcp = true;
        opt.net.port = static_cast<std::uint16_t>(port);
      } else {
        return usage_error("unknown --listen value '" + listener +
                           "' (want stdio or tcp:PORT)");
      }
    } else if (arg.rfind("--http=", 0) == 0) {
      const std::string listener = value("--http=");
      if (listener.rfind("tcp:", 0) != 0) {
        return usage_error("unknown --http value '" + listener +
                           "' (want tcp:PORT)");
      }
      std::size_t port = 0;
      if (!parse_size(listener.substr(4), port) || port > 65535) {
        return usage_error("bad --http port in '" + arg +
                           "' (want tcp:0..65535)");
      }
      opt.http = true;
      opt.net.http = true;
      opt.net.http_port = static_cast<std::uint16_t>(port);
    } else if (arg.rfind("--max-body=", 0) == 0) {
      if (!parse_size(value("--max-body="), opt.net.max_body_bytes) ||
          opt.net.max_body_bytes == 0) {
        return usage_error("bad --max-body value '" + arg +
                           "' (want bytes >= 1)");
      }
      max_body_set = true;
    } else if (arg.rfind("--shards=", 0) == 0) {
      std::size_t shards = 0;
      if (!parse_size(value("--shards="), shards) || shards > 256) {
        return usage_error("bad --shards value '" + arg + "' (want 0..256)");
      }
      if (shards == 0) {
        // Auto: one loop per core is overkill for a line protocol —
        // clamp at 4, the point where accept fan-out stops mattering.
        shards = std::min<std::size_t>(
            static_cast<std::size_t>(engine::hardware_jobs()), 4);
      }
      opt.net.shards = shards;
      shards_set = true;
    } else if (arg.rfind("--jobs=", 0) == 0) {
      // consumed by cli::apply_jobs_flag above
    } else if (arg.rfind("--replay=", 0) == 0) {
      opt.replay_path = value("--replay=");
    } else if (arg.rfind("--out=", 0) == 0) {
      opt.out_path = value("--out=");
    } else if (arg.rfind("--cache-file=", 0) == 0) {
      opt.svc.cache_file = value("--cache-file=");
    } else if (arg.rfind("--cache-capacity=", 0) == 0) {
      if (!parse_size(value("--cache-capacity="), opt.svc.cache_capacity)) {
        return usage_error("bad --cache-capacity value '" + arg + "'");
      }
    } else if (arg.rfind("--cache-max-entries=", 0) == 0) {
      if (!parse_size(value("--cache-max-entries="),
                      opt.svc.cache_max_entries)) {
        return usage_error("bad --cache-max-entries value '" + arg + "'");
      }
    } else if (arg.rfind("--idle-timeout-ms=", 0) == 0) {
      try {
        opt.net.idle_timeout_ms = std::stod(value("--idle-timeout-ms="));
      } catch (const std::exception&) {
        return usage_error("bad --idle-timeout-ms value '" + arg + "'");
      }
      if (opt.net.idle_timeout_ms < 0) {
        return usage_error("--idle-timeout-ms must be >= 0");
      }
    } else if (arg.rfind("--header-timeout-ms=", 0) == 0) {
      try {
        opt.net.header_timeout_ms = std::stod(value("--header-timeout-ms="));
      } catch (const std::exception&) {
        return usage_error("bad --header-timeout-ms value '" + arg + "'");
      }
      if (opt.net.header_timeout_ms < 0) {
        return usage_error("--header-timeout-ms must be >= 0");
      }
    } else if (arg.rfind("--queue=", 0) == 0) {
      if (!parse_size(value("--queue="), opt.svc.queue_capacity)) {
        return usage_error("bad --queue value '" + arg + "'");
      }
    } else if (arg.rfind("--timeout-ms=", 0) == 0) {
      try {
        opt.svc.default_timeout_ms = std::stod(value("--timeout-ms="));
      } catch (const std::exception&) {
        return usage_error("bad --timeout-ms value '" + arg + "'");
      }
      if (opt.svc.default_timeout_ms < 0) {
        return usage_error("--timeout-ms must be >= 0");
      }
    } else if (arg.rfind("--checkpoint-every=", 0) == 0) {
      if (!parse_size(value("--checkpoint-every="),
                      opt.svc.checkpoint_every)) {
        return usage_error("bad --checkpoint-every value '" + arg + "'");
      }
    } else if (arg == "--no-lint") {
      opt.svc.lint_admission = false;
    } else if (arg == "--no-live-fields") {
      opt.svc.live_fields = false;
    } else if (arg == "--metrics") {
      opt.metrics = true;
    } else if (arg.rfind("--metrics=", 0) == 0) {
      opt.metrics = true;
      opt.metrics_path = value("--metrics=");
    } else if (arg == "--gate") {
      opt.gate = true;
    } else {
      return usage_error("unknown argument '" + arg + "'");
    }
  }

  if (shards_set && !opt.tcp && !opt.http) {
    return usage_error(
        "--shards only applies to --listen=tcp:PORT or --http=tcp:PORT");
  }
  if (stdio_set && opt.http) {
    return usage_error(
        "--listen=stdio and --http are mutually exclusive (stdio serves "
        "exactly one pipe; pick --listen=tcp:PORT to serve both protocols)");
  }
  if (max_body_set && !opt.http) {
    return usage_error("--max-body only applies to --http=tcp:PORT");
  }
  if (opt.http && !opt.replay_path.empty()) {
    return usage_error("--replay and --http are mutually exclusive");
  }
  // HTTP-only processes do not bind the raw JSON-lines port at all.
  opt.net.json_listener = opt.tcp;

  if (opt.gate) return run_gate();

  obs::set_metrics_enabled(true);

  // --out: the replay writes a stream, the stdio connection an fd.
  std::ofstream out_file;
  int out_fd = STDOUT_FILENO;
  if (!opt.out_path.empty()) {
    if (opt.replay_path.empty()) {
      out_fd = ::open(opt.out_path.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
    } else {
      out_file.open(opt.out_path);
    }
    if (out_fd < 0 || !out_file.good()) {
      return usage_error("cannot open --out file '" + opt.out_path + "'");
    }
  }
  std::ostream& out = opt.out_path.empty() ? std::cout : out_file;

  int status = 0;
  std::string metrics;  ///< the --metrics dump, rendered before teardown
  {
    serve::Service svc(opt.svc);
    svc.start(std::cerr);
    if (!opt.replay_path.empty()) {
      try {
        std::cerr << svc.replay(opt.replay_path, out, std::cerr);
      } catch (const std::exception& e) {
        std::cerr << "rvhpc-serve: " << e.what() << "\n";
        status = 2;
      }
      metrics = obs::Registry::global().render_text() +
                svc.registry().render_text();
    } else {
      serve::install_shutdown_handlers();
      net::Server server(svc, opt.net);
      if (opt.tcp || opt.http) {
        try {
          server.open(std::cerr);
        } catch (const std::exception& e) {
          return usage_error(e.what());
        }
        server.run(std::cerr);
      } else {
        server.run_stdio(STDIN_FILENO, out_fd, std::cerr);
      }
      metrics = server.render_metrics();
    }
  }
  if (out_fd != STDOUT_FILENO) ::close(out_fd);

  if (opt.metrics && status == 0) {
    if (opt.metrics_path.empty()) {
      std::cerr << metrics;
    } else {
      std::ofstream m(opt.metrics_path);
      m << metrics;
      if (!m.good()) {
        std::cerr << "rvhpc-serve: cannot write --metrics file '"
                  << opt.metrics_path << "'\n";
        status = 2;
      }
    }
  }
  return status;
}
