// rvbench — the rvhpc benchmark program.
//
//   rvbench --workload <wire_hot|http_cold|sweep_batch> --seed N
//           --seconds S --trace <0|1> --work DIR [--commit C]
//
// Normally started through perfbench/run.py, which builds this binary.
// With --trace 0 it prints the end-to-end metrics, with --trace 1 the
// per-layer metrics of a separate traced run; the last stdout line is
// always the one-object JSON result.  perfbench/README.md documents every
// workload and metric.

#include <sched.h>
#include <time.h>
#include <sys/prctl.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <functional>
#include <iostream>
#include <map>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "arch/registry.hpp"
#include "check.hpp"
#include "engine/batch.hpp"
#include "engine/cache.hpp"
#include "gen.hpp"
#include "load.hpp"
#include "model/predictor.hpp"
#include "model/signatures.hpp"
#include "net/net.hpp"
#include "obs/metrics.hpp"
#include "probes.hpp"
#include "serve/persist.hpp"
#include "serve/service.hpp"
#include "stats.hpp"
#include "trace.hpp"

namespace fs = std::filesystem;
using namespace rvbench;

namespace {

/// Full start-ups timed per run for `setup_s`.
constexpr int kSetups = 15;
/// Ratio between successive offered rates of the max-rate search.
constexpr double kSearchFactor = 1.15;

/// A workload's offered rates (items or evaluate() calls per second) and
/// latency limit, chosen from measurements on a 4-thread x86-64 host.
struct Rates {
  double low;           ///< 0: closed loop (sweep_batch)
  double high;
  double limit_us;      ///< p99 limit of the max-rate search
  double search_start;  ///< first offered rate of the search
};

Rates rates_for(WorkloadKind w) {
  switch (w) {
    case WorkloadKind::WireHot: return {5000, 20000, 50000, 30000};
    case WorkloadKind::HttpCold: return {200, 500, 200000, 500};
    case WorkloadKind::SweepBatch: return {0, 500, 25000, 600};
  }
  throw std::logic_error("unknown workload");
}

struct Args {
  WorkloadKind workload = WorkloadKind::WireHot;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string work = ".bench_work";
  std::string commit = "unknown";
  Rates rates{};
};

Args parse_args(int argc, char** argv) {
  std::map<std::string, std::string> kv;
  for (int i = 1; i < argc; ++i) {
    std::string a = argv[i];
    if (a.rfind("--", 0) != 0) throw std::invalid_argument("bad argument " + a);
    const std::size_t eq = a.find('=');
    if (eq != std::string::npos) {
      kv[a.substr(2, eq - 2)] = a.substr(eq + 1);
    } else if (i + 1 < argc) {
      kv[a.substr(2)] = argv[++i];
    } else {
      throw std::invalid_argument("missing value for " + a);
    }
  }
  Args args;
  const auto get = [&](const char* k) -> const std::string* {
    const auto it = kv.find(k);
    return it == kv.end() ? nullptr : &it->second;
  };
  if (const auto* v = get("workload")) args.workload = parse_workload(*v);
  if (const auto* v = get("seed")) args.seed = std::stoull(*v);
  if (const auto* v = get("seconds")) args.seconds = std::stod(*v);
  if (const auto* v = get("trace")) args.trace = *v == "1";
  if (const auto* v = get("work")) args.work = *v;
  if (const auto* v = get("commit")) args.commit = *v;
  if (!get("workload") || !(args.seconds > 0)) {
    throw std::invalid_argument("--workload and --seconds (> 0) are required");
  }
  args.rates = rates_for(args.workload);
  return args;
}

int nproc() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) != 0) return 1;
  return std::max(1, CPU_COUNT(&set));
}

/// CPU seconds of `clock` (the whole process, or the calling thread).
double cpu_s(clockid_t clock) {
  timespec ts{};
  clock_gettime(clock, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

double peak_rss_mib() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB on Linux
}

/// Peak resident set so far of process `pid` (VmHWM), in MiB.
double peak_rss_mib(pid_t pid) {
  std::ifstream f("/proc/" + std::to_string(pid) + "/status");
  std::string key;
  double kib = 0.0;
  while (f >> key) {
    if (key == "VmHWM:") {
      f >> kib;
      return kib / 1024.0;
    }
    f.ignore(1 << 20, '\n');
  }
  throw std::runtime_error("no VmHWM for process " + std::to_string(pid));
}

/// Everything a run reports, in print order.
class Report {
 public:
  void metric(const std::string& name, double value, const std::string& unit,
              std::size_t samples) {
    metrics_.push_back({name, value, unit, samples});
  }
  /// A figure printed and kept in the result file but not gated.
  void figure(const std::string& name, double value, const std::string& unit,
              std::size_t samples) {
    figures_.push_back({name, value, unit, samples});
  }
  void note(const std::string& line) { notes_.push_back(line); }
  void count(std::uint64_t attempted, std::uint64_t failed) {
    attempted_ += attempted;
    failed_ += failed;
  }
  void set_incorrect(const std::string& why) {
    correct_ = false;
    note("INCORRECT: " + why);
  }

  [[nodiscard]] std::string json() const {
    std::ostringstream os;
    os << "{\"correct\": " << (correct_ && failed_ == 0 ? "true" : "false")
       << ", \"attempted\": " << std::max<std::uint64_t>(1, attempted_)
       << ", \"failed\": " << failed_ << ", \"metrics\": " << object(metrics_)
       << "}";
    return os.str();
  }

  /// The ungated figures as one JSON object.
  [[nodiscard]] std::string figures_json() const { return object(figures_); }

  void print(std::ostream& out) const {
    for (const auto& n : notes_) out << n << "\n";
    char buf[256];
    const auto table = [&](const std::vector<Metric>& ms) {
      for (const auto& m : ms) {
        std::snprintf(buf, sizeof(buf), "  %-32s %16.6g %-6s n=%zu\n",
                      m.name.c_str(), m.value, m.unit.c_str(), m.samples);
        out << buf;
      }
    };
    out << "metrics:\n";
    table(metrics_);
    out << "reported, not gated:\n";
    table(figures_);
    std::snprintf(buf, sizeof(buf), "  %-32s %16.6g %-6s n=%llu\n", "fail_ratio",
                  attempted_ ? static_cast<double>(failed_) /
                                   static_cast<double>(attempted_)
                             : 0.0,
                  "ratio", static_cast<unsigned long long>(attempted_));
    out << buf;
  }

 private:
  struct Metric {
    std::string name;
    double value;
    std::string unit;
    std::size_t samples;
  };
  static std::string object(const std::vector<Metric>& ms) {
    std::ostringstream os;
    os.precision(10);
    os << "{";
    for (std::size_t i = 0; i < ms.size(); ++i) {
      os << (i ? ", " : "") << "\"" << ms[i].name << "\": {\"value\": "
         << (std::isfinite(ms[i].value) ? ms[i].value : 0.0) << ", \"unit\": \""
         << ms[i].unit << "\"}";
    }
    os << "}";
    return os.str();
  }

  std::vector<Metric> metrics_;
  std::vector<Metric> figures_;
  std::vector<std::string> notes_;
  std::uint64_t attempted_ = 0, failed_ = 0;
  bool correct_ = true;
};

std::string context_json(const Args& a, int procs) {
  const bool release = std::string(RVBENCH_BUILD_TYPE) == "Release";
  const bool sanitized = std::string(RVBENCH_SANITIZER) != "none";
  std::ostringstream os;
  os << "{\"workload\": \"" << to_string(a.workload) << "\", \"seed\": " << a.seed
     << ", \"seconds\": " << a.seconds << ", \"trace\": " << (a.trace ? 1 : 0)
     << ", \"nproc\": " << procs << ", \"hardware_threads\": "
     << std::thread::hardware_concurrency() << ", \"build_type\": \""
     << RVBENCH_BUILD_TYPE << "\", \"compiler\": \"" << RVBENCH_COMPILER
     << "\", \"sanitizer\": \"" << RVBENCH_SANITIZER << "\", \"commit\": \""
     << a.commit << "\", \"comparable\": "
     << (release && !sanitized ? "true" : "false") << "}";
  return os.str();
}

std::string phase_line(const Phase& p, const Tally& t) {
  char buf[512];
  std::snprintf(
      buf, sizeof(buf),
      "phase %-10s rate=%9.1f/s sched=%5.2fs items=%llu sent=%llu ok=%llu "
      "refused=%llu failed=%llu wrong=%llu p50=%.1fus p99=%.1fus "
      "lag_p99=%.1fus%s",
      p.name.c_str(), p.rate, p.seconds,
      static_cast<unsigned long long>(t.items),
      static_cast<unsigned long long>(t.sent),
      static_cast<unsigned long long>(t.ok),
      static_cast<unsigned long long>(t.refused),
      static_cast<unsigned long long>(t.failed),
      static_cast<unsigned long long>(t.wrong), percentile(p.latency_us, 0.5),
      percentile(p.latency_us, 0.99), percentile(p.lag_us, 0.99),
      p.drained ? "" : " NOT-DRAINED");
  return buf;
}

/// Fixed-rate phases run as this many interleaved slices.
constexpr int kSlices = 5;

/// Latency quantiles as reported: the median over time windows of at
/// least 1000 samples (ten beyond the p99) of each window's quantile.
double reported(const std::vector<double>& latency_us, double q) {
  return windowed_percentile(latency_us, q, 1000);
}

/// A search step's p99 for its pass/fail verdict: windows of 500.
double step_p99(const std::vector<double>& latency_us) {
  return windowed_percentile(latency_us, 0.99, 500);
}

/// One search step's verdict against the latency limit.
struct Step {
  double rate = 0.0;
  double p99 = 0.0;
  bool pass = false;
};

/// The highest offered rate meeting the limit: the last passing step,
/// interpolated (log-log) toward the first failing one by where its p99
/// crosses the limit.
double max_rate(const std::vector<Step>& steps, double limit) {
  std::size_t fail = 0;
  while (fail < steps.size() && steps[fail].pass) ++fail;
  if (fail == steps.size()) return steps.empty() ? 0.0 : steps.back().rate;
  const Step& bad = steps[fail];
  const double bad_p99 = std::max(bad.p99, limit * 2.0);
  if (fail == 0) return bad.rate * std::min(1.0, limit / bad_p99);
  const Step& ok = steps[fail - 1];
  double f = std::log(limit / std::max(ok.p99, 1e-9)) /
             std::log(bad_p99 / std::max(ok.p99, 1e-9));
  f = std::clamp(f, 0.0, 1.0);
  return ok.rate * std::pow(bad.rate / ok.rate, f);
}

/// Offered-rate search: search_start × kSearchFactor^k for up to 8 steps,
/// stopping at the first step that fails the limit twice in a row (one
/// retry absorbs a single host stall).  `run(rate, name)` runs one step.
template <typename RunStep>
std::vector<Step> search(const Args& a, RunStep&& run) {
  std::vector<Step> steps;
  double rate = a.rates.search_start;
  for (int k = 0; k < 8; ++k, rate *= kSearchFactor) {
    Step st = run(rate, "search" + std::to_string(k));
    if (!st.pass) {
      const Step again = run(rate, "search" + std::to_string(k) + "r");
      if (again.pass || again.p99 < st.p99) st = again;
    }
    steps.push_back(st);
    if (!st.pass) break;
  }
  return steps;
}

// --- served workloads -------------------------------------------------------

/// A running Service + net::Server pair.
struct Served {
  std::unique_ptr<rvhpc::serve::Service> svc;
  std::unique_ptr<rvhpc::net::Server> server;
  std::thread thread;
  std::ostringstream log;         ///< start-up, caller's thread
  std::ostringstream thread_log;  ///< run(); read only after stop()
  std::uint16_t port = 0;
  std::uint16_t http_port = 0;

  ~Served() { stop(); }
  void stop() {
    if (thread.joinable()) {
      server->stop();
      thread.join();
    }
  }
};

/// Pool workers of a server with one event-loop shard, so that the
/// generator thread, the shard and the pool stay within nproc.
int pool_jobs(int procs) { return std::max(1, procs - 2); }

struct Listeners {
  bool raw = true;
  bool http = false;
};

/// Starts a Service (restoring `cache_file` when given) behind a one-shard
/// net::Server on ephemeral ports, and waits until it answers.
std::unique_ptr<Served> start_server(Listeners listen,
                                     const std::string& cache_file, int procs,
                                     const std::string& probe_line,
                                     double* restore_s) {
  auto s = std::make_unique<Served>();
  rvhpc::serve::Service::Options so;
  so.jobs = pool_jobs(procs);
  so.cache_file = cache_file;
  s->svc = std::make_unique<rvhpc::serve::Service>(so);
  const double r0 = now_us();
  (void)s->svc->start(s->log);
  if (restore_s) *restore_s = (now_us() - r0) * 1e-6;
  rvhpc::net::ServerOptions no;
  no.json_listener = listen.raw;
  no.http = listen.http;
  s->server = std::make_unique<rvhpc::net::Server>(*s->svc, no);
  s->server->open(s->log);
  s->port = s->server->port();
  s->http_port = s->server->http_port();
  s->thread = std::thread([srv = s->server.get(), log = &s->thread_log] {
    srv->run(*log);
  });
  if (listen.raw) {
    await_ready(Wire::Raw, s->port, probe_line);
  } else {
    await_ready(Wire::Http, s->http_port, probe_line);
  }
  return s;
}

/// Runs `fn` in a child process and waits for it, so that what `fn`
/// allocates never enters the memory that server children inherit (and
/// count toward their peak).  Call before any thread is started.
void in_child(const std::function<void()>& fn) {
  std::cout.flush();
  const pid_t pid = fork();
  if (pid < 0) throw std::runtime_error("fork() failed");
  if (pid == 0) {
    int rc = 0;
    try {
      fn();
    } catch (const std::exception& e) {
      std::cerr << "rvbench: " << e.what() << "\n";
      rc = 1;
    }
    std::_Exit(rc);
  }
  int status = 0;
  if (waitpid(pid, &status, 0) != pid || !WIFEXITED(status) ||
      WEXITSTATUS(status) != 0) {
    throw std::runtime_error("child process failed");
  }
}

/// A server started in a child process, so that its peak resident set
/// (VmHWM) is the server's own: at ready, and later across whatever load
/// it serves.  Construct only while this process runs no other thread.
class ChildServer {
 public:
  ChildServer(Listeners listen, const std::string& cache_file, int procs,
              const std::string& probe_line) {
    int up[2], down[2];
    if (::pipe(up) != 0 || ::pipe(down) != 0) throw std::runtime_error("pipe() failed");
    std::cout.flush();
    pid_ = fork();
    if (pid_ < 0) throw std::runtime_error("fork() failed");
    if (pid_ == 0) {
      ::close(up[0]);
      ::close(down[1]);
      int rc = 1;
      try {
        double restore = 0.0;
        const double t0 = now_us();
        auto s = start_server(listen, cache_file, procs, probe_line, &restore);
        const double setup = (now_us() - t0) * 1e-6;
        char buf[160];
        const int n = std::snprintf(
            buf, sizeof(buf), "%u %.9g %.9g %.9g %llu\n",
            static_cast<unsigned>(listen.raw ? s->port : s->http_port), setup, restore,
            peak_rss_mib(getpid()), static_cast<unsigned long long>(s->svc->stats().restored));
        if (::write(up[1], buf, static_cast<std::size_t>(n)) == n) {
          char c;
          while (::read(down[0], &c, 1) > 0) {
          }  // until the parent closes its end
          s->stop();
          rc = 0;
        }
      } catch (const std::exception& e) {
        std::cerr << "rvbench: server: " << e.what() << "\n";
      }
      std::_Exit(rc);
    }
    ::close(up[1]);
    ::close(down[0]);
    stop_fd_ = down[1];
    std::string line;
    char c;
    while (::read(up[0], &c, 1) == 1 && c != '\n') line.push_back(c);
    ::close(up[0]);
    std::istringstream is(line);
    unsigned p = 0;
    if (!(is >> p >> setup_s >> restore_s >> ready_rss_mib >> restored)) {
      finish();
      throw std::runtime_error("server child did not start");
    }
    port = static_cast<std::uint16_t>(p);
  }
  ~ChildServer() {
    try {
      if (pid_ > 0) finish();
    } catch (const std::exception&) {
    }
  }
  ChildServer(const ChildServer&) = delete;
  ChildServer& operator=(const ChildServer&) = delete;

  /// Stops the server and waits for the child.
  void finish() {
    if (stop_fd_ >= 0) ::close(stop_fd_);
    stop_fd_ = -1;
    const pid_t pid = pid_;
    pid_ = -1;
    int status = 0;
    if (pid <= 0 || waitpid(pid, &status, 0) != pid || !WIFEXITED(status) ||
        WEXITSTATUS(status) != 0) {
      throw std::runtime_error("server child failed");
    }
  }
  [[nodiscard]] pid_t pid() const { return pid_; }

  std::uint16_t port = 0;
  double setup_s = 0.0, restore_s = 0.0;
  double ready_rss_mib = 0.0;  ///< peak resident set through set-up
  unsigned long long restored = 0;

 private:
  pid_t pid_ = -1;
  int stop_fd_ = -1;
};

/// Writes the cache file the served workload restores at start-up.
/// wire_hot: a previous server's answers to every hot key (so nearly every
/// request hits).  http_cold: a full cache of other clients' entries, so
/// every put evicts from the start.
void write_cache_file(WorkloadKind w, const Generator& gen, std::uint64_t seed,
                      const std::string& path) {
  if (w == WorkloadKind::WireHot) {
    const std::string lines = path + ".keys.jsonl";
    {
      std::ofstream f(lines);
      for (std::size_t i = 0; i < gen.hot().size(); ++i) {
        f << render_line(gen.hot()[i], "k" + std::to_string(i)) << "\n";
      }
    }
    rvhpc::serve::Service::Options so;
    so.cache_file = path;
    rvhpc::serve::Service svc(so);
    std::ostringstream out, log;
    (void)svc.replay(lines, out, log);
    svc.flush(log);
    return;
  }
  rvhpc::engine::PredictionCache cache;
  const auto& m = rvhpc::arch::machine("sg2044");
  const auto p = rvhpc::model::predict(
      m, rvhpc::model::signature(rvhpc::model::Kernel::CG, rvhpc::model::ProblemClass::C),
      rvhpc::model::paper_run_config(m, rvhpc::model::Kernel::CG, 64));
  Rng rng(seed ^ 0x66696c6c);
  while (cache.size() < cache.capacity()) cache.put(rng.next(), p);
  (void)rvhpc::serve::save_cache(path, cache);
}

/// The per-layer metrics of a traced run, in print order; BENCHMARK.json's
/// per_layer list names exactly these.
const char* const kLayerMetrics[] = {
    "obs.json_parse_ns",      "engine.key_ns",
    "serve.admit_ns",         "obs.json_number_ns",
    "serve.complete_hit_ns",  "engine.cache_get_ns",
    "engine.cache_hit_ratio", "serve.hit_over_predict",
    "net.rtt_raw_us",         "serve.latency_us",
    "net.transit_us",         "http.parse_ns",
    "http.rtt_us",            "serve.admit_inline_ns",
    "serve.complete_miss_ns", "sim.predict_interval_us",
    "engine.cache_put_ns",    "engine.cache_evictions",
    "net.dispatch_ratio",     "model.predict_ns",
    "engine.evaluate_ns_per_req", "engine.pool_speedup",
    "engine.pool_overhead_ns_per_req", "serve.restore_s",
    "bench.gen_lag_p99_us",   "bench.trace_overhead_ratio",
};

/// Writes the spans, prints their self times and reports `layers` in the
/// canonical order.
void finish_trace(const Args& a, const SpanBuffer& spans,
                  const std::vector<LayerValue>& layers, Report& rep) {
  const std::string path = a.work + "/trace-" + to_string(a.workload) + "-" +
                           std::to_string(a.seed) + ".json";
  spans.write_json(path);
  rep.note("spans: " + std::to_string(spans.size()) + " written to " + path);
  for (const auto& [name, lt] : spans.layer_times()) {
    char buf[256];
    std::snprintf(buf, sizeof(buf),
                  "span %-24s spans=%-7llu calls=%-8llu total=%10.1fus "
                  "self=%10.1fus self/call=%9.1fns",
                  name.c_str(), static_cast<unsigned long long>(lt.spans),
                  static_cast<unsigned long long>(lt.calls), lt.total_us,
                  lt.self_us, lt.self_ns_per_call());
    rep.note(buf);
  }
  for (const char* name : kLayerMetrics) {
    const auto it = std::find_if(layers.begin(), layers.end(),
                                 [&](const LayerValue& v) { return v.name == name; });
    if (it == layers.end()) {
      throw std::logic_error(std::string("layer metric not measured: ") + name);
    }
    rep.metric(it->name, it->value, it->unit, it->samples);
  }
}

/// Tallies phases against the reference into the report; returns the
/// tally over all of them.
Tally account(const LoadClient& client, const std::vector<Phase>& phases, Report& rep) {
  Tally all;
  for (const Phase& p : phases) {
    const Tally t = client.tally(p);
    rep.note(phase_line(p, t));
    all.items += t.items;
    all.batch_items += t.batch_items;
    all.sent += t.sent;
    all.ok += t.ok;
    all.refused += t.refused;
    all.failed += t.failed;
    all.wrong += t.wrong;
    all.hits += t.hits;
    all.inline_lines += t.inline_lines;
    all.interval_lines += t.interval_lines;
    if (t.wrong) {
      rep.set_incorrect(std::to_string(t.wrong) + " wrong answers in " + p.name);
    }
  }
  rep.count(all.sent, all.bad() + client.stray());
  return all;
}

/// Round trips of already-cached requests on a fresh server with both
/// listeners: the transport cost of one answer on each wire.  `served`
/// receives the served-path layers of these exchanges (used by the
/// workload that has no served phase of its own).
std::vector<LayerValue> wire_probes(const Args& a, const std::vector<Spec>& specs,
                                    int procs, SpanBuffer& spans, Report& rep,
                                    std::vector<LayerValue>* served) {
  auto srv = start_server({true, true}, "", procs,
                          render_line(specs.front(), "ready"), nullptr);
  Reference ref;
  LoadClient raw(Wire::Raw, srv->port, 1, ref);
  LoadClient http(Wire::Http, srv->http_port, 1, ref);
  std::vector<Item> cold, warm;
  for (const Spec& s : specs) cold.push_back(Item{{s}});
  const std::size_t reps = std::max<std::size_t>(2, 2048 / specs.size());
  for (std::size_t r = 0; r < reps; ++r) warm.insert(warm.end(), cold.begin(), cold.end());
  const auto net0 = srv->server->stats();
  std::vector<Phase> raw_phases;
  raw_phases.push_back(raw.closed_loop("rtt.cold", cold, nullptr));
  raw_phases.push_back(raw.closed_loop("rtt.raw", warm, &spans));
  std::vector<Phase> http_phases;
  http_phases.push_back(http.closed_loop("rtt.http", warm, &spans));
  const auto net1 = srv->server->stats();
  const double hits = static_cast<double>(srv->svc->cache().hits());
  const double misses = static_cast<double>(srv->svc->cache().misses());
  const double evictions = static_cast<double>(srv->svc->cache().evictions());
  srv->stop();
  ref.build(a.work, procs);
  (void)account(raw, raw_phases, rep);
  (void)account(http, http_phases, rep);

  const Phase& rt = raw_phases[1];
  std::vector<LayerValue> out;
  out.push_back({"net.rtt_raw_us", median(rt.latency_us), "us", rt.latency_us.size()});
  out.push_back({"http.rtt_us", median(http_phases[0].latency_us), "us",
                 http_phases[0].latency_us.size()});
  if (served) {
    std::vector<double> server_us, transit_us;
    for (const Phase& p : raw_phases) {
      for (std::size_t l = p.first_line; l < p.end_line; ++l) {
        const LineRec& r = raw.lines()[l];
        const Exchange& ex = raw.exchanges()[r.exchange];
        if (r.server_us < 0 || ex.done_us == 0.0) continue;
        server_us.push_back(r.server_us);
        transit_us.push_back(ex.done_us - ex.sent_us - r.server_us);
      }
    }
    const double answered = static_cast<double>(net1.answered - net0.answered);
    served->push_back({"engine.cache_hit_ratio",
                       hits + misses > 0 ? hits / (hits + misses) : 0.0, "ratio",
                       static_cast<std::size_t>(hits + misses)});
    served->push_back({"engine.cache_evictions", evictions, "count", 1});
    served->push_back({"net.dispatch_ratio",
                       answered > 0 ? static_cast<double>(net1.dispatched - net0.dispatched) /
                                          answered
                                    : 0.0,
                       "ratio", static_cast<std::size_t>(answered)});
    served->push_back({"serve.latency_us", median(server_us), "us", server_us.size()});
    served->push_back({"net.transit_us", median(transit_us), "us", transit_us.size()});
  }
  return out;
}

void report_mix(Report& rep, const std::string& phase, const Tally& t) {
  const auto share = [](std::uint64_t a, std::uint64_t b) {
    return b ? static_cast<double>(a) / static_cast<double>(b) : 0.0;
  };
  char buf[256];
  std::snprintf(buf, sizeof(buf),
                "mix %-10s hit_share=%.4f interval_share=%.4f "
                "inline_share=%.4f batch_share=%.4f",
                phase.c_str(), share(t.hits, t.ok), share(t.interval_lines, t.sent),
                share(t.inline_lines, t.sent), share(t.batch_items, t.items));
  rep.note(buf);
}

void run_served(const Args& a, int procs, Report& rep) {
  const Rates& r = a.rates;
  const Wire wire = a.workload == WorkloadKind::HttpCold ? Wire::Http : Wire::Raw;
  const Listeners listen{wire == Wire::Raw, wire == Wire::Http};
  Generator gen(a.workload, a.seed);
  const std::string pristine = a.work + "/cache.pristine.bin";
  const std::string live = a.work + "/cache.live.bin";
  in_child([&] { write_cache_file(a.workload, gen, a.seed, pristine); });
  const std::string probe_line =
      gen.hot().empty() ? std::string() : render_line(gen.hot()[0], "ready");

  // Set-up: cache restore, listener open, first answer — each start in a
  // fresh child process.  The untraced run keeps the last one running as
  // the server under load.
  std::vector<double> setup_s, restore_s, ready_rss;
  std::unique_ptr<ChildServer> child;
  for (int i = 0; i < kSetups; ++i) {
    if (child) child->finish();
    fs::copy_file(pristine, live, fs::copy_options::overwrite_existing);
    child = std::make_unique<ChildServer>(listen, live, procs, probe_line);
    setup_s.push_back(child->setup_s);
    restore_s.push_back(child->restore_s);
    ready_rss.push_back(child->ready_rss_mib);
  }
  {
    char buf[160];
    std::snprintf(buf, sizeof(buf),
                  "server: shards=1 pool=%d generator=1 connections=%d "
                  "restored=%llu",
                  pool_jobs(procs), procs, child->restored);
    rep.note(buf);
  }

  Reference ref;
  SpanBuffer spans;
  const double S = a.seconds;
  const double drain = 3.0;
  std::vector<Phase> phases;
  std::vector<Step> steps;

  // Every measured phase opens with an unmeasured lead-in at its own
  // rate, which brings connections, server and host back to steady state
  // after the pause in which the phase's requests were rendered.
  const double lead_s = 0.01 * S;
  std::vector<double> low_all, high_all;
  double server_cpu_s = 0.0, served_lines = 0.0, peak_rss = 0.0;
  Phase* traced = nullptr;
  rvhpc::net::ServerStats net0, net1;
  std::uint64_t hits0 = 0, miss0 = 0, evict0 = 0;
  double hit_ratio = 0.0, evictions = 0.0;
  std::unique_ptr<LoadClient> client;
  if (!a.trace) {
    client = std::make_unique<LoadClient>(wire, child->port, procs, ref);
    clockid_t server_cpu{};
    if (clock_getcpuclockid(child->pid(), &server_cpu) != 0) {
      throw std::runtime_error("cannot read the server's CPU clock");
    }
    // The fixed rates run as interleaved slices spread over the run, so a
    // stretch of host noise lands on both rates and on a minority of each
    // rate's samples.
    for (int k = 0; k < kSlices; ++k) {
      const std::string tag = std::to_string(k);
      const double cpu0 = cpu_s(server_cpu);
      phases.push_back(client->open_loop("low" + tag, gen, r.low, 0.05 * S, drain, nullptr,
                                         r.low, lead_s));
      const Phase& low = phases.back();
      low_all.insert(low_all.end(), low.latency_us.begin(), low.latency_us.end());
      served_lines += static_cast<double>(low.end_line - low.lead_line);
      phases.push_back(client->open_loop("high" + tag, gen, r.high, 0.05 * S, drain,
                                         nullptr, r.high, lead_s));
      server_cpu_s += cpu_s(server_cpu) - cpu0;
      const Phase& high = phases.back();
      served_lines += static_cast<double>(high.end_line - high.lead_line);
      high_all.insert(high_all.end(), high.latency_us.begin(), high.latency_us.end());
    }
    // The server's peak through set-up and the fixed-rate load (the
    // search's load depends on how fast the host is).
    peak_rss = peak_rss_mib(child->pid());
    const double step_s = 0.25 * S / 8;
    steps = search(a, [&](double rate, const std::string& name) {
      phases.push_back(client->open_loop(name, gen, rate, step_s, drain, nullptr));
      const Phase& p = phases.back();
      Step st;
      st.rate = rate;
      st.p99 = step_p99(p.latency_us);
      // Passing needs every answer, the p99 within the limit and no
      // growing backlog: the last answer lands within the limit of the
      // step's end.
      st.pass = p.drained &&
                p.latency_us.size() == p.end_exchange - p.first_exchange &&
                st.p99 <= r.limit_us &&
                p.elapsed_s <= step_s * 1.02 + r.limit_us * 1e-6;
      return st;
    });
    child->finish();
  } else {
    // The traced run needs the server's own counters: serve in-process.
    child->finish();
    fs::copy_file(pristine, live, fs::copy_options::overwrite_existing);
    auto served = start_server(listen, live, procs, probe_line, nullptr);
    client = std::make_unique<LoadClient>(
        wire, wire == Wire::Raw ? served->port : served->http_port, procs, ref);
    phases.push_back(client->open_loop("untraced", gen, r.low, 0.2 * S, drain, nullptr,
                                       r.low, lead_s));
    net0 = served->server->stats();
    hits0 = served->svc->cache().hits();
    miss0 = served->svc->cache().misses();
    evict0 = served->svc->cache().evictions();
    phases.push_back(client->open_loop("traced", gen, r.low, 0.2 * S, drain, &spans,
                                       r.low, lead_s));
    net1 = served->server->stats();
    const double dh = static_cast<double>(served->svc->cache().hits() - hits0);
    const double dm = static_cast<double>(served->svc->cache().misses() - miss0);
    hit_ratio = dh + dm > 0 ? dh / (dh + dm) : 0.0;
    evictions = static_cast<double>(served->svc->cache().evictions() - evict0);
    traced = &phases.back();
    served->stop();
  }

  // Correctness: every response against the same build's replay.
  ref.build(a.work, procs);
  const Tally all = account(*client, phases, rep);
  report_mix(rep, "all", all);
  rep.note("reference: " + std::to_string(ref.size()) + " distinct requests replayed");

  if (!a.trace) {
    rep.metric("setup_s", median(setup_s), "s", setup_s.size());
    rep.metric("cpu_us_per_pred", server_cpu_s * 1e6 / std::max(1.0, served_lines), "us",
               static_cast<std::size_t>(served_lines));
    rep.metric("ready_rss_mib", median(ready_rss), "MiB", ready_rss.size());
    rep.figure("peak_rss_mib", peak_rss, "MiB", 1);
    rep.figure("p50_us", reported(low_all, 0.5), "us", low_all.size());
    rep.figure("p99_us", reported(low_all, 0.99), "us", low_all.size());
    rep.figure("p50_us.high", reported(high_all, 0.5), "us", high_all.size());
    rep.figure("p99_us.high", reported(high_all, 0.99), "us", high_all.size());
    rep.figure("max_rate_rps", max_rate(steps, r.limit_us), "1/s", steps.size());
    return;
  }

  // Traced run: the served-path layers from the traced phase, then the
  // in-process probes on this workload's own request contents.
  const Phase& untraced = phases[0];
  std::vector<double> server_us, transit_us;
  for (std::size_t l = traced->first_line; l < traced->end_line; ++l) {
    const LineRec& rec = client->lines()[l];
    const Exchange& ex = client->exchanges()[rec.exchange];
    if (rec.server_us < 0 || ex.lines != 1 || ex.done_us == 0.0) continue;
    server_us.push_back(rec.server_us);
    transit_us.push_back(ex.done_us - ex.sent_us - rec.server_us);
  }
  std::vector<Spec> probe_specs;
  {
    Generator pg(a.workload, a.seed ^ 0x70726f6265ULL);
    Reference seen;
    while (probe_specs.size() < 128) {
      for (const Spec& s : pg.next().specs) {
        if (seen.intern(s) == probe_specs.size()) probe_specs.push_back(s);
      }
    }
  }
  const double answered = static_cast<double>(net1.answered - net0.answered);
  std::vector<LayerValue> layers = run_layer_probes(probe_specs, procs, spans);
  const auto rtt = wire_probes(a, probe_specs, procs, spans, rep, nullptr);
  layers.insert(layers.end(), rtt.begin(), rtt.end());
  layers.push_back({"engine.cache_hit_ratio", hit_ratio, "ratio",
                    traced->end_line - traced->first_line});
  layers.push_back({"engine.cache_evictions", evictions, "count", 1});
  layers.push_back({"net.dispatch_ratio",
                    answered > 0 ? static_cast<double>(net1.dispatched - net0.dispatched) / answered
                                 : 0.0,
                    "ratio", static_cast<std::size_t>(answered)});
  layers.push_back({"serve.latency_us", median(server_us), "us", server_us.size()});
  layers.push_back({"net.transit_us", median(transit_us), "us", transit_us.size()});
  layers.push_back({"serve.restore_s", median(restore_s), "s", restore_s.size()});
  layers.push_back({"bench.gen_lag_p99_us", percentile(traced->lag_us, 0.99), "us",
                    traced->lag_us.size()});
  layers.push_back({"bench.trace_overhead_ratio",
                    median(traced->latency_us) / std::max(1e-9, median(untraced.latency_us)),
                    "ratio", traced->latency_us.size()});
  finish_trace(a, spans, layers, rep);
}

// --- sweep_batch ------------------------------------------------------------

/// The paper sweep: hpc_machines() × npb_all() × power-of-two cores ×
/// {paper, flipped} vectorise, class C, analytic — in a seeded order.
std::vector<Spec> paper_sweep(std::uint64_t seed) {
  std::vector<Spec> specs;
  for (const auto id : rvhpc::arch::hpc_machines()) {
    const auto& m = rvhpc::arch::machine(id);
    for (const auto k : rvhpc::model::npb_all()) {
      for (int cores = 1; cores <= m.cores; cores *= 2) {
        const bool paper =
            rvhpc::model::paper_run_config(m, k, cores).compiler.vectorise;
        for (const int vec : {-1, paper ? 0 : 1}) {
          Spec s;
          s.machine = m.name;
          s.kernel = rvhpc::model::to_string(k);
          s.cls = "C";
          s.cores = cores;
          s.vectorise = vec;
          specs.push_back(std::move(s));
        }
      }
    }
  }
  Rng rng(seed ^ 0x7377656570ULL);
  for (std::size_t i = specs.size(); i > 1; --i) {
    std::swap(specs[i - 1], specs[rng.below(i)]);
  }
  return specs;
}

rvhpc::engine::RequestSet sweep_set(const std::vector<Spec>& specs) {
  rvhpc::engine::RequestSet set;
  for (const Spec& s : specs) {
    const auto& m = rvhpc::arch::machine(s.machine);
    const auto k = rvhpc::model::parse_kernel(s.kernel);
    auto cfg = rvhpc::model::paper_run_config(m, k, s.cores);
    if (s.vectorise >= 0) cfg.compiler.vectorise = s.vectorise != 0;
    set.add(m, rvhpc::model::signature(k, rvhpc::model::ProblemClass::C), cfg);
  }
  return set;
}

/// Runs evaluate() calls for one phase: back to back (rate 0, closed
/// loop) for `seconds`, or one due every 1/rate seconds (open loop,
/// latency from the due time).  Every result is compared bit for bit
/// with the jobs=1 reference; `mismatches` counts differing predictions.
Phase evaluate_phase(const std::string& name, rvhpc::engine::BatchEvaluator& ev,
                     const rvhpc::engine::RequestSet& set,
                     const std::vector<rvhpc::engine::PredictionResult>& reference,
                     double rate, double seconds, SpanBuffer* spans,
                     std::uint64_t& calls, std::uint64_t& mismatches) {
  Phase p;
  p.name = name;
  p.rate = rate;
  p.seconds = seconds;
  const std::uint32_t span_name = spans ? spans->name_id("engine.evaluate_call") : 0;
  const double t0 = now_us() + 1000.0;
  const double end = t0 + seconds * 1e6;
  for (std::size_t i = 0;; ++i) {
    double due = now_us();
    if (rate > 0.0) {
      due = t0 + static_cast<double>(i) * 1e6 / rate;
      if (due >= end) break;
      // Spin: waking from a sleep can take milliseconds on a busy host,
      // which would delay every later call of this single-caller queue.
      while (now_us() < due) {
      }
    } else if (due >= end && i > 0) {
      break;
    }
    const double start = now_us();
    const auto results = ev.evaluate(set);
    const double done = now_us();
    if (spans) spans->add(span_name, -1, i, due, done, 1);
    p.lag_us.push_back(start - due);
    p.latency_us.push_back(done - due);
    ++calls;
    for (std::size_t r = 0; r < results.size(); ++r) {
      if (results[r].index != reference[r].index ||
          !identical(results[r].prediction, reference[r].prediction)) {
        ++mismatches;
      }
    }
  }
  p.elapsed_s = (now_us() - t0) * 1e-6;
  return p;
}

void run_sweep(const Args& a, int procs, Report& rep) {
  const std::vector<Spec> specs = paper_sweep(a.seed);
  // Set-up: the request set and the evaluator, several times.
  std::vector<double> setup_s;
  std::unique_ptr<rvhpc::engine::RequestSet> set;
  std::unique_ptr<rvhpc::engine::BatchEvaluator> ev;
  for (int i = 0; i < kSetups; ++i) {
    const double t0 = now_us();
    auto s = std::make_unique<rvhpc::engine::RequestSet>(sweep_set(specs));
    auto e = std::make_unique<rvhpc::engine::BatchEvaluator>(
        rvhpc::engine::BatchEvaluator::Options{procs, 0});
    setup_s.push_back((now_us() - t0) * 1e-6);
    set = std::move(s);
    ev = std::move(e);
  }
  const double ready_rss = peak_rss_mib();
  const std::size_t n = set->size();
  rep.note("sweep: " + std::to_string(n) + " requests per evaluate(), jobs=" +
           std::to_string(procs) + ", memoisation off");
  rvhpc::engine::BatchEvaluator serial({1, 0});
  const auto reference = serial.evaluate(*set);

  std::uint64_t calls = 0, mismatches = 0;
  SpanBuffer spans;
  std::vector<Phase> phases;
  std::vector<std::uint64_t> phase_bad;  ///< mismatching predictions per phase
  const auto run_phase = [&](const std::string& name, double rate, double seconds,
                             SpanBuffer* sb) -> const Phase& {
    const std::uint64_t before = mismatches;
    phases.push_back(evaluate_phase(name, *ev, *set, reference, rate, seconds, sb,
                                    calls, mismatches));
    phase_bad.push_back(mismatches - before);
    return phases.back();
  };
  std::vector<Step> steps;
  const double S = a.seconds;
  run_phase("warm", 0.0, 0.05 * S, nullptr);
  // Through set-up and the warm phase's jobs = nproc evaluate() calls;
  // nothing the benchmark holds grows much after it.
  const double peak_rss = peak_rss_mib();
  std::vector<double> low_all, high_all;
  double low_cpu_s = 0.0;
  if (!a.trace) {
    // Interleaved slices (see run_served).
    for (int k = 0; k < kSlices; ++k) {
      const std::string tag = std::to_string(k);
      const double proc0 = cpu_s(CLOCK_PROCESS_CPUTIME_ID);
      const Phase& low = run_phase("low" + tag, 0.0, 0.06 * S, nullptr);
      low_cpu_s += cpu_s(CLOCK_PROCESS_CPUTIME_ID) - proc0;
      low_all.insert(low_all.end(), low.latency_us.begin(), low.latency_us.end());
      const Phase& high = run_phase("high" + tag, a.rates.high, 0.05 * S, nullptr);
      high_all.insert(high_all.end(), high.latency_us.begin(), high.latency_us.end());
    }
    steps = search(a, [&](double rate, const std::string& name) {
      const Phase& p = run_phase(name, rate, 0.25 * S / 8, nullptr);
      Step st;
      st.rate = rate;
      st.p99 = step_p99(p.latency_us);
      st.pass = st.p99 <= a.rates.limit_us;
      return st;
    });
  } else {
    run_phase("untraced", a.rates.high, 0.2 * S, nullptr);
    run_phase("traced", a.rates.high, 0.2 * S, &spans);
  }
  for (std::size_t i = 0; i < phases.size(); ++i) {
    const Phase& p = phases[i];
    char buf[320];
    std::snprintf(buf, sizeof(buf),
                  "phase %-10s rate=%9.1f/s sched=%5.2fs calls=%zu sent=%zu "
                  "ok=%zu refused=0 failed=%llu p50=%.1fus p99=%.1fus lag_p99=%.1fus",
                  p.name.c_str(), p.rate, p.seconds, p.latency_us.size(),
                  p.latency_us.size() * n, p.latency_us.size() * n - phase_bad[i],
                  static_cast<unsigned long long>(phase_bad[i]),
                  percentile(p.latency_us, 0.5), percentile(p.latency_us, 0.99),
                  percentile(p.lag_us, 0.99));
    rep.note(buf);
  }
  rep.note("predictions: " + std::to_string(calls * n) + " checked against the jobs=1 "
           "reference, " + std::to_string(mismatches) + " differ");
  if (mismatches) rep.set_incorrect("parallel evaluate() differs from jobs=1");
  rep.count(calls * n, mismatches);

  if (!a.trace) {
    const double p50 = reported(low_all, 0.5);
    const double preds = static_cast<double>(low_all.size() * n);
    rep.metric("setup_s", median(setup_s), "s", setup_s.size());
    rep.metric("cpu_us_per_pred", low_cpu_s * 1e6 / std::max(1.0, preds), "us",
               low_all.size() * n);
    rep.metric("ready_rss_mib", ready_rss, "MiB", 1);
    rep.figure("peak_rss_mib", peak_rss, "MiB", 1);
    rep.figure("p50_us", p50, "us", low_all.size());
    rep.figure("preds_per_s", static_cast<double>(n) * 1e6 / std::max(1e-9, p50), "1/s",
               low_all.size() * n);
    rep.figure("p99_us", reported(low_all, 0.99), "us", low_all.size());
    rep.figure("p50_us.high", reported(high_all, 0.5), "us", high_all.size());
    rep.figure("p99_us.high", reported(high_all, 0.99), "us", high_all.size());
    rep.figure("max_rate_rps", max_rate(steps, a.rates.limit_us), "1/s", steps.size());
    return;
  }

  const Phase& untraced = phases[1];
  const Phase& traced = phases[2];
  std::vector<LayerValue> layers = run_layer_probes(specs, procs, spans);
  const auto rtt = wire_probes(a, specs, procs, spans, rep, &layers);
  layers.insert(layers.end(), rtt.begin(), rtt.end());
  // The sweep restores no cache: its set-up has no restore step.
  layers.push_back({"serve.restore_s", 0.0, "s", 0});
  layers.push_back({"bench.gen_lag_p99_us", percentile(traced.lag_us, 0.99), "us",
                    traced.lag_us.size()});
  layers.push_back({"bench.trace_overhead_ratio",
                    median(traced.latency_us) / std::max(1e-9, median(untraced.latency_us)),
                    "ratio", traced.latency_us.size()});
  finish_trace(a, spans, layers, rep);
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const Args a = parse_args(argc, argv);
    const int procs = nproc();
    (void)prctl(PR_SET_TIMERSLACK, 1UL, 0UL, 0UL, 0UL);
    rvhpc::obs::set_metrics_enabled(true);
    fs::create_directories(a.work);
    Report rep;
    rep.note("context " + context_json(a, procs));
    if (a.workload == WorkloadKind::SweepBatch) {
      run_sweep(a, procs, rep);
    } else {
      run_served(a, procs, rep);
    }
    rep.print(std::cout);
    const std::string result = rep.json();
    {
      std::ofstream f(a.work + "/result-" + to_string(a.workload) + "-" +
                      std::to_string(a.seed) + (a.trace ? "-trace" : "") + ".json");
      f << "{\"context\": " << context_json(a, procs) << ", \"result\": " << result
        << ", \"not_gated\": " << rep.figures_json() << "}\n";
    }
    std::cout << result << std::endl;
    return 0;
  } catch (const std::exception& e) {
    std::cerr << "rvbench: " << e.what() << "\n";
    return 1;
  }
}
