#include "serve/service.hpp"

#include <atomic>
#include <csignal>
#include <fstream>
#include <iostream>
#include <mutex>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <utility>

#include "analysis/engine.hpp"
#include "arch/registry.hpp"
#include "arch/serialize.hpp"
#include "arch/validate.hpp"
#include "engine/backend.hpp"
#include "engine/request.hpp"
#include "engine/thread_pool.hpp"
#include "model/predictor.hpp"
#include "model/signatures.hpp"
#include "obs/json.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace rvhpc::serve {
namespace {

// --- shutdown flag (async-signal-safe) ------------------------------------

// A lock-free atomic store is async-signal-safe, and unlike a volatile
// sig_atomic_t it is also a *cross-thread* handoff TSan accepts: the net
// event loop polls this flag from its own thread.
std::atomic<int> g_shutdown{0};
static_assert(std::atomic<int>::is_always_lock_free);

void on_signal(int) { g_shutdown.store(1, std::memory_order_relaxed); }

// --- serve-level metrics --------------------------------------------------

enum class Count { Request, Rejected, Timeout };

void count(Count which, std::uint64_t n = 1) {
  if (!obs::metrics_enabled()) return;
  static obs::Counter& requests = obs::Registry::global().counter(
      "rvhpc_serve_requests_total", "request lines received by the service");
  static obs::Counter& rejected = obs::Registry::global().counter(
      "rvhpc_serve_rejected_total",
      "requests rejected at admission (parse, lint, overloaded)");
  static obs::Counter& timeouts = obs::Registry::global().counter(
      "rvhpc_serve_timeouts_total",
      "requests whose deadline expired before evaluation");
  switch (which) {
    case Count::Request:  requests.add(n); break;
    case Count::Rejected: rejected.add(n); break;
    case Count::Timeout:  timeouts.add(n); break;
  }
}

/// End-to-end latency histogram, looked up once rather than by name on
/// every served request.
obs::Histogram* latency_histogram() {
  if (!obs::metrics_enabled()) return nullptr;
  static obs::Histogram& latency = obs::Registry::global().histogram(
      "rvhpc_serve_request_latency_seconds");
  return &latency;
}

// --- request parsing ------------------------------------------------------

/// Admission rejection with structured per-rule detail (lint findings).
struct LintReject : std::runtime_error {
  LintReject(const std::string& msg, std::vector<std::string> d)
      : std::runtime_error(msg), detail(std::move(d)) {}
  std::vector<std::string> detail;
};

const obs::json::Value* member(const obs::json::Value& v, const char* key) {
  const obs::json::Value* m = v.find(key);
  return (m && !m->is(obs::json::Value::Type::Null)) ? m : nullptr;
}

std::string require_string(const obs::json::Value& v, const char* key) {
  const obs::json::Value* m = member(v, key);
  if (!m || !m->is(obs::json::Value::Type::String)) {
    throw std::invalid_argument(std::string("missing or non-string '") + key +
                                "' member");
  }
  return m->str;
}

std::string error_json(const std::string& id, const char* kind,
                       const std::string& message,
                       const std::vector<std::string>& detail = {}) {
  std::ostringstream os;
  os << "{\"id\": \"" << obs::json::escape(id) << "\", \"status\": \"error\", "
     << "\"error\": \"" << kind << "\", \"message\": \""
     << obs::json::escape(message) << "\"";
  if (!detail.empty()) {
    os << ", \"detail\": [";
    for (std::size_t i = 0; i < detail.size(); ++i) {
      if (i) os << ", ";
      os << "\"" << obs::json::escape(detail[i]) << "\"";
    }
    os << "]";
  }
  os << "}";
  return os.str();
}

}  // namespace

void install_shutdown_handlers() {
  std::signal(SIGTERM, on_signal);
  std::signal(SIGINT, on_signal);
}

bool shutdown_requested() {
  return g_shutdown.load(std::memory_order_relaxed) != 0;
}

void reset_shutdown() { g_shutdown.store(0, std::memory_order_relaxed); }

// --- one admitted request -------------------------------------------------

struct Service::Parsed {
  std::string id;
  std::string tag;
  arch::MachineModel machine;
  model::WorkloadSignature sig;
  model::RunConfig cfg;
  engine::Backend backend = engine::Backend::Analytic;
  double timeout_ms = 0.0;
  std::uint64_t key = 0;
};

namespace {

/// Parses one request line into a Parsed, applying admission lint.
/// Throws std::invalid_argument (parse) or LintReject (admission).
Service::Parsed parse_request(const std::string& line, bool lint_admission,
                              double default_timeout_ms) {
  const obs::json::Value doc = obs::json::parse(line);
  if (!doc.is(obs::json::Value::Type::Object)) {
    throw std::invalid_argument("request is not a JSON object");
  }
  Service::Parsed req;
  if (const auto* id = member(doc, "id");
      id && id->is(obs::json::Value::Type::String)) {
    req.id = id->str;
  }
  if (const auto* tag = member(doc, "tag");
      tag && tag->is(obs::json::Value::Type::String)) {
    req.tag = tag->str;
  }

  // Machine: registry name or inline description, never both.
  const obs::json::Value* name = member(doc, "machine");
  const obs::json::Value* text = member(doc, "machine_text");
  if ((name == nullptr) == (text == nullptr)) {
    throw std::invalid_argument(
        "exactly one of 'machine' (registry name) or 'machine_text' "
        "(inline description) is required");
  }
  if (name) {
    if (!name->is(obs::json::Value::Type::String)) {
      throw std::invalid_argument("'machine' must be a string");
    }
    try {
      req.machine = arch::machine(name->str);
    } catch (const std::out_of_range&) {
      throw std::invalid_argument("unknown machine '" + name->str + "'");
    }
  } else {
    if (!text->is(obs::json::Value::Type::String)) {
      throw std::invalid_argument("'machine_text' must be a string");
    }
    // parse_machine throws invalid_argument with a line number on bad keys.
    req.machine = arch::from_text(text->str);
    if (const auto issues = arch::validate(req.machine); !issues.empty()) {
      std::vector<std::string> detail;
      for (const auto& issue : issues) detail.push_back(issue.message);
      throw LintReject("machine_text fails structural validation",
                       std::move(detail));
    }
    if (lint_admission) {
      const analysis::Report lint = analysis::lint_machine(req.machine);
      if (lint.has_errors()) {
        std::vector<std::string> detail;
        for (const auto& d : lint.diagnostics) detail.push_back(d.format());
        throw LintReject("machine_text fails A0xx admission lint",
                         std::move(detail));
      }
    }
  }

  const model::Kernel kernel = model::parse_kernel(require_string(doc, "kernel"));
  model::ProblemClass cls = model::ProblemClass::C;
  if (const auto* c = member(doc, "class")) {
    if (!c->is(obs::json::Value::Type::String)) {
      throw std::invalid_argument("'class' must be a string");
    }
    cls = model::parse_problem_class(c->str);
  }
  req.sig = model::signature(kernel, cls);

  int cores = req.machine.cores;
  if (const auto* n = member(doc, "cores")) {
    if (!n->is(obs::json::Value::Type::Number) || n->num < 1 ||
        n->num != static_cast<double>(static_cast<int>(n->num))) {
      throw std::invalid_argument("'cores' must be a positive integer");
    }
    cores = static_cast<int>(n->num);
  }
  req.cfg = model::paper_run_config(req.machine, kernel, cores);
  if (const auto* c = member(doc, "compiler")) {
    if (!c->is(obs::json::Value::Type::String)) {
      throw std::invalid_argument("'compiler' must be a string");
    }
    req.cfg.compiler.id = model::parse_compiler_id(c->str);
  }
  if (const auto* v = member(doc, "vectorise")) {
    if (!v->is(obs::json::Value::Type::Bool)) {
      throw std::invalid_argument("'vectorise' must be a boolean");
    }
    req.cfg.compiler.vectorise = v->boolean;
  }
  if (const auto* p = member(doc, "placement")) {
    if (!p->is(obs::json::Value::Type::String)) {
      throw std::invalid_argument("'placement' must be a string");
    }
    req.cfg.placement = model::parse_placement(p->str);
  }
  if (const auto* b = member(doc, "backend")) {
    if (!b->is(obs::json::Value::Type::String)) {
      throw std::invalid_argument("'backend' must be a string");
    }
    // parse_backend throws invalid_argument naming the valid backends;
    // handle_line turns that into a structured "parse" error.
    req.backend = engine::parse_backend(b->str);
  }
  req.timeout_ms = default_timeout_ms;
  if (const auto* t = member(doc, "timeout_ms")) {
    if (!t->is(obs::json::Value::Type::Number) || t->num < 0) {
      throw std::invalid_argument("'timeout_ms' must be a non-negative number");
    }
    req.timeout_ms = t->num;
  }

  req.key = engine::PredictionRequest(req.machine, req.sig, req.cfg, "",
                                      req.backend)
                .key();
  return req;
}

/// Best-effort id recovery for error responses: a request that failed
/// admission still names itself when its JSON was at least parseable.
std::string recover_id(const std::string& line) {
  try {
    const obs::json::Value doc = obs::json::parse(line);
    if (const obs::json::Value* id = member(doc, "id");
        id && id->is(obs::json::Value::Type::String)) {
      return id->str;
    }
  } catch (const std::exception&) {
  }
  return "";
}

}  // namespace

Service::Service(Options opts)
    : opts_(std::move(opts)),
      jobs_(opts_.jobs > 0 ? opts_.jobs : engine::default_jobs()),
      cache_(opts_.cache_capacity) {}

Service::~Service() {
  if (!opts_.cache_file.empty()) {
    try {
      (void)save_cache(opts_.cache_file, cache_, opts_.cache_max_entries);
    } catch (const std::exception& e) {
      std::cerr << "rvhpc-serve: cache flush failed: " << e.what() << "\n";
    }
  }
}

std::size_t Service::start(std::ostream& log) {
  if (opts_.cache_file.empty()) return 0;
  const LoadResult r = load_cache(opts_.cache_file, cache_);
  std::lock_guard lock(stats_mu_);
  switch (r.status) {
    case LoadResult::Status::Loaded:
      stats_.restored = r.restored;
      log << "serve: restored " << r.restored << " cache entr"
          << (r.restored == 1 ? "y" : "ies") << " from " << opts_.cache_file
          << "\n";
      break;
    case LoadResult::Status::Missing:
      log << "serve: no cache file at " << opts_.cache_file
          << " (cold start)\n";
      break;
    case LoadResult::Status::VersionMismatch:
    case LoadResult::Status::Corrupt:
      // Deliberately non-fatal: a bad cache is a cold start.
      log << "serve: WARNING: ignoring " << to_string(r.status)
          << " cache file: " << r.detail << "\n";
      break;
  }
  return stats_.restored;
}

std::string Service::complete(const Parsed& req, double arrival_us) {
  // Deadline: checked at evaluation time, so a request that waited for the
  // pool past its budget answers "timeout" instead of burning a worker
  // on an answer nobody is waiting for.
  if (req.timeout_ms > 0.0 &&
      now_us() - arrival_us > req.timeout_ms * 1000.0) {
    count(Count::Timeout);
    {
      std::lock_guard lock(stats_mu_);
      ++stats_.timeouts;
    }
    return error_json(req.id, "timeout",
                      "deadline of " + std::to_string(req.timeout_ms) +
                          " ms expired before evaluation");
  }

  obs::ScopedSpan span("serve", "request");
  bool hit = false;
  model::Prediction p;
  // rvhpc: hot-path begin — serve cache-hit fast path: a warm request must
  // answer from the memo without allocating (rvhpc-lint S1xx guards this).
  if (std::optional<model::Prediction> cached = cache_.get(req.key)) {
    p = *std::move(cached);
    hit = true;
  }
  // rvhpc: hot-path end
  if (!hit) {
    p = engine::backend_for(req.backend)
            .predict(req.machine, req.sig, req.cfg);
    cache_.put(req.key, p);
  }
  if (span.active()) {
    span.arg("id", req.id);
    span.arg("backend", engine::to_string(req.backend));
    span.arg("machine", req.machine.name);
    span.arg("kernel", to_string(req.sig.kernel));
    span.arg("cache", hit ? "hit" : "miss");
  }
  {
    std::lock_guard lock(stats_mu_);
    ++stats_.ok;
    if (hit) ++stats_.cache_hits;
    if (!p.ran) ++stats_.dnr;
  }

  std::ostringstream os;
  os << "{\"id\": \"" << obs::json::escape(req.id)
     << "\", \"status\": \"ok\", \"ran\": " << (p.ran ? "true" : "false");
  if (!req.tag.empty()) {
    os << ", \"tag\": \"" << obs::json::escape(req.tag) << "\"";
  }
  if (!p.ran) {
    os << ", \"dnr_reason\": \"" << obs::json::escape(p.dnr_reason) << "\"";
  }
  os << ", \"backend\": \"" << obs::json::escape(engine::to_string(req.backend))
     << "\", \"machine\": \"" << obs::json::escape(req.machine.name)
     << "\", \"kernel\": \"" << obs::json::escape(to_string(req.sig.kernel))
     << "\", \"class\": \""
     << obs::json::escape(to_string(req.sig.problem_class))
     << "\", \"cores\": " << req.cfg.cores
     << ", \"seconds\": " << obs::json::number(p.seconds)
     << ", \"mops\": " << obs::json::number(p.mops)
     << ", \"bw_gbs\": " << obs::json::number(p.achieved_bw_gbs)
     << ", \"bottleneck\": \""
     << obs::json::escape(to_string(p.breakdown.dominant))
     << "\", \"vectorised\": " << (p.vector.vectorised ? "true" : "false");
  if (opts_.live_fields) {
    os << ", \"cache\": \"" << (hit ? "hit" : "miss") << "\""
       << ", \"latency_us\": " << obs::json::number(now_us() - arrival_us);
  }
  os << "}";
  // End-to-end latency, admission to completion (seconds, the repo-wide
  // log-spaced timer layout): the p99 the throughput bench gates on.
  if (obs::Histogram* h = latency_histogram()) {
    h->observe((now_us() - arrival_us) * 1e-6);
  }
  return os.str();
}

bool Service::cached(const Parsed& req) { return cache_.contains(req.key); }

Service::Admission Service::admit(const std::string& line) {
  Admission adm;
  adm.arrival_us = now_us();
  count(Count::Request);
  {
    std::lock_guard lock(stats_mu_);
    ++stats_.received;
  }
  try {
    auto req = std::make_shared<Parsed>(
        parse_request(line, opts_.lint_admission, opts_.default_timeout_ms));
    adm.id = req->id;
    adm.had_id = !req->id.empty();
    adm.request = std::move(req);
  } catch (const LintReject& e) {
    count(Count::Rejected);
    {
      std::lock_guard lock(stats_mu_);
      ++stats_.lint_rejected;
    }
    adm.id = recover_id(line);
    adm.had_id = !adm.id.empty();
    adm.response = error_json(adm.id, "lint", e.what(), e.detail);
  } catch (const std::exception& e) {
    count(Count::Rejected);
    {
      std::lock_guard lock(stats_mu_);
      ++stats_.parse_errors;
    }
    adm.id = recover_id(line);
    adm.had_id = !adm.id.empty();
    adm.response = error_json(adm.id, "parse", e.what());
  }
  return adm;
}

std::string Service::handle_line(const std::string& line) {
  const Admission adm = admit(line);
  if (!adm.request) return adm.response;
  return complete(*adm.request, adm.arrival_us);
}

std::string Service::reject_overloaded(const std::string& id) {
  count(Count::Request);
  count(Count::Rejected);
  {
    std::lock_guard lock(stats_mu_);
    ++stats_.received;
    ++stats_.overloaded;
  }
  return error_json(id, "overloaded",
                    "backlog full (" + std::to_string(opts_.queue_capacity) +
                        " requests pending); retry later");
}

bool Service::note_evaluation() {
  if (opts_.cache_file.empty() || opts_.checkpoint_every == 0) return false;
  std::lock_guard lock(stats_mu_);
  if (++since_checkpoint_ >= opts_.checkpoint_every) {
    since_checkpoint_ = 0;
    return true;
  }
  return false;
}

void Service::flush(std::ostream& log) {
  if (opts_.cache_file.empty()) return;
  std::lock_guard save_lock(save_mu_);
  try {
    const SaveResult saved =
        save_cache(opts_.cache_file, cache_, opts_.cache_max_entries);
    log << "serve: checkpointed " << saved.written << " cache entr"
        << (saved.written == 1 ? "y" : "ies");
    if (saved.trimmed > 0) {
      log << " (trimmed " << saved.trimmed << " oldest)";
    }
    log << " to " << opts_.cache_file << "\n";
  } catch (const std::exception& e) {
    log << "serve: WARNING: checkpoint failed: " << e.what() << "\n";
  }
}

std::string Service::replay(const std::string& path, std::ostream& out,
                            std::ostream& log) {
  obs::ScopedSpan session_span("serve", "replay");
  std::ifstream in(path);
  if (!in.good()) {
    throw std::runtime_error("cannot open replay log '" + path + "'");
  }
  // live_fields off for the whole replay: responses must not depend on
  // wall clock or cache temperature, so a warm rerun is byte-identical.
  const bool was_live = opts_.live_fields;
  opts_.live_fields = false;

  std::vector<std::string> lines;
  std::string line;
  while (std::getline(in, line)) {
    if (line.find_first_not_of(" \t\r") == std::string::npos) continue;
    lines.push_back(line);
  }

  std::vector<std::string> responses(lines.size());
  {
    engine::ThreadPool pool(jobs_);
    for (std::size_t i = 0; i < lines.size(); ++i) {
      pool.submit([this, &lines, &responses, i] {
        try {
          responses[i] = handle_line(lines[i]);
        } catch (const std::exception& e) {
          responses[i] = error_json("", "internal", e.what());
        }
      });
    }
    pool.wait();
  }
  opts_.live_fields = was_live;

  // Request order, not completion order: replay output is a document.
  for (const std::string& r : responses) out << r << "\n";
  flush(log);

  const ServiceStats s = stats();
  const std::uint64_t errors = s.parse_errors + s.lint_rejected + s.timeouts;
  const double hit_rate =
      s.ok > 0 ? 100.0 * static_cast<double>(s.cache_hits) /
                     static_cast<double>(s.ok)
               : 0.0;
  std::ostringstream os;
  os.setf(std::ios::fixed);
  os.precision(1);
  os << "replay summary — " << path << "\n"
     << "  requests:       " << s.received << "\n"
     << "  ok:             " << s.ok << " (" << s.dnr << " DNR)\n"
     << "  errors:         " << errors << " (parse " << s.parse_errors
     << ", lint " << s.lint_rejected << ", timeout " << s.timeouts << ")\n"
     << "  cache:          " << s.cache_hits << " hits / "
     << (s.ok - s.cache_hits) << " misses  (cache-hit-rate: " << hit_rate
     << "%)\n"
     << "  cache-restored: " << s.restored << "\n"
     << "  pool:           " << jobs_ << " worker thread(s)\n";
  return os.str();
}

ServiceStats Service::stats() const {
  std::lock_guard lock(stats_mu_);
  return stats_;
}

}  // namespace rvhpc::serve
