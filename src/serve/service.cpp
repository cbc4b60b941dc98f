#include "serve/service.hpp"

#include <atomic>
#include <charconv>
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
  std::string out = "{\"id\": \"";
  obs::json::append_escaped(out, id);
  out += "\", \"status\": \"error\", \"error\": \"";
  out += kind;
  out += "\", \"message\": \"";
  obs::json::append_escaped(out, message);
  out += '"';
  if (!detail.empty()) {
    out += ", \"detail\": [";
    for (std::size_t i = 0; i < detail.size(); ++i) {
      if (i) out += ", ";
      out += '"';
      obs::json::append_escaped(out, detail[i]);
      out += '"';
    }
    out += ']';
  }
  out += '}';
  return out;
}

/// A registry machine and its memo fingerprint, hashed once per process
/// instead of once per request.
struct RegistryMachine {
  const arch::MachineModel* model;
  std::uint64_t fingerprint;
};

/// The registry entry named `name`, or nullptr when the name is not one
/// of all_machines() or topo_machines().
const RegistryMachine* registry_machine(const std::string& name) {
  static const std::vector<RegistryMachine> table = [] {
    std::vector<RegistryMachine> t;
    for (const auto* ids : {&arch::all_machines(), &arch::topo_machines()}) {
      for (const arch::MachineId id : *ids) {
        const arch::MachineModel& m = arch::machine(id);
        t.push_back({&m, engine::machine_fingerprint(m)});
      }
    }
    return t;
  }();
  for (const RegistryMachine& r : table) {
    if (r.model->name == name) return &r;
  }
  return nullptr;
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
  /// The machine to predict: a registry singleton, or `inline_machine`
  /// for a "machine_text" request.  Registry machines are referenced,
  /// never copied.
  const arch::MachineModel* machine = nullptr;
  std::unique_ptr<const arch::MachineModel> inline_machine;
  model::WorkloadSignature sig;
  model::RunConfig cfg;
  engine::Backend backend = engine::Backend::Analytic;
  double timeout_ms = 0.0;
  std::uint64_t key = 0;
};

namespace {

/// Parses one request line into a Parsed, applying admission lint.
/// Throws std::invalid_argument (parse) or LintReject (admission).
std::shared_ptr<Service::Parsed> parse_request(const std::string& line,
                                               bool lint_admission,
                                               double default_timeout_ms) {
  const obs::json::Value doc = obs::json::parse(line);
  if (!doc.is(obs::json::Value::Type::Object)) {
    throw std::invalid_argument("request is not a JSON object");
  }
  auto out = std::make_shared<Service::Parsed>();
  Service::Parsed& req = *out;
  if (const auto* id = member(doc, "id");
      id && id->is(obs::json::Value::Type::String)) {
    req.id = id->str;
  }
  if (const auto* tag = member(doc, "tag");
      tag && tag->is(obs::json::Value::Type::String)) {
    req.tag = tag->str;
  }

  // Machine: registry name or inline description, never both.
  std::uint64_t machine_fp = 0;
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
    const RegistryMachine* reg = registry_machine(name->str);
    if (!reg) {
      throw std::invalid_argument("unknown machine '" + name->str + "'");
    }
    req.machine = reg->model;
    machine_fp = reg->fingerprint;
  } else {
    if (!text->is(obs::json::Value::Type::String)) {
      throw std::invalid_argument("'machine_text' must be a string");
    }
    // parse_machine throws invalid_argument with a line number on bad keys.
    req.inline_machine =
        std::make_unique<const arch::MachineModel>(arch::from_text(text->str));
    req.machine = req.inline_machine.get();
    if (const auto issues = arch::validate(*req.machine); !issues.empty()) {
      std::vector<std::string> detail;
      for (const auto& issue : issues) detail.push_back(issue.message);
      throw LintReject("machine_text fails structural validation",
                       std::move(detail));
    }
    if (lint_admission) {
      const analysis::Report lint = analysis::lint_machine(*req.machine);
      if (lint.has_errors()) {
        std::vector<std::string> detail;
        for (const auto& d : lint.diagnostics) detail.push_back(d.format());
        throw LintReject("machine_text fails A0xx admission lint",
                         std::move(detail));
      }
    }
    machine_fp = engine::machine_fingerprint(*req.machine);
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

  int cores = req.machine->cores;
  if (const auto* n = member(doc, "cores")) {
    if (!n->is(obs::json::Value::Type::Number) || n->num < 1 ||
        n->num != static_cast<double>(static_cast<int>(n->num))) {
      throw std::invalid_argument("'cores' must be a positive integer");
    }
    cores = static_cast<int>(n->num);
  }
  req.cfg = model::paper_run_config(*req.machine, kernel, cores);
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

  req.key = engine::request_key(machine_fp, req.sig, req.cfg, req.backend);
  return out;
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
  switch (r.status) {
    case LoadResult::Status::Loaded:
      counters_.restored.store(r.restored, std::memory_order_relaxed);
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
  return counters_.restored.load(std::memory_order_relaxed);
}

bool Service::expired(const Parsed& req, double arrival_us) const {
  return req.timeout_ms > 0.0 &&
         now_us() - arrival_us > req.timeout_ms * 1000.0;
}

std::string Service::timeout_response(const Parsed& req) {
  count(Count::Timeout);
  counters_.timeouts.fetch_add(1, std::memory_order_relaxed);
  return error_json(req.id, "timeout",
                    "deadline of " + std::to_string(req.timeout_ms) +
                        " ms expired before evaluation");
}

std::optional<std::string> Service::complete_if_cached(const Parsed& req,
                                                       double arrival_us) {
  // An expired request answers "timeout" whether cached or not, so it
  // never costs a pool handoff.
  if (expired(req, arrival_us)) return timeout_response(req);
  // rvhpc: hot-path begin — serve warm path: one memo probe answers a
  // cached request (rvhpc-lint S1xx guards this region).
  std::optional<model::Prediction> p = cache_.find(req.key);
  if (!p) return std::nullopt;
  // rvhpc: hot-path end
  obs::ScopedSpan span("serve", "request");
  return render(req, *p, /*hit=*/true, arrival_us, span);
}

std::string Service::complete(const Parsed& req, double arrival_us) {
  // Deadline: checked at evaluation time, so a request that waited for the
  // pool past its budget answers "timeout" instead of burning a worker
  // on an answer nobody is waiting for.
  if (expired(req, arrival_us)) return timeout_response(req);

  obs::ScopedSpan span("serve", "request");
  std::optional<model::Prediction> p = cache_.get(req.key);
  const bool hit = p.has_value();
  if (!hit) {
    p = engine::backend_for(req.backend)
            .predict(*req.machine, req.sig, req.cfg);
    cache_.put(req.key, *p);
  }
  return render(req, *p, hit, arrival_us, span);
}

std::string Service::render(const Parsed& req, const model::Prediction& p,
                            bool hit, double arrival_us,
                            obs::ScopedSpan& span) {
  if (span.active()) {
    span.arg("id", req.id);
    span.arg("backend", engine::to_string(req.backend));
    span.arg("machine", req.machine->name);
    span.arg("kernel", to_string(req.sig.kernel));
    span.arg("cache", hit ? "hit" : "miss");
  }
  counters_.ok.fetch_add(1, std::memory_order_relaxed);
  if (hit) counters_.cache_hits.fetch_add(1, std::memory_order_relaxed);
  if (!p.ran) counters_.dnr.fetch_add(1, std::memory_order_relaxed);

  std::string out;
  out.reserve(384);  // a typical live response is ~330 bytes
  out += "{\"id\": \"";
  obs::json::append_escaped(out, req.id);
  out += "\", \"status\": \"ok\", \"ran\": ";
  out += p.ran ? "true" : "false";
  if (!req.tag.empty()) {
    out += ", \"tag\": \"";
    obs::json::append_escaped(out, req.tag);
    out += '"';
  }
  if (!p.ran) {
    out += ", \"dnr_reason\": \"";
    obs::json::append_escaped(out, p.dnr_reason);
    out += '"';
  }
  out += ", \"backend\": \"";
  obs::json::append_escaped(out, engine::to_string(req.backend));
  out += "\", \"machine\": \"";
  obs::json::append_escaped(out, req.machine->name);
  out += "\", \"kernel\": \"";
  obs::json::append_escaped(out, to_string(req.sig.kernel));
  out += "\", \"class\": \"";
  obs::json::append_escaped(out, to_string(req.sig.problem_class));
  out += "\", \"cores\": ";
  char cores[16];
  out.append(cores,
             std::to_chars(cores, cores + sizeof cores, req.cfg.cores).ptr);
  out += ", \"seconds\": ";
  obs::json::append_number(out, p.seconds);
  out += ", \"mops\": ";
  obs::json::append_number(out, p.mops);
  out += ", \"bw_gbs\": ";
  obs::json::append_number(out, p.achieved_bw_gbs);
  out += ", \"bottleneck\": \"";
  obs::json::append_escaped(out, to_string(p.breakdown.dominant));
  out += "\", \"vectorised\": ";
  out += p.vector.vectorised ? "true" : "false";
  const double latency_us = now_us() - arrival_us;
  if (opts_.live_fields) {
    out += ", \"cache\": \"";
    out += hit ? "hit" : "miss";
    out += "\", \"latency_us\": ";
    obs::json::append_number(out, latency_us);
  }
  out += '}';
  // End-to-end latency, admission to completion (seconds, the repo-wide
  // log-spaced timer layout): the p99 the throughput bench gates on.
  if (obs::Histogram* h = latency_histogram()) h->observe(latency_us * 1e-6);
  return out;
}

Service::Admission Service::admit(const std::string& line) {
  Admission adm;
  adm.arrival_us = now_us();
  count(Count::Request);
  counters_.received.fetch_add(1, std::memory_order_relaxed);
  try {
    std::shared_ptr<Parsed> req =
        parse_request(line, opts_.lint_admission, opts_.default_timeout_ms);
    adm.id = req->id;
    adm.had_id = !req->id.empty();
    adm.request = std::move(req);
  } catch (const LintReject& e) {
    count(Count::Rejected);
    counters_.lint_rejected.fetch_add(1, std::memory_order_relaxed);
    adm.id = recover_id(line);
    adm.had_id = !adm.id.empty();
    adm.response = error_json(adm.id, "lint", e.what(), e.detail);
  } catch (const std::exception& e) {
    count(Count::Rejected);
    counters_.parse_errors.fetch_add(1, std::memory_order_relaxed);
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
  counters_.received.fetch_add(1, std::memory_order_relaxed);
  counters_.overloaded.fetch_add(1, std::memory_order_relaxed);
  return error_json(id, "overloaded",
                    "backlog full (" + std::to_string(opts_.queue_capacity) +
                        " requests pending); retry later");
}

bool Service::note_evaluation() {
  if (opts_.cache_file.empty() || opts_.checkpoint_every == 0) return false;
  // Every checkpoint_every-th evaluation is the one that is due.
  return (since_checkpoint_.fetch_add(1, std::memory_order_relaxed) + 1) %
             opts_.checkpoint_every ==
         0;
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
  const auto get = [](const std::atomic<std::uint64_t>& c) {
    return c.load(std::memory_order_relaxed);
  };
  ServiceStats s;
  s.received = get(counters_.received);
  s.ok = get(counters_.ok);
  s.dnr = get(counters_.dnr);
  s.parse_errors = get(counters_.parse_errors);
  s.lint_rejected = get(counters_.lint_rejected);
  s.timeouts = get(counters_.timeouts);
  s.overloaded = get(counters_.overloaded);
  s.cache_hits = get(counters_.cache_hits);
  s.restored = get(counters_.restored);
  return s;
}

}  // namespace rvhpc::serve
