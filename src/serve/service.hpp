#pragma once
// rvhpc::serve — a long-running prediction service over the engine.
//
// Every prediction tool in the repo so far is a one-shot process: it cold
// starts, sweeps, and throws the engine's memo cache away on exit.  The
// Service turns the same engine into a resident server: it owns the
// request schema, the persistent PredictionCache (serve/persist.hpp) and
// the two phases of answering one request line — admit() (parse +
// admission lint) and complete() (cache probe, backend predict, response
// render).  It owns no transport.  Live requests (stdin, TCP, HTTP) reach
// it through net::Server, which is the one place that bounds admission,
// orders responses and drains (DESIGN.md §13); replay() is the offline,
// deterministic batch path.
//
// Request schema (one JSON object per line; DESIGN.md §9.2):
//   {"id": "r1", "machine": "sg2044", "kernel": "CG", "class": "C",
//    "cores": 64}
// optional members:
//   "machine_text"  inline `.machine` description instead of "machine"
//                   (validated + linted on admission; A0xx errors reject)
//   "compiler"      toolchain name ("GCC 15.2", ...); default: the
//                   paper's compiler for the machine
//   "vectorise"     bool; default: the paper setup for (machine, kernel)
//   "placement"     "os-default" | "spread" | "close"
//   "backend"       "analytic" (default) | "interval": which prediction
//                   mechanism evaluates the request (DESIGN.md §12).  The
//                   backend is part of the memo key, so cached analytic
//                   results never answer interval requests; unknown
//                   values are a structured `parse` error.
//   "timeout_ms"    per-request deadline; a request still waiting for the
//                   compute pool when it expires answers
//                   {"status":"error","error":"timeout"}
//   "tag"           opaque label echoed in the response
//
// Response schema:
//   {"id": "r1", "status": "ok", "ran": true, "backend": "analytic",
//    "seconds": ..., "mops": ..., "bw_gbs": ..., "bottleneck": "...",
//    "vectorised": ..., "cores": N, "cache": "hit"|"miss",
//    "latency_us": ...}
//   {"id": "r1", "status": "error", "error": "parse"|"lint"|"timeout"|
//    "overloaded", "message": "...", "detail": ["..."]}
// "cache" and "latency_us" are live-mode fields: replay omits them so a
// cold and a warm replay of the same log are byte-identical (the
// acceptance gate scripts/check.sh enforces).
//
// Robustness semantics: malformed JSON, lint-rejected machines, expired
// deadlines, a full admission bound and a corrupt cache file all produce
// structured error responses or logged warnings — never a crash, never a
// silently dropped request.

#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "engine/cache.hpp"
#include "serve/persist.hpp"

namespace rvhpc::obs {
class ScopedSpan;
}

namespace rvhpc::serve {

/// Steady-clock microseconds: the clock of Admission::arrival_us and of
/// every deadline and latency measured against it.  Inline because the
/// request path (admit, complete, the shard's reads) calls it per request.
[[nodiscard]] inline double now_us() {
  return std::chrono::duration<double, std::micro>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Aggregate counters of one Service instance's lifetime (the obs
/// registry's rvhpc_serve_* counters aggregate across instances; tests and
/// the replay summary want per-instance numbers).
struct ServiceStats {
  std::uint64_t received = 0;       ///< request lines seen (non-blank)
  std::uint64_t ok = 0;             ///< evaluated, status "ok"
  std::uint64_t dnr = 0;            ///< of `ok`, predictions with ran=false
  std::uint64_t parse_errors = 0;   ///< malformed JSON / unknown fields
  std::uint64_t lint_rejected = 0;  ///< machines failing A0xx admission
  std::uint64_t timeouts = 0;       ///< deadline expired before evaluation
  std::uint64_t overloaded = 0;     ///< backlog full at admission
  std::uint64_t cache_hits = 0;     ///< of `ok`, served from the memo cache
  std::uint64_t restored = 0;       ///< entries loaded from the cache file
};

class Service {
 public:
  struct Options {
    /// Worker threads evaluating admitted requests; <= 0 means
    /// engine::default_jobs() (RVHPC_JOBS or hardware_concurrency).
    int jobs = 0;
    /// Maximum requests dispatched to the compute pool and not yet
    /// completed (live mode; net::Server enforces it).  A request arriving
    /// past this bound is answered "overloaded" immediately.  0 rejects
    /// everything — useful for drills and tests.
    std::size_t queue_capacity = 256;
    /// Deadline applied to requests that do not carry "timeout_ms";
    /// 0 = no deadline.
    double default_timeout_ms = 0.0;
    /// Persistent cache file: loaded on start(), checkpointed every
    /// `checkpoint_every` evaluations, flushed on shutdown.  Empty =
    /// in-process cache only.
    std::string cache_file;
    std::size_t cache_capacity = engine::PredictionCache::kDefaultCapacity;
    /// Cap on entries *written* to the cache file: saves trim the
    /// oldest-LRU overflow first (rvhpc_serve_cache_trimmed_total counts
    /// them) so a long-lived service file stays bounded.  0 = uncapped.
    std::size_t cache_max_entries = 0;
    /// Checkpoint period in *evaluated requests*; 0 = only on shutdown.
    std::size_t checkpoint_every = 0;
    /// Reject machines whose A0xx lint has errors (registry machines
    /// always pass; this guards inline "machine_text" descriptions).
    bool lint_admission = true;
    /// Emit "cache" and "latency_us" response fields.  True for the live
    /// loop; replay() forces false so its output is deterministic.
    bool live_fields = true;
  };

  explicit Service(Options opts);
  /// Flushes the persistent cache (best-effort; errors to stderr).
  ~Service();

  Service(const Service&) = delete;
  Service& operator=(const Service&) = delete;

  /// Loads the persistent cache if configured.  Corrupt, truncated or
  /// version-mismatched files are logged to `log` and ignored — a bad
  /// cache is a cold start, never a fatal error.  Returns entries
  /// restored.
  std::size_t start(std::ostream& log);

  /// Batch-replays a request log: every line is admitted (no backlog
  /// rejection — replay is offline), evaluated across the pool, and
  /// answered in *request order* with deterministic fields only.  Returns
  /// the human-readable summary block (also used by scripts/check.sh:
  /// keep the "cache-hit-rate:" and "cache-restored:" tokens stable).
  std::string replay(const std::string& path, std::ostream& out,
                     std::ostream& log);

  struct Parsed;  // one admitted request (defined in service.cpp)

  /// Outcome of the cheap parse/admission phase of one request line.
  /// Either the line was resolved immediately (`response` is the final
  /// JSON: parse error, lint rejection) and `request` is null, or it was
  /// admitted and `request` holds the parsed prediction request awaiting
  /// the compute phase (`complete()`).  `had_id` records whether the line
  /// carried a non-empty "id" — the wire-ordering contract keys on it:
  /// responses to id-less requests must be delivered in request order,
  /// id-carrying responses may complete out of order (DESIGN.md §13).
  struct Admission {
    std::shared_ptr<const Parsed> request;  ///< null when resolved inline
    std::string response;  ///< final JSON when `request` is null
    std::string id;        ///< the request's "id" ("" when absent)
    double arrival_us = 0.0;
    bool had_id = false;
  };

  /// Phase 1 of handle_line: parse + admission lint only — cheap enough
  /// for an event-loop thread.  Never throws; failures become structured
  /// error responses.
  [[nodiscard]] Admission admit(const std::string& line);

  /// Phase 2: evaluates an admitted request (cache probe, then the
  /// backend predict on a miss) and renders the response JSON.
  /// Thread-safe; this is what the net front end dispatches to the engine
  /// ThreadPool as a future.  Never throws.
  [[nodiscard]] std::string complete(const Parsed& req, double arrival_us);

  /// Phase 2 without compute, in one memo probe: the response complete()
  /// would give when `req`'s key is resident or its deadline has passed,
  /// nullopt otherwise (nothing is counted then; the caller dispatches
  /// complete() to the pool).  The front end answers cached hits inline
  /// with it instead of paying a pool handoff.  Never throws.
  [[nodiscard]] std::optional<std::string> complete_if_cached(
      const Parsed& req, double arrival_us);

  /// Parses, admits and evaluates one request line synchronously,
  /// returning the response JSON (no trailing newline) — admit() +
  /// complete() back to back.  The replay() path; exposed for tests.
  [[nodiscard]] std::string handle_line(const std::string& line);

  /// The structured "overloaded" rejection (also counts it), answered by
  /// net::Server when its in-flight compute reaches queue_capacity.  `id` is echoed so id-matching clients can pair
  /// the rejection with its request.
  [[nodiscard]] std::string reject_overloaded(const std::string& id = "");

  /// Counts one completed evaluation toward the checkpoint period;
  /// true when a checkpoint is now due (caller decides which thread pays
  /// for the flush — net::Server hands it to a background flusher).
  [[nodiscard]] bool note_evaluation();

  /// Writes the persistent cache now (no-op without a cache_file).
  void flush(std::ostream& log);

  [[nodiscard]] ServiceStats stats() const;
  [[nodiscard]] engine::PredictionCache& cache() { return cache_; }
  [[nodiscard]] const Options& options() const { return opts_; }
  [[nodiscard]] int jobs() const { return jobs_; }

 private:
  /// ServiceStats as relaxed atomics: shards and pool workers count
  /// without a lock, and stats() snapshots them.
  struct Counters {
    std::atomic<std::uint64_t> received{0};
    std::atomic<std::uint64_t> ok{0};
    std::atomic<std::uint64_t> dnr{0};
    std::atomic<std::uint64_t> parse_errors{0};
    std::atomic<std::uint64_t> lint_rejected{0};
    std::atomic<std::uint64_t> timeouts{0};
    std::atomic<std::uint64_t> overloaded{0};
    std::atomic<std::uint64_t> cache_hits{0};
    std::atomic<std::uint64_t> restored{0};
  };

  [[nodiscard]] bool expired(const Parsed& req, double arrival_us) const;
  [[nodiscard]] std::string timeout_response(const Parsed& req);
  /// Counts an answered prediction and renders its response line.
  [[nodiscard]] std::string render(const Parsed& req,
                                   const model::Prediction& p, bool hit,
                                   double arrival_us, obs::ScopedSpan& span);

  Options opts_;
  int jobs_;
  engine::PredictionCache cache_;
  std::mutex save_mu_;  ///< serialises concurrent flush() calls
  Counters counters_;
  std::atomic<std::uint64_t> since_checkpoint_{0};
};

/// Installs SIGTERM/SIGINT handlers that request a graceful drain:
/// net::Server stops admitting, answers in-flight work, flushes the cache
/// and returns.
void install_shutdown_handlers();
[[nodiscard]] bool shutdown_requested();
/// Clears the flag (tests; a fresh serve loop after a drained one).
void reset_shutdown();

}  // namespace rvhpc::serve
