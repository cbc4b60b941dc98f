#pragma once
// rvhpc::engine — BatchEvaluator: parallel, memoised, deterministic.
//
// evaluate() fans a RequestSet across a ThreadPool and returns results in
// request order regardless of completion order — each chunk writes only its
// own pre-allocated slots, so the output of a 1-thread and an 8-thread run
// is identical byte for byte (predict() is pure; verified by test_engine).
//
// The pool is the evaluator's own: `jobs - 1` workers, started lazily by
// the first parallel evaluate() and kept until the evaluator dies or
// release_pool() is called.  The calling thread is the jobs-th participant
// (ThreadPool::run_chunks), so jobs=1 evaluators, and evaluators that never
// evaluate a multi-request set, never start a thread.
//
// A process-wide default evaluator (default_evaluator()) carries the shared
// memo cache; bench binaries and model::sweep route through it so a run
// that evaluates the same point twice — suite_summary's geomean columns,
// times_faster's baselines, sensitivity's centre points — computes it once.
//
// Caching and tracing interact: a cache hit skips predict() and therefore
// the PredictionRecord it would add to an active TraceSession.  Attribution
// must stay complete, so the evaluator bypasses the cache entirely (no
// reads, no writes) while obs::session() is non-null.

#include <cstddef>
#include <memory>
#include <mutex>
#include <vector>

#include "engine/cache.hpp"
#include "engine/request.hpp"

namespace rvhpc::engine {

class ThreadPool;

class BatchEvaluator {
 public:
  struct Options {
    /// Worker threads; <= 0 means default_jobs() (RVHPC_JOBS env or
    /// hardware_concurrency).
    int jobs = 0;
    /// Memo cache entries; 0 disables memoisation.
    std::size_t cache_capacity = PredictionCache::kDefaultCapacity;
  };

  BatchEvaluator();  // Options{} defaults
  explicit BatchEvaluator(Options opts);

  BatchEvaluator(const BatchEvaluator&) = delete;
  BatchEvaluator& operator=(const BatchEvaluator&) = delete;

  /// Evaluates every request; result[i] corresponds to set.requests()[i].
  /// Safe to call concurrently from several threads, and from inside a
  /// ThreadPool task.  An exception thrown by a prediction is rethrown to
  /// this call only; the evaluator stays usable.
  [[nodiscard]] std::vector<PredictionResult> evaluate(const RequestSet& set);

  /// Single-point convenience sharing the same memo cache.
  [[nodiscard]] model::Prediction evaluate_one(
      const arch::MachineModel& m, const model::WorkloadSignature& sig,
      const model::RunConfig& cfg, Backend backend = Backend::Analytic);

  [[nodiscard]] int jobs() const { return jobs_; }
  [[nodiscard]] PredictionCache& cache() { return cache_; }

  /// Worker threads the evaluator currently owns: 0 until the first
  /// parallel evaluate() (and always for jobs=1), jobs - 1 after it.
  [[nodiscard]] int pool_threads() const;
  /// Joins the worker pool once in-flight evaluate() calls finish with
  /// it.  The next parallel evaluate() starts a fresh one.
  void release_pool();

 private:
  std::shared_ptr<ThreadPool> pool();

  int jobs_;
  PredictionCache cache_;
  mutable std::mutex pool_mu_;
  std::shared_ptr<ThreadPool> pool_;  ///< guarded by pool_mu_; lazy
};

/// The process-wide evaluator every migrated bench/example and the
/// model::sweep helpers share.  Constructed on first use with
/// set_default_jobs()'s value if one was set, else default_jobs().
[[nodiscard]] BatchEvaluator& default_evaluator();

/// Overrides the default evaluator's pool size (the --jobs=N flag).  Takes
/// effect immediately: the evaluator is rebuilt if already constructed.
/// The retired evaluator stays valid for references still held, but its
/// worker threads are released (restarted lazily if it evaluates again).
void set_default_jobs(int jobs);

/// Scans argv for `--jobs=N` and applies it via set_default_jobs().
/// `--jobs=0` means "use every hardware thread" (hardware_concurrency) on
/// every binary, so scripts can opt into full parallelism without probing
/// the host first.  Returns the effective worker count applied (0 when the
/// flag is absent or malformed); other arguments are left for the caller.
/// Prefer calling this through cli::apply_jobs_flag, which documents the
/// flag once for every tool.
int apply_jobs_flag(int argc, char** argv);

}  // namespace rvhpc::engine
