#pragma once
// rvhpc::engine — a fixed-size thread pool with one bulk primitive.
//
// Two dispatch paths share the same workers:
//
//   * submit()/submit_future(): one std::function per task through a
//     mutex-protected queue.  Exceptions thrown by a submit() task are
//     caught, stored, and rethrown from wait() on the submitting thread so
//     fire-and-forget callers see ordinary C++ error flow.
//   * run_chunks(n, fn): a caller-joined parallel loop for batch sweeps,
//     whose µs-scale items make a task and a condvar wake per chunk cost
//     more than the work.  The caller publishes one stack-allocated job,
//     wakes at most size() workers, and then claims chunks itself from the
//     same atomic cursor the helpers use.  Completion is a per-call latch:
//     the call returns once every chunk is finished and no helper is still
//     inside the job, so a helper that wakes after the cursor ran out
//     claims nothing and never touches the caller's frame.  Because the
//     caller can always finish every chunk alone, concurrent run_chunks
//     calls — and calls made from inside a pool task — cannot deadlock.
//     The call rethrows its own first chunk exception to its own caller;
//     wait()'s pool-wide error channel is never involved.
//
// No work stealing: predict() calls are uniform, so a shared cursor
// balances as well and keeps the reasoning about determinism simple.

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <deque>
#include <exception>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <thread>
#include <type_traits>
#include <utility>
#include <vector>

#include "arch/machine.hpp"

namespace rvhpc::engine {

/// Every hardware thread: std::thread::hardware_concurrency(), or 1 when
/// the host cannot say.  What `--jobs=0` means on every binary.
[[nodiscard]] int hardware_jobs();

/// Number of workers to use when the caller does not say: the
/// RVHPC_JOBS environment variable if set to a positive integer, else
/// hardware_jobs().
[[nodiscard]] int default_jobs();

/// Optional NUMA-placement hints for a pool.  Workers are assigned to
/// `domains` domains round-robin and — best-effort, Linux only — pinned
/// to that domain's contiguous slice of the host's CPUs.  The gate:
/// pinning is attempted only when the host has at least `domains` CPUs,
/// so a single-CPU CI box takes exactly the unhinted code path.  Hints
/// are an optimisation, never a correctness requirement; pinning
/// failures are ignored and only counted (ThreadPool::placed_workers).
struct PlacementHints {
  int domains = 1;  ///< <= 1 means no placement at all
};

/// Hints matching a machine's NUMA topology: one pool domain per
/// declared topo::Domain (flat machines hint nothing), so a batch
/// evaluated for a dual-socket machine can spread its workers the same
/// way the modeled threads spread.
[[nodiscard]] PlacementHints placement_for(const arch::MachineModel& m);

class ThreadPool {
 public:
  /// Spawns `threads` workers (clamped to >= 1).  `threads == 1` still
  /// spawns one worker so the execution path is identical at every size.
  explicit ThreadPool(int threads);
  /// Same, with NUMA placement hints (see PlacementHints).
  ThreadPool(int threads, const PlacementHints& hints);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  void submit(std::function<void()> task);

  /// Submits a task whose result (or exception) is delivered through the
  /// returned future instead of wait() — the dispatch path the async
  /// serving front end completes requests on.  Unlike submit(), an
  /// exception thrown by the task is owned by the future (rethrown from
  /// get()), never by wait(): a caller holding the future is the one
  /// waiting for this task, so wait()'s batch error channel stays
  /// reserved for fire-and-forget work.
  template <typename F>
  auto submit_future(F&& f) -> std::future<std::invoke_result_t<std::decay_t<F>>> {
    using R = std::invoke_result_t<std::decay_t<F>>;
    // shared_ptr because std::function requires copyable callables and
    // std::packaged_task is move-only.
    auto task = std::make_shared<std::packaged_task<R()>>(std::forward<F>(f));
    std::future<R> result = task->get_future();
    submit([task] { (*task)(); });
    return result;
  }

  /// Blocks until every submitted task has finished, then rethrows the
  /// first exception any task raised (if one did).
  void wait();

  /// Calls `fn(i)` exactly once for every i in [0, n), spread over the
  /// calling thread and at most size() workers, and returns when all n
  /// calls are done.  The first exception a call throws stops further
  /// claims and is rethrown here, after every claimed chunk has finished.
  /// Allocates nothing: the job lives on the caller's stack.
  template <typename F>
  void run_chunks(std::size_t n, F&& fn) {
    using Fn = std::remove_reference_t<F>;
    Bulk job;
    job.n = n;
    job.ctx = const_cast<void*>(static_cast<const void*>(std::addressof(fn)));
    job.call = [](void* ctx, std::size_t i) { (*static_cast<Fn*>(ctx))(i); };
    run_bulk(job);
  }

  [[nodiscard]] int size() const { return static_cast<int>(workers_.size()); }

  /// Planned domain of worker `i` under the construction hints
  /// (round-robin); 0 when the pool is unhinted.
  [[nodiscard]] int domain_of(int worker) const;
  /// Workers actually pinned to their domain's CPU slice.  0 when the
  /// gate kept placement off (unhinted pool, or host CPUs < domains).
  [[nodiscard]] int placed_workers() const { return placed_; }

 private:
  /// One run_chunks() call.  Lives on the caller's stack and is linked
  /// into bulk_head_ (under mu_) while helpers may still join it.
  struct Bulk {
    void (*call)(void*, std::size_t) = nullptr;
    void* ctx = nullptr;
    std::size_t n = 0;
    /// Claim cursor, on its own cache line: every claim writes it.
    alignas(64) std::atomic<std::size_t> next{0};
    alignas(64) int helpers = 0;  ///< workers inside drain(); guarded by mu_
    Bulk* next_bulk = nullptr;    ///< bulk_head_ list link; guarded by mu_
    std::condition_variable left_cv;  ///< helpers dropped to 0
    std::atomic<bool> failed{false};
    std::exception_ptr error;  ///< written once, by whoever set `failed`
  };

  void run_bulk(Bulk& job);
  static void drain(Bulk& job) noexcept;
  /// First linked job with chunks left to claim; unlinks exhausted ones.
  /// Caller holds mu_.
  Bulk* open_bulk();
  /// Removes `job` from bulk_head_ if still linked.  Caller holds mu_.
  void unlink(Bulk& job);
  void worker_loop();

  std::mutex mu_;
  std::condition_variable work_cv_;   ///< signalled when a task is queued
  std::condition_variable idle_cv_;   ///< signalled when in-flight hits zero
  std::deque<std::function<void()>> queue_;
  Bulk* bulk_head_ = nullptr;         ///< run_chunks() jobs open to helpers
  std::size_t in_flight_ = 0;         ///< queued + currently executing
  std::exception_ptr first_error_;
  bool stop_ = false;
  std::vector<std::thread> workers_;
  int domains_ = 1;
  std::atomic<int> placed_{0};
};

}  // namespace rvhpc::engine
