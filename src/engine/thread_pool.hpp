#pragma once
// rvhpc::engine — the process-wide worker pool and its bulk primitive.
//
// A process builds one pool: shared_pool(), hardware_jobs() workers,
// started by the first call.  Every owner of parallel work calls it only
// on its first parallel use — never at construction, never from static
// init — so a process that forks before it has computed in parallel
// (perfbench's server children) hands no dead workers to the child.  A
// `jobs` setting (--jobs, RVHPC_JOBS, BatchEvaluator/Service options) is a
// cap on how many of the pool's workers one caller uses at a time, never
// a pool size of its own.
//
// Two dispatch paths share the workers:
//
//   * submit(): one std::function per task through a mutex-protected
//     queue.  A task must not throw (one that does terminates the
//     process); a caller that needs a result or an error carries it in
//     the task itself, as net::Server's compute task does (it catches,
//     and posts its response to its shard).
//   * run_chunks(n, fn, max_participants): a caller-joined parallel loop
//     for batch sweeps, whose µs-scale items make a task and a condvar
//     wake per chunk cost more than the work.  The caller publishes one
//     stack-allocated job, wakes at most max_participants − 1 workers, and
//     then claims chunks itself from the same atomic cursor the helpers
//     use.  The cap is enforced where a worker joins: a job already
//     holding max_participants − 1 helpers is skipped, so a worker woken
//     for another caller's work never exceeds it.  Completion is a
//     per-call latch: the call returns once every chunk is finished and no
//     helper is still inside the job, so a helper that wakes after the
//     cursor ran out claims nothing and never touches the caller's frame.
//     Because the caller can always finish every chunk alone, concurrent
//     run_chunks calls — and calls made from inside a pool task — cannot
//     deadlock.  The call rethrows its own first chunk exception to its
//     own caller.
//
// No work stealing: predict() calls are uniform, so a shared cursor
// balances as well and keeps the reasoning about determinism simple.

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <deque>
#include <exception>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <type_traits>
#include <vector>

namespace rvhpc::engine {

/// Every hardware thread: std::thread::hardware_concurrency(), or 1 when
/// the host cannot say.  What `--jobs=0` means on every binary, and the
/// size of shared_pool().
[[nodiscard]] int hardware_jobs();

/// Worker cap to use when the caller does not say: the RVHPC_JOBS
/// environment variable if set to a positive integer, else
/// hardware_jobs().
[[nodiscard]] int default_jobs();

class ThreadPool {
 public:
  /// Spawns `threads` workers (clamped to >= 1).  Production code uses
  /// shared_pool(); tests build private pools of a known size.
  explicit ThreadPool(int threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Queues `task` for the next free worker.  `task` must not throw.
  void submit(std::function<void()> task);

  /// Calls `fn(i)` exactly once for every i in [0, n), spread over the
  /// calling thread and at most max_participants − 1 workers at a time,
  /// and returns when all n calls are done.  The first exception a call
  /// throws stops further claims and is rethrown here, after every
  /// claimed chunk has finished.  Allocates nothing: the job lives on the
  /// caller's stack.
  template <typename F>
  void run_chunks(std::size_t n, F&& fn, int max_participants) {
    using Fn = std::remove_reference_t<F>;
    Bulk job;
    job.n = n;
    job.ctx = const_cast<void*>(static_cast<const void*>(std::addressof(fn)));
    job.call = [](void* ctx, std::size_t i) { (*static_cast<Fn*>(ctx))(i); };
    run_bulk(job, max_participants);
  }

  [[nodiscard]] int size() const { return static_cast<int>(workers_.size()); }

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
    int limit = 0;                ///< most helpers inside at once
    Bulk* next_bulk = nullptr;    ///< bulk_head_ list link; guarded by mu_
    std::condition_variable left_cv;  ///< helpers dropped to 0
    std::atomic<bool> failed{false};
    std::exception_ptr error;  ///< written once, by whoever set `failed`
  };

  void run_bulk(Bulk& job, int max_participants);
  static void drain(Bulk& job) noexcept;
  /// First linked job with chunks left to claim and a helper slot free;
  /// unlinks exhausted ones.  Caller holds mu_.
  Bulk* open_bulk();
  /// Removes `job` from bulk_head_ if still linked.  Caller holds mu_.
  void unlink(Bulk& job);
  void worker_loop();

  std::mutex mu_;
  std::condition_variable work_cv_;  ///< a task was queued or a job opened
  std::deque<std::function<void()>> queue_;
  Bulk* bulk_head_ = nullptr;  ///< run_chunks() jobs open to helpers
  bool stop_ = false;
  std::vector<std::thread> workers_;
};

/// The process-wide pool: hardware_jobs() workers, started by the first
/// call and never destroyed.  Call it only on a parallel path, so work
/// that stays serial (jobs = 1, one-item batches) starts no thread.
[[nodiscard]] ThreadPool& shared_pool();

/// Calls `fn(i)` for every i in [0, n) on the calling thread and at most
/// jobs − 1 shared_pool() workers (ThreadPool::run_chunks).  With
/// jobs <= 1 or n <= 1 it runs inline and never starts the pool.
template <typename F>
void parallel_for(std::size_t n, int jobs, F&& fn) {
  if (jobs <= 1 || n <= 1) {
    for (std::size_t i = 0; i < n; ++i) fn(i);
    return;
  }
  shared_pool().run_chunks(n, fn, jobs);
}

}  // namespace rvhpc::engine
