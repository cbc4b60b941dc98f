#include "engine/thread_pool.hpp"

#include <algorithm>
#include <cstdlib>
#include <utility>

namespace rvhpc::engine {

int hardware_jobs() {
  const unsigned hw = std::thread::hardware_concurrency();
  return hw > 0 ? static_cast<int>(hw) : 1;
}

int default_jobs() {
  if (const char* env = std::getenv("RVHPC_JOBS")) {
    char* end = nullptr;
    const long v = std::strtol(env, &end, 10);
    if (end != env && *end == '\0' && v > 0 && v <= 4096)
      return static_cast<int>(v);
  }
  return hardware_jobs();
}

ThreadPool& shared_pool() {
  // Never freed, like obs::Registry: a worker may still be parked in it
  // while static destructors run.
  static ThreadPool* const pool = new ThreadPool(hardware_jobs());
  return *pool;
}

ThreadPool::ThreadPool(int threads) {
  const int n = std::max(threads, 1);
  workers_.reserve(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) workers_.emplace_back([this] { worker_loop(); });
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard lock(mu_);
    stop_ = true;
  }
  work_cv_.notify_all();
  for (std::thread& w : workers_) w.join();
}

void ThreadPool::submit(std::function<void()> task) {
  {
    std::lock_guard lock(mu_);
    queue_.push_back(std::move(task));
  }
  work_cv_.notify_one();
}

void ThreadPool::run_bulk(Bulk& job, int max_participants) {
  if (job.n == 0) return;
  // The caller is one participant; helpers fill the rest of the cap.
  const auto cap =
      static_cast<std::size_t>(std::max(max_participants - 1, 0));
  job.limit = static_cast<int>(std::min({workers_.size(), cap, job.n - 1}));
  if (job.limit > 0) {
    {
      std::lock_guard lock(mu_);
      job.next_bulk = bulk_head_;
      bulk_head_ = &job;
    }
    if (job.limit == size()) {
      work_cv_.notify_all();
    } else {
      for (int i = 0; i < job.limit; ++i) work_cv_.notify_one();
    }
  }
  drain(job);  // the caller claims chunks too, so progress never waits on a wake
  if (job.limit > 0) {
    std::unique_lock lock(mu_);
    unlink(job);
    // Unlinked: no helper can join any more.  Those still inside are
    // finishing chunks they already claimed — the latch is that count.
    job.left_cv.wait(lock, [&job] { return job.helpers == 0; });
  }
  if (job.failed.load(std::memory_order_acquire))
    std::rethrow_exception(job.error);
}

void ThreadPool::drain(Bulk& job) noexcept {
  // rvhpc: hot-path begin — chunk dispatch: one relaxed fetch_add per
  // chunk, no allocation, no lock (rvhpc-lint S1xx guards this).
  for (;;) {
    const std::size_t i = job.next.fetch_add(1, std::memory_order_relaxed);
    if (i >= job.n) return;
    try {
      job.call(job.ctx, i);
    } catch (...) {
      if (!job.failed.exchange(true, std::memory_order_acq_rel))
        job.error = std::current_exception();
      job.next.store(job.n, std::memory_order_relaxed);  // stop claims
    }
  }
  // rvhpc: hot-path end
}

ThreadPool::Bulk* ThreadPool::open_bulk() {
  Bulk** link = &bulk_head_;
  while (Bulk* job = *link) {
    if (job->next.load(std::memory_order_relaxed) >= job->n) {
      *link = job->next_bulk;  // exhausted: nothing left for helpers
    } else if (job->helpers < job->limit) {
      return job;
    } else {
      link = &job->next_bulk;  // at its cap: only its own helpers run it
    }
  }
  return nullptr;
}

void ThreadPool::unlink(Bulk& job) {
  for (Bulk** link = &bulk_head_; *link; link = &(*link)->next_bulk) {
    if (*link == &job) {
      *link = job.next_bulk;
      return;
    }
  }
}

void ThreadPool::worker_loop() {
  for (;;) {
    std::function<void()> task;
    Bulk* job = nullptr;
    {
      std::unique_lock lock(mu_);
      work_cv_.wait(lock, [this, &job] {
        job = open_bulk();
        return job != nullptr || stop_ || !queue_.empty();
      });
      if (job) {
        ++job->helpers;  // the job's caller cannot return until we leave
      } else {
        if (queue_.empty()) return;  // stop_ with a drained queue
        task = std::move(queue_.front());
        queue_.pop_front();
      }
    }
    if (job) {
      drain(*job);
      std::lock_guard lock(mu_);
      // Notify under mu_: once helpers hits 0 the caller may return and
      // destroy the job, so nothing may touch it after the unlock.
      if (--job->helpers == 0) job->left_cv.notify_one();
      continue;
    }
    task();
  }
}

}  // namespace rvhpc::engine
