#include "engine/thread_pool.hpp"

#include <algorithm>
#include <cstdlib>
#include <string>
#include <utility>

#ifdef __linux__
#include <pthread.h>
#include <sched.h>
#endif

namespace rvhpc::engine {

namespace {

/// Best-effort: pin the calling thread to the `domain`-th of `domains`
/// contiguous CPU blocks.  Returns whether the affinity call succeeded;
/// any failure (no permission, exotic cpuset, non-Linux host) leaves the
/// thread free-running, which is always correct, just unplaced.
bool pin_to_domain(int domain, int domains, int hw) {
#ifdef __linux__
  if (domains <= 1 || hw < domains) return false;
  const int per = hw / domains;                    // block size, >= 1
  const int lo = domain * per;
  const int hi = (domain == domains - 1) ? hw : lo + per;  // last takes slack
  cpu_set_t set;
  CPU_ZERO(&set);
  for (int cpu = lo; cpu < hi; ++cpu) CPU_SET(cpu, &set);
  return pthread_setaffinity_np(pthread_self(), sizeof set, &set) == 0;
#else
  (void)domain;
  (void)domains;
  (void)hw;
  return false;
#endif
}

}  // namespace

PlacementHints placement_for(const arch::MachineModel& m) {
  PlacementHints h;
  if (!m.topology.flat())
    h.domains = static_cast<int>(m.topology.domains.size());
  return h;
}

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

ThreadPool::ThreadPool(int threads) : ThreadPool(threads, PlacementHints{}) {}

ThreadPool::ThreadPool(int threads, const PlacementHints& hints) {
  const int n = std::max(threads, 1);
  domains_ = std::max(hints.domains, 1);
  // The gate: only place when the host actually has one CPU per domain.
  // A single-CPU CI box therefore takes exactly the unhinted path.
  const int hw = static_cast<int>(std::thread::hardware_concurrency());
  const bool place = domains_ > 1 && hw >= domains_;
  workers_.reserve(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    const int domain = domain_of(i);
    workers_.emplace_back([this, domain, place, hw] {
      if (place && pin_to_domain(domain, domains_, hw)) ++placed_;
      worker_loop();
    });
  }
}

int ThreadPool::domain_of(int worker) const {
  // Round-robin, so any pool size spreads as evenly as possible over the
  // hinted domains (the same filled-first order topo::domains_spanned
  // assumes is immaterial here: every domain hosts ceil/floor(n/d)).
  return domains_ > 1 ? worker % domains_ : 0;
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
    ++in_flight_;
  }
  work_cv_.notify_one();
}

void ThreadPool::wait() {
  std::unique_lock lock(mu_);
  idle_cv_.wait(lock, [this] { return in_flight_ == 0; });
  if (first_error_) {
    std::exception_ptr e = std::exchange(first_error_, nullptr);
    lock.unlock();
    std::rethrow_exception(e);
  }
}

void ThreadPool::run_bulk(Bulk& job) {
  if (job.n == 0) return;
  const std::size_t helpers =
      std::min(static_cast<std::size_t>(size()), job.n - 1);
  if (helpers > 0) {
    {
      std::lock_guard lock(mu_);
      job.next_bulk = bulk_head_;
      bulk_head_ = &job;
    }
    if (helpers == workers_.size()) {
      work_cv_.notify_all();
    } else {
      for (std::size_t i = 0; i < helpers; ++i) work_cv_.notify_one();
    }
  }
  drain(job);  // the caller claims chunks too, so progress never waits on a wake
  if (helpers > 0) {
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
    if (job->next.load(std::memory_order_relaxed) < job->n) return job;
    *link = job->next_bulk;  // exhausted: nothing left for helpers
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
    try {
      task();
    } catch (...) {
      std::lock_guard lock(mu_);
      if (!first_error_) first_error_ = std::current_exception();
    }
    {
      std::lock_guard lock(mu_);
      if (--in_flight_ == 0) idle_cv_.notify_all();
    }
  }
}

}  // namespace rvhpc::engine
