#pragma once
// rvhpc::obs — self-profiling metrics for the library's own hot paths.
//
// A process-global Registry of named counters, gauges and histograms
// instruments predict() calls, sweep points and memsim accesses.  Like
// tracing, collection is off by default: sites check one relaxed atomic
// bool (metrics_enabled()) and skip everything when it is false, so an
// uninstrumented-feeling fast path survives in production sweeps.  A
// serving instance (serve::Service, net::Server) owns a Registry of its
// own instead: its counters always count, because its stats() reads them.
//
// Instrument references are stable for the registry's lifetime — reset()
// zeroes values but never invalidates a Counter&/Histogram& obtained from
// it, so call sites on the global registry may cache them in
// function-local statics, and an object owning a Registry binds its
// instruments once in its constructor.

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace rvhpc::obs {

/// Dense id of the calling thread (defined in trace.cpp; declared here so
/// Counter can shard without pulling in the tracing header).
[[nodiscard]] int thread_id();

/// Monotonically increasing event count.
///
/// Sharded per thread: add() touches one of 16 cache-line-padded atomics
/// selected by the dense thread id, so an engine pool hammering the same
/// counter (predict calls, cache hits) never bounces a shared line between
/// cores.  value() sums the shards — reads are exact because every add is
/// a relaxed atomic, merely spread out.
class Counter {
 public:
  void add(std::uint64_t n = 1) {
    shards_[static_cast<unsigned>(thread_id()) & (kShards - 1)].v.fetch_add(
        n, std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t value() const {
    std::uint64_t total = 0;
    for (const Shard& s : shards_) total += s.v.load(std::memory_order_relaxed);
    return total;
  }
  void reset() {
    for (Shard& s : shards_) s.v.store(0, std::memory_order_relaxed);
  }

 private:
  static constexpr unsigned kShards = 16;
  struct alignas(64) Shard {
    std::atomic<std::uint64_t> v{0};
  };
  Shard shards_[kShards];
};

/// Last-written value (e.g. the active session's event count).
class Gauge {
 public:
  void set(double v) { v_.store(v, std::memory_order_relaxed); }
  [[nodiscard]] double value() const {
    return v_.load(std::memory_order_relaxed);
  }
  void reset() { v_.store(0.0, std::memory_order_relaxed); }

 private:
  std::atomic<double> v_{0.0};
};

/// Fixed-bucket histogram with percentile estimation.  Observations land
/// in the first bucket whose upper bound is >= the value; percentiles
/// interpolate linearly inside the containing bucket, clamped to the
/// observed min/max so exact-percentile tests are meaningful.
///
/// Sharded per thread like Counter: observe() locks one of 16
/// cache-line-padded shards selected by the dense thread id, so engine
/// workers timing their own predict() calls never wait on each other (a
/// shard lock is only shared by threads whose ids collide mod 16).
/// Readers merge the shards: counts and count add, min/max combine, and
/// sum adds shard sums in shard order — for observations from a single
/// thread that is exactly the sequential sum, so rendered output matches
/// an unsharded histogram byte for byte.
class Histogram {
 public:
  /// `bounds` are strictly increasing bucket upper edges; an implicit
  /// overflow bucket catches everything above the last bound.
  explicit Histogram(std::vector<double> bounds);

  void observe(double v);

  [[nodiscard]] std::uint64_t count() const;
  [[nodiscard]] double sum() const;
  [[nodiscard]] double min() const;
  [[nodiscard]] double max() const;
  /// Value at percentile `p` in [0, 100]; 0 when empty.
  [[nodiscard]] double percentile(double p) const;
  [[nodiscard]] const std::vector<double>& bounds() const { return bounds_; }
  [[nodiscard]] std::vector<std::uint64_t> bucket_counts() const;
  void reset();

 private:
  static constexpr unsigned kShards = 16;
  struct Totals {
    std::vector<std::uint64_t> counts;  ///< bounds_.size() + 1 buckets
    std::uint64_t count = 0;
    double sum = 0.0;
    double min = 0.0;
    double max = 0.0;
  };
  struct alignas(64) Shard : Totals {
    mutable std::mutex mutex;
  };
  /// Every shard folded into one (the reader side).
  [[nodiscard]] Totals merged() const;

  std::vector<double> bounds_;
  Shard shards_[kShards];
};

/// Log-spaced timer bounds, 1 us .. ~100 s — the default for wall-clock
/// histograms so one layout serves predict() and whole-sweep timings.
[[nodiscard]] std::vector<double> default_time_bounds();

/// Named-instrument registry.  Lookup creates on first use; instruments
/// live as long as the registry: the process-wide one for the process,
/// a serving instance's own one for that instance.  A Prometheus label set
/// is part of the name (`family{label="value"}`).
class Registry {
 public:
  Counter& counter(const std::string& name, const std::string& help = "");
  Gauge& gauge(const std::string& name, const std::string& help = "");
  /// `bounds` is used only on first creation (default_time_bounds() when
  /// empty); later lookups return the existing histogram.
  Histogram& histogram(const std::string& name, const std::string& help = "",
                       std::vector<double> bounds = {});

  /// Counter `family` plus every labeled child `family{...}`, summed.
  [[nodiscard]] std::uint64_t sum(const std::string& family) const;

  /// Prometheus-flavoured plain text dump, sorted by name.
  [[nodiscard]] std::string render_text() const;
  /// JSON object keyed by instrument name.
  [[nodiscard]] std::string render_json() const;

  /// Zeroes every instrument (references stay valid).
  void reset();

  /// The process-wide registry all instrumentation sites use.
  static Registry& global();

 private:
  enum class Kind { Counter, Gauge, Histogram };
  struct Entry {
    Kind kind;
    std::string help;
    std::unique_ptr<Counter> counter;
    std::unique_ptr<Gauge> gauge;
    std::unique_ptr<Histogram> histogram;
  };
  mutable std::mutex mutex_;
  std::map<std::string, Entry> entries_;
};

/// Master switch for metrics collection (relaxed atomic read).
[[nodiscard]] bool metrics_enabled();
void set_metrics_enabled(bool on);

/// RAII wall-clock timer: observes elapsed seconds into `h` on
/// destruction; a null target makes both ends no-ops (the disabled path).
class ScopedTimer {
 public:
  explicit ScopedTimer(Histogram* h);
  ~ScopedTimer();
  ScopedTimer(const ScopedTimer&) = delete;
  ScopedTimer& operator=(const ScopedTimer&) = delete;

 private:
  Histogram* h_;
  double start_ns_ = 0.0;
};

/// The global histogram `name` when metrics are on, nullptr otherwise —
/// the one-liner instrumentation sites feed ScopedTimer with.
[[nodiscard]] Histogram* timer_target(const char* name);

}  // namespace rvhpc::obs
