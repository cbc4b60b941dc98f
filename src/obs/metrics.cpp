#include "obs/metrics.hpp"

#include <algorithm>
#include <chrono>
#include <sstream>
#include <stdexcept>

#include "obs/json.hpp"

namespace rvhpc::obs {
namespace {

std::atomic<bool> g_metrics_enabled{false};

double steady_ns() {
  return static_cast<double>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

std::string fmt_double(double v) {
  std::ostringstream os;
  os << v;
  return os.str();
}

}  // namespace

Histogram::Histogram(std::vector<double> bounds) : bounds_(std::move(bounds)) {
  if (bounds_.empty() || !std::is_sorted(bounds_.begin(), bounds_.end())) {
    throw std::invalid_argument("Histogram: bounds must be sorted, non-empty");
  }
  for (Shard& s : shards_) s.counts.assign(bounds_.size() + 1, 0);
}

// rvhpc: hot-path begin — every timed predict() lands here, from every
// engine worker: one uncontended shard lock, no allocation (S1xx guards it).
void Histogram::observe(double v) {
  const auto it = std::lower_bound(bounds_.begin(), bounds_.end(), v);
  const std::size_t bucket =
      static_cast<std::size_t>(it - bounds_.begin());  // overflow -> last
  Shard& s = shards_[static_cast<unsigned>(thread_id()) & (kShards - 1)];
  std::lock_guard<std::mutex> lock(s.mutex);
  ++s.counts[bucket];
  s.sum += v;
  if (s.count == 0 || v < s.min) s.min = v;
  if (s.count == 0 || v > s.max) s.max = v;
  ++s.count;
}
// rvhpc: hot-path end

Histogram::Totals Histogram::merged() const {
  Totals m;
  m.counts.assign(bounds_.size() + 1, 0);
  for (const Shard& s : shards_) {
    std::lock_guard<std::mutex> lock(s.mutex);
    if (s.count == 0) continue;
    for (std::size_t i = 0; i < m.counts.size(); ++i) m.counts[i] += s.counts[i];
    if (m.count == 0 || s.min < m.min) m.min = s.min;
    if (m.count == 0 || s.max > m.max) m.max = s.max;
    m.sum += s.sum;
    m.count += s.count;
  }
  return m;
}

std::uint64_t Histogram::count() const { return merged().count; }

double Histogram::sum() const { return merged().sum; }

double Histogram::min() const { return merged().min; }

double Histogram::max() const { return merged().max; }

double Histogram::percentile(double p) const {
  const Totals m = merged();
  if (m.count == 0) return 0.0;
  p = std::clamp(p, 0.0, 100.0);
  const double target = p / 100.0 * static_cast<double>(m.count);
  std::uint64_t seen = 0;
  for (std::size_t i = 0; i < m.counts.size(); ++i) {
    if (m.counts[i] == 0) continue;
    const double lo = i == 0 ? m.min : bounds_[i - 1];
    const double hi = i < bounds_.size() ? bounds_[i] : m.max;
    const double before = static_cast<double>(seen);
    seen += m.counts[i];
    if (static_cast<double>(seen) >= target) {
      const double frac = std::clamp(
          (target - before) / static_cast<double>(m.counts[i]), 0.0, 1.0);
      return std::clamp(lo + frac * (hi - lo), m.min, m.max);
    }
  }
  return m.max;
}

std::vector<std::uint64_t> Histogram::bucket_counts() const {
  return merged().counts;
}

void Histogram::reset() {
  for (Shard& s : shards_) {
    std::lock_guard<std::mutex> lock(s.mutex);
    std::fill(s.counts.begin(), s.counts.end(), 0);
    s.count = 0;
    s.sum = s.min = s.max = 0.0;
  }
}

std::vector<double> default_time_bounds() {
  // 1 us .. 100 s, quarter-decade steps: resolves both a single predict()
  // call and a full-suite sweep on one scale.
  std::vector<double> b;
  for (double v = 1e-6; v < 200.0; v *= 1.7782794100389228) b.push_back(v);
  return b;
}

Counter& Registry::counter(const std::string& name, const std::string& help) {
  std::lock_guard<std::mutex> lock(mutex_);
  Entry& e = entries_[name];
  if (!e.counter) {
    e.kind = Kind::Counter;
    e.help = help;
    e.counter = std::make_unique<Counter>();
  }
  return *e.counter;
}

Gauge& Registry::gauge(const std::string& name, const std::string& help) {
  std::lock_guard<std::mutex> lock(mutex_);
  Entry& e = entries_[name];
  if (!e.gauge) {
    e.kind = Kind::Gauge;
    e.help = help;
    e.gauge = std::make_unique<Gauge>();
  }
  return *e.gauge;
}

Histogram& Registry::histogram(const std::string& name, const std::string& help,
                               std::vector<double> bounds) {
  std::lock_guard<std::mutex> lock(mutex_);
  Entry& e = entries_[name];
  if (!e.histogram) {
    e.kind = Kind::Histogram;
    e.help = help;
    e.histogram = std::make_unique<Histogram>(
        bounds.empty() ? default_time_bounds() : std::move(bounds));
  }
  return *e.histogram;
}

std::string Registry::render_text() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::ostringstream os;
  for (const auto& [name, e] : entries_) {
    if (!e.help.empty()) os << "# HELP " << name << " " << e.help << "\n";
    switch (e.kind) {
      case Kind::Counter:
        os << name << " " << e.counter->value() << "\n";
        break;
      case Kind::Gauge:
        os << name << " " << fmt_double(e.gauge->value()) << "\n";
        break;
      case Kind::Histogram: {
        const Histogram& h = *e.histogram;
        os << name << "_count " << h.count() << "\n"
           << name << "_sum " << fmt_double(h.sum()) << "\n";
        if (h.count() > 0) {
          os << name << "_min " << fmt_double(h.min()) << "\n"
             << name << "_max " << fmt_double(h.max()) << "\n"
             << name << "_p50 " << fmt_double(h.percentile(50)) << "\n"
             << name << "_p90 " << fmt_double(h.percentile(90)) << "\n"
             << name << "_p99 " << fmt_double(h.percentile(99)) << "\n";
        }
        break;
      }
    }
  }
  return os.str();
}

std::string Registry::render_json() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::ostringstream os;
  os << "{";
  bool first = true;
  for (const auto& [name, e] : entries_) {
    if (!first) os << ",";
    first = false;
    os << "\n  \"" << json::escape(name) << "\": {";
    os << "\"help\": \"" << json::escape(e.help) << "\", ";
    switch (e.kind) {
      case Kind::Counter:
        os << "\"type\": \"counter\", \"value\": " << e.counter->value();
        break;
      case Kind::Gauge:
        os << "\"type\": \"gauge\", \"value\": " << json::number(e.gauge->value());
        break;
      case Kind::Histogram: {
        const Histogram& h = *e.histogram;
        os << "\"type\": \"histogram\", \"count\": " << h.count()
           << ", \"sum\": " << json::number(h.sum());
        if (h.count() > 0) {
          os << ", \"min\": " << json::number(h.min())
             << ", \"max\": " << json::number(h.max())
             << ", \"p50\": " << json::number(h.percentile(50))
             << ", \"p90\": " << json::number(h.percentile(90))
             << ", \"p99\": " << json::number(h.percentile(99));
        }
        break;
      }
    }
    os << "}";
  }
  os << "\n}\n";
  return os.str();
}

void Registry::reset() {
  std::lock_guard<std::mutex> lock(mutex_);
  for (auto& [name, e] : entries_) {
    (void)name;
    if (e.counter) e.counter->reset();
    if (e.gauge) e.gauge->reset();
    if (e.histogram) e.histogram->reset();
  }
}

Registry& Registry::global() {
  static Registry* r = new Registry();  // leaked: outlives static dtors
  return *r;
}

bool metrics_enabled() {
  return g_metrics_enabled.load(std::memory_order_relaxed);
}

void set_metrics_enabled(bool on) {
  g_metrics_enabled.store(on, std::memory_order_relaxed);
}

ScopedTimer::ScopedTimer(Histogram* h) : h_(h) {
  if (h_) start_ns_ = steady_ns();
}

ScopedTimer::~ScopedTimer() {
  if (h_) h_->observe((steady_ns() - start_ns_) * 1e-9);
}

Histogram* timer_target(const char* name) {
  if (!metrics_enabled()) return nullptr;
  return &Registry::global().histogram(name);
}

}  // namespace rvhpc::obs
