#include "engine/cache.hpp"

#include "obs/metrics.hpp"

namespace rvhpc::engine {
namespace {

void count_cache_event(const char* which) {
  if (!obs::metrics_enabled()) return;
  static obs::Counter& hits = obs::Registry::global().counter(
      "rvhpc_engine_cache_hits_total", "prediction memo cache hits");
  static obs::Counter& misses = obs::Registry::global().counter(
      "rvhpc_engine_cache_misses_total", "prediction memo cache misses");
  static obs::Counter& evictions = obs::Registry::global().counter(
      "rvhpc_engine_cache_evictions_total", "prediction memo cache evictions");
  switch (which[0]) {
    case 'h': hits.add(); break;
    case 'm': misses.add(); break;
    default:  evictions.add(); break;
  }
}

}  // namespace

PredictionCache::PredictionCache(std::size_t capacity) : capacity_(capacity) {}

// rvhpc: hot-path begin — engine memo lookup: every batched request pays
// this on the warm path, so it must stay allocation-free (S1xx guards it).
std::optional<model::Prediction> PredictionCache::lookup(std::uint64_t key,
                                                         bool count_miss) {
  if (capacity_ == 0) return std::nullopt;
  std::lock_guard lock(mu_);
  const auto it = index_.find(key);
  if (it == index_.end()) {
    if (count_miss) {
      ++misses_;
      count_cache_event("miss");
    }
    return std::nullopt;
  }
  lru_.splice(lru_.begin(), lru_, it->second);
  ++hits_;
  count_cache_event("hit");
  return it->second->prediction;
}
// rvhpc: hot-path end

std::optional<model::Prediction> PredictionCache::get(std::uint64_t key) {
  return lookup(key, /*count_miss=*/true);
}

std::optional<model::Prediction> PredictionCache::find(std::uint64_t key) {
  return lookup(key, /*count_miss=*/false);
}

void PredictionCache::put(std::uint64_t key, const model::Prediction& p) {
  if (capacity_ == 0) return;
  std::lock_guard lock(mu_);
  if (const auto it = index_.find(key); it != index_.end()) {
    it->second->prediction = p;
    lru_.splice(lru_.begin(), lru_, it->second);
    return;
  }
  lru_.push_front(Entry{key, p});
  index_[key] = lru_.begin();
  if (lru_.size() > capacity_) {
    index_.erase(lru_.back().key);
    lru_.pop_back();
    ++evictions_;
    count_cache_event("evict");
  }
}

std::vector<CacheEntry> PredictionCache::entries() const {
  std::lock_guard lock(mu_);
  std::vector<CacheEntry> out;
  out.reserve(lru_.size());
  for (const Entry& e : lru_) out.push_back({e.key, e.prediction});
  return out;
}

void PredictionCache::clear() {
  std::lock_guard lock(mu_);
  lru_.clear();
  index_.clear();
}

std::size_t PredictionCache::size() const {
  std::lock_guard lock(mu_);
  return lru_.size();
}

std::uint64_t PredictionCache::hits() const {
  std::lock_guard lock(mu_);
  return hits_;
}

std::uint64_t PredictionCache::misses() const {
  std::lock_guard lock(mu_);
  return misses_;
}

std::uint64_t PredictionCache::evictions() const {
  std::lock_guard lock(mu_);
  return evictions_;
}

}  // namespace rvhpc::engine
