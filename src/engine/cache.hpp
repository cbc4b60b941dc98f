#pragma once
// rvhpc::engine — LRU memoisation cache for predictions.
//
// Repeated sweep points are everywhere: suite_summary evaluates the same
// (machine, kernel, 64-core) cells Tables 3 and 4 do, every times_faster
// call re-predicts its baseline, and sensitivity analysis re-evaluates the
// unperturbed centre for each parameter.  predict() is pure, so a hash of
// the full request (machine fields, signature fields, cores, compiler,
// placement — see request.cpp) is a sound memo key.
//
// The cache is shared across pool threads behind one mutex; a lookup is a
// hash-map probe and a list splice, orders of magnitude cheaper than the
// predict() it saves.  Hit/miss/eviction counts are published through
// obs::metrics (rvhpc_engine_cache_{hits,misses,evictions}_total).

#include <cstddef>
#include <cstdint>
#include <list>
#include <mutex>
#include <optional>
#include <unordered_map>
#include <vector>

#include "model/predictor.hpp"

namespace rvhpc::engine {

/// One resident cache entry, as exported by PredictionCache::entries().
/// The serve layer's persistent cache (serve/persist.hpp) writes these to
/// disk and replays them through put() on load.
struct CacheEntry {
  std::uint64_t key = 0;
  model::Prediction prediction;
};

class PredictionCache {
 public:
  /// `capacity` = maximum resident entries; 0 disables caching entirely.
  explicit PredictionCache(std::size_t capacity = kDefaultCapacity);

  /// The cached prediction for `key`, refreshing its LRU position.
  [[nodiscard]] std::optional<model::Prediction> get(std::uint64_t key);

  /// As get(), except that a miss is not counted.  The serving front end
  /// probes with find() on its event loop and answers a hit inline, in
  /// one lookup; a miss goes to the compute pool, whose get() is the
  /// lookup that counts it.
  [[nodiscard]] std::optional<model::Prediction> find(std::uint64_t key);

  /// Inserts (or refreshes) `key`; evicts the least-recently-used entry
  /// when full.
  void put(std::uint64_t key, const model::Prediction& p);

  void clear();

  /// Every resident entry, most-recently-used first — the serialisation
  /// hook the persistent cache uses.  Replaying the snapshot through put()
  /// in *reverse* (LRU first) reproduces the exact recency order, which is
  /// how save/load preserves eviction behaviour across processes.
  [[nodiscard]] std::vector<CacheEntry> entries() const;

  [[nodiscard]] std::size_t size() const;
  [[nodiscard]] std::size_t capacity() const { return capacity_; }

  /// Counters for this cache instance (the obs counters aggregate across
  /// all instances; tests want per-instance numbers).
  [[nodiscard]] std::uint64_t hits() const;
  [[nodiscard]] std::uint64_t misses() const;
  [[nodiscard]] std::uint64_t evictions() const;

  /// Default sized for a full suite sweep (11 machines × 12 kernels × 5
  /// classes × ~8 core counts ≈ 5k distinct points) with headroom.
  static constexpr std::size_t kDefaultCapacity = 16384;

 private:
  struct Entry {
    std::uint64_t key;
    model::Prediction prediction;
  };

  std::optional<model::Prediction> lookup(std::uint64_t key, bool count_miss);

  mutable std::mutex mu_;
  std::size_t capacity_;
  std::list<Entry> lru_;  ///< front = most recently used
  std::unordered_map<std::uint64_t, std::list<Entry>::iterator> index_;
  std::uint64_t hits_ = 0;
  std::uint64_t misses_ = 0;
  std::uint64_t evictions_ = 0;
};

}  // namespace rvhpc::engine
