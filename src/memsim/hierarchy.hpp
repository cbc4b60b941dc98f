#pragma once
// rvhpc::memsim — multi-core cache hierarchy.
//
// Builds per-core private levels plus shared levels (cluster L2, chip L3)
// from an arch::MachineModel and routes accesses through them, reporting
// at which level each access hit.

#include <cstddef>
#include <cstdint>
#include <vector>

#include "arch/machine.hpp"
#include "memsim/cache.hpp"

namespace rvhpc::memsim {

/// Where an access was satisfied.
enum class HitLevel : std::uint8_t { L1, L2, L3, Dram };

/// A hierarchy instance for `cores` active cores of machine `m`.
///
/// Shared levels are modelled as single caches accessed by all sharers
/// (sequentially consistent interleaving; no coherence traffic beyond the
/// shared-capacity effect, which is the first-order phenomenon for the
/// stall profiles being reproduced).
class Hierarchy {
 public:
  /// `coherent` enables MESI-lite write-invalidation: a write by one core
  /// drops the line from every other instance of each private/cluster
  /// level, so sharers take coherence misses on their next access.
  /// Profile calibration was done without it (the paper's Table 1 folds
  /// coherence time into the cache-stall bucket), so it defaults off
  /// there and on here for detailed studies.
  explicit Hierarchy(const arch::MachineModel& m, int cores,
                     bool coherent = false);
  /// Flushes the access tallies into the obs counters.
  ~Hierarchy();
  Hierarchy(const Hierarchy&) = delete;
  Hierarchy& operator=(const Hierarchy&) = delete;

  /// Reserves every cache's set pool for `lines` distinct line addresses
  /// (Cache::reserve), so that many accesses allocate nothing.
  void reserve(std::size_t lines);

  /// Routes one access from `core`; returns the deepest level consulted.
  HitLevel access(int core, std::uint64_t addr, bool is_write);

  /// Coherence invalidations delivered at level `i` (0 when not coherent).
  [[nodiscard]] std::uint64_t coherence_invalidations(std::size_t i) const;

  [[nodiscard]] int cores() const { return cores_; }
  [[nodiscard]] std::size_t levels() const { return level_caches_.size(); }

  /// Aggregated stats of level `i` (0 = L1) across all cache instances.
  [[nodiscard]] CacheStats level_stats(std::size_t i) const;

  /// Latency in cycles of level `i` as configured by the machine model.
  [[nodiscard]] double level_latency(std::size_t i) const;

 private:
  int cores_;
  bool coherent_;
  /// Accesses routed so far; every kObsEventStride-th flushes the tallies
  /// below into the obs counters and emits an aggregate cache-stats
  /// instant into the active obs::TraceSession.
  std::uint64_t accesses_ = 0;
  /// The obs counters lag by what has not been flushed yet: accesses_
  /// minus counted_accesses_, and the DRAM fall-throughs since then.
  std::uint64_t counted_accesses_ = 0;
  std::uint64_t uncounted_dram_ = 0;
  std::vector<double> latencies_;
  /// level_caches_[level][instance]; instance = core / sharers.
  std::vector<std::vector<Cache>> level_caches_;
  /// route_[core * levels() + level]: the cache instance `core` consults
  /// at `level` (resolves the core / sharers division once).
  std::vector<Cache*> route_;

  void flush_counters();
};

}  // namespace rvhpc::memsim
