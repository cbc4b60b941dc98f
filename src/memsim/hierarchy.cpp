#include "memsim/hierarchy.hpp"

#include <algorithm>
#include <stdexcept>
#include <string>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace rvhpc::memsim {
namespace {

/// How often access() flushes its access tallies into the obs counters and
/// emits an aggregate cache-stats instant when a trace session is active.
/// Coarse enough that multi-million-access traces stay tractable, fine
/// enough to see hit-rate drift over a run.
constexpr std::uint64_t kObsEventStride = 4096;

const char* level_name(std::size_t level, std::size_t levels) {
  if (level + 1 == levels && levels >= 3) return "l3";
  switch (level) {
    case 0: return "l1";
    case 1: return "l2";
    default: return "l3";
  }
}

}  // namespace

Hierarchy::Hierarchy(const arch::MachineModel& m, int cores, bool coherent)
    : cores_(cores), coherent_(coherent) {
  if (cores < 1 || cores > m.cores) {
    throw std::invalid_argument("Hierarchy: core count out of range");
  }
  std::vector<int> level_sharers;
  for (const arch::CacheLevel& lvl : m.caches) {
    const int sharers = std::max(1, lvl.shared_by_cores);
    const int instances = (cores + sharers - 1) / sharers;
    std::vector<Cache> row;
    row.reserve(static_cast<std::size_t>(instances));
    for (int i = 0; i < instances; ++i) {
      row.emplace_back(lvl.size_bytes, lvl.associativity, lvl.line_bytes);
    }
    level_caches_.push_back(std::move(row));
    level_sharers.push_back(sharers);
    latencies_.push_back(lvl.latency_cycles);
  }
  route_.reserve(static_cast<std::size_t>(cores) * level_caches_.size());
  for (int core = 0; core < cores; ++core) {
    for (std::size_t level = 0; level < level_caches_.size(); ++level) {
      route_.push_back(&level_caches_[level][static_cast<std::size_t>(
          core / level_sharers[level])]);
    }
  }
}

Hierarchy::~Hierarchy() { flush_counters(); }

void Hierarchy::reserve(std::size_t lines) {
  for (auto& row : level_caches_) {
    for (Cache& c : row) c.reserve(lines);
  }
}

void Hierarchy::flush_counters() {
  if (obs::metrics_enabled()) {
    static obs::Counter& total = obs::Registry::global().counter(
        "rvhpc_memsim_accesses_total", "accesses routed through Hierarchy");
    static obs::Counter& dram = obs::Registry::global().counter(
        "rvhpc_memsim_dram_accesses_total",
        "accesses that fell through to DRAM");
    if (accesses_ != counted_accesses_) {
      total.add(accesses_ - counted_accesses_);
    }
    if (uncounted_dram_ != 0) dram.add(uncounted_dram_);
  }
  counted_accesses_ = accesses_;
  uncounted_dram_ = 0;
}

HitLevel Hierarchy::access(int core, std::uint64_t addr, bool is_write) {
  const std::size_t levels = level_caches_.size();
  Cache* const* route = &route_[static_cast<std::size_t>(core) * levels];
  HitLevel result = HitLevel::Dram;
  for (std::size_t level = 0; level < levels; ++level) {
    if (route[level]->access(addr, is_write).hit) {
      // Fill upwards so inner levels hold the line next time.
      result = static_cast<HitLevel>(level);
      break;
    }
  }
  if (coherent_ && is_write) {
    // MESI-lite: the writer gains exclusive ownership; every other
    // instance of each non-chip-wide level drops its copy.
    for (std::size_t level = 0; level < levels; ++level) {
      auto& row = level_caches_[level];
      if (row.size() <= 1) continue;  // chip-shared level: nothing to do
      for (Cache& c : row) {
        if (&c != route[level]) c.invalidate(addr);
      }
    }
  }
  if (result == HitLevel::Dram) ++uncounted_dram_;
  if (++accesses_ % kObsEventStride == 0) {
    flush_counters();
    if (obs::TraceSession* s = obs::session()) {
      obs::Args args = {{"accesses", std::to_string(accesses_)}};
      for (std::size_t i = 0; i < levels; ++i) {
        const CacheStats st = level_stats(i);
        const char* name = level_name(i, levels);
        args.emplace_back(std::string(name) + "_hits", std::to_string(st.hits));
        args.emplace_back(std::string(name) + "_misses",
                          std::to_string(st.misses));
      }
      s->add_instant("cache-stats", "memsim", std::move(args));
    }
  }
  return result;
}

std::uint64_t Hierarchy::coherence_invalidations(std::size_t i) const {
  std::uint64_t total = 0;
  for (const Cache& c : level_caches_.at(i)) {
    total += c.coherence_invalidations();
  }
  return total;
}

CacheStats Hierarchy::level_stats(std::size_t i) const {
  CacheStats total;
  for (const Cache& c : level_caches_.at(i)) {
    const CacheStats& s = c.stats();
    total.accesses += s.accesses;
    total.hits += s.hits;
    total.misses += s.misses;
    total.evictions += s.evictions;
    total.writebacks += s.writebacks;
  }
  return total;
}

double Hierarchy::level_latency(std::size_t i) const { return latencies_.at(i); }

}  // namespace rvhpc::memsim
