#pragma once
// rvhpc::sim — interval-simulation prediction backend.
//
// A second, mechanistically independent way to predict every machine x
// kernel x core-count point: instead of the analytic ECM fixed point
// (model/predictor.cpp), a coarse in-order *interval* core model in the
// Karkhanis/Smith style is stepped op by op.  One representative core
// dispatches signature operations at its calibrated steady-state rate,
// punctuated by stall intervals whenever the memory system cannot keep
// up:
//
//   * every memory access is routed through a real memsim::Hierarchy
//     built from the machine's cache levels (scaled to one core's slice),
//     so hit/miss behaviour *emerges* from footprints and capacities
//     rather than being assumed from the signature's hit fractions;
//   * streamed (prefetchable) DRAM lines occupy a memsim::DramModel
//     queue sized to this core's fair share of chip bandwidth — when the
//     prefetcher's bounded run-ahead queue fills, the core throttles to
//     the drain rate and the stall is charged to stream-bandwidth time;
//   * non-prefetchable (random) misses expose the DRAM's load-inflated
//     latency, divided by the miss-level parallelism the access pattern
//     and the core's MSHRs allow — charged to latency time.
//
// The interval loop's buckets extrapolate to the full run (Amdahl serial
// share at the single-core rate, sync/imbalance from the shared
// model::scaling helpers — deliberately the *same* calibration, so any
// divergence from the analytic backend localises to the memory/overlap
// mechanism).  bench/backend_calibration sweeps both backends and gates
// their bottleneck agreement; DESIGN.md §12 documents where the two are
// expected to differ.
//
// Everything here is deterministic (fixed xorshift seeds, no wall clock)
// and pure (all state is local to the call), so the engine's bit-identity
// guarantees hold for backend=interval exactly as for the analytic path.

#include <cstddef>
#include <cstdint>
#include <vector>

#include "arch/machine.hpp"
#include "memsim/trace.hpp"
#include "model/predictor.hpp"
#include "model/workload.hpp"

namespace rvhpc::sim {

/// Knobs of the interval simulation.  Defaults are what the engine's
/// interval backend uses; tests shrink them for speed and the calibration
/// bench keeps them at defaults so the checked-in artifact matches what a
/// `backend=interval` request over TCP computes.
struct IntervalConfig {
  /// Representative-core signature operations stepped per call.
  std::uint64_t sim_ops = 10000;
  /// Leading fraction of sim_ops that warms caches/DRAM state but is
  /// excluded from the timing buckets.
  double warmup_fraction = 0.2;
  /// The largest simulated footprint is rescaled to about this many MiB
  /// (cache capacities shrink by the same factor, preserving fit ratios).
  double target_footprint_mib = 8.0;
  /// Seed for the deterministic address synthesiser.
  std::uint64_t seed = 0x5eedULL;
};

/// What the interval core actually did — exposed so tests can check the
/// memory side against a raw memsim::Hierarchy and the calibration bench
/// can report mechanism-level detail.
struct IntervalCounters {
  std::uint64_t measured_ops = 0;      ///< post-warmup ops in the buckets
  std::uint64_t accesses = 0;          ///< hierarchy accesses, whole run
  std::uint64_t dram_lines = 0;        ///< of those, satisfied by DRAM
  /// Per-level (0 = L1) hierarchy hits over the whole run, warmup
  /// included — comparable against an identically driven Hierarchy.
  std::vector<std::uint64_t> level_hits;
  double footprint_scale = 1.0;        ///< applied footprint/cache scale
  double dispatch_cycles = 0.0;        ///< issue-limited dispatch (measured)
  double stream_stall_cycles = 0.0;    ///< prefetch-queue backpressure
  double latency_stall_cycles = 0.0;   ///< exposed miss/hit latency
  double bw_bound_fraction = 0.0;      ///< DramModel saturated-window share
};

struct IntervalReport {
  model::Prediction prediction;
  IntervalCounters counters;
};

/// One synthesised memory access of the interval core.
struct SimAccess {
  std::uint64_t addr = 0;
  bool is_write = false;
  bool streamed = false;  ///< prefetchable sweep vs. random/dependent
};

/// Deterministic per-op address synthesiser: converts the signature's
/// streamed_bytes_per_op / random_access_per_op rates into discrete line
/// accesses via fractional credit accumulators.  Public so tests can
/// drive an identical stream through a raw memsim::Hierarchy and require
/// hit/miss agreement with the interval core (the engine and memsim must
/// never drift apart silently).
class SignatureStream {
 public:
  /// `stream_bytes` / `random_bytes` are the *scaled* footprints this
  /// core sweeps; rates come from `sig` unchanged.
  SignatureStream(const model::WorkloadSignature& sig,
                  std::uint64_t stream_bytes, std::uint64_t random_bytes,
                  int line_bytes, std::uint64_t seed);

  /// Appends the accesses the next op issues to `out` (not cleared).
  void next_op(std::vector<SimAccess>& out);

  /// Most accesses one next_op() appends.
  [[nodiscard]] std::size_t max_accesses_per_op() const;

  /// Most distinct lines `ops` calls of next_op() can touch.
  [[nodiscard]] std::uint64_t max_lines(std::uint64_t ops) const;

 private:
  double stream_lines_per_op_;
  double random_per_op_;
  double write_ratio_;
  double stream_credit_ = 0.0;
  double random_credit_ = 0.0;
  std::uint64_t stream_footprint_;
  std::uint64_t random_footprint_;
  std::uint64_t stream_offset_ = 0;
  int line_bytes_;
  memsim::XorShift rng_;
};

/// The cache hierarchy one active core out of `active_cores` sees: every
/// level shrunk to this core's capacity slice times `footprint_scale`,
/// shared_by_cores forced to 1.  Exposed for the sim-vs-memsim agreement
/// test, which must rebuild the identical Hierarchy.
[[nodiscard]] arch::MachineModel per_core_slice(const arch::MachineModel& m,
                                                int active_cores,
                                                double footprint_scale);

/// The footprint/cache rescale factor simulate() applies for `sig` at
/// `active_cores` under `icfg` (<= 1; 1 when everything already fits the
/// configured target).
[[nodiscard]] double footprint_scale(const model::WorkloadSignature& sig,
                                     int active_cores,
                                     const IntervalConfig& icfg);

/// Runs the interval model and returns the prediction plus mechanism
/// counters.  Emits an obs::PredictionRecord tagged backend="interval"
/// when a trace session is active.
[[nodiscard]] IntervalReport simulate(const arch::MachineModel& m,
                                      const model::WorkloadSignature& sig,
                                      const model::RunConfig& cfg,
                                      const IntervalConfig& icfg = {});

/// The engine-facing entry point: simulate() with default knobs,
/// prediction only.
[[nodiscard]] model::Prediction predict_interval(
    const arch::MachineModel& m, const model::WorkloadSignature& sig,
    const model::RunConfig& cfg);

}  // namespace rvhpc::sim
