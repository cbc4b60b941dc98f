// rvhpc::sim — interval backend: determinism, memsim agreement, engine
// dispatch, and DNR parity with the analytic model.
//
// The interval backend's contract (DESIGN.md §12) is threefold: it is a
// *pure deterministic* function like model::predict (so the engine's
// bit-identity and memoisation guarantees extend to backend=interval), it
// drives the *real* memsim::Hierarchy (so its hit/miss behaviour can never
// silently drift from the simulator the Table 1 reproduction trusts), and
// it shares the analytic model's feasibility rules (so a DNR point is a
// DNR point on both backends, whichever mechanism a client picks).

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "arch/registry.hpp"
#include "engine/backend.hpp"
#include "engine/batch.hpp"
#include "engine/request.hpp"
#include "memsim/hierarchy.hpp"
#include "memsim/profile.hpp"
#include "model/predictor.hpp"
#include "model/signatures.hpp"
#include "model/sweep.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "sim/interval.hpp"

using namespace rvhpc;
using arch::MachineId;
using model::Kernel;
using model::ProblemClass;

namespace {

model::RunConfig paper_cfg(const arch::MachineModel& m, Kernel k, int cores) {
  return model::paper_run_config(m, k, cores);
}

sim::IntervalConfig small_cfg() {
  sim::IntervalConfig icfg;
  icfg.sim_ops = 2000;  // keep sanitiser runs fast; mechanisms unchanged
  return icfg;
}

}  // namespace

// --- determinism ------------------------------------------------------------

TEST(SimInterval, SimulateIsBitIdentical) {
  const arch::MachineModel& m = arch::machine(MachineId::Sg2044);
  const auto sig = model::signature(Kernel::CG, ProblemClass::C);
  const auto cfg = paper_cfg(m, Kernel::CG, 64);

  const sim::IntervalReport a = sim::simulate(m, sig, cfg, small_cfg());
  const sim::IntervalReport b = sim::simulate(m, sig, cfg, small_cfg());

  ASSERT_TRUE(a.prediction.ran);
  // Exact equality, not near-equality: simulate() must be pure.
  EXPECT_EQ(a.prediction.seconds, b.prediction.seconds);
  EXPECT_EQ(a.prediction.mops, b.prediction.mops);
  EXPECT_EQ(a.prediction.achieved_bw_gbs, b.prediction.achieved_bw_gbs);
  EXPECT_EQ(a.counters.accesses, b.counters.accesses);
  EXPECT_EQ(a.counters.dram_lines, b.counters.dram_lines);
  EXPECT_EQ(a.counters.level_hits, b.counters.level_hits);
  EXPECT_EQ(a.counters.dispatch_cycles, b.counters.dispatch_cycles);
  EXPECT_EQ(a.counters.stream_stall_cycles, b.counters.stream_stall_cycles);
  EXPECT_EQ(a.counters.latency_stall_cycles, b.counters.latency_stall_cycles);
}

TEST(SimInterval, SeedChangesTheRunButNotItsShape) {
  const arch::MachineModel& m = arch::machine(MachineId::Sg2042);
  const auto sig = model::signature(Kernel::IS, ProblemClass::C);
  const auto cfg = paper_cfg(m, Kernel::IS, 32);

  sim::IntervalConfig icfg = small_cfg();
  const auto a = sim::simulate(m, sig, cfg, icfg);
  icfg.seed = 0xfeedULL;
  const auto b = sim::simulate(m, sig, cfg, icfg);

  // A different address stream gives (slightly) different totals, but the
  // extrapolated prediction stays in the same regime.
  ASSERT_TRUE(a.prediction.ran && b.prediction.ran);
  EXPECT_GT(a.prediction.seconds, 0.0);
  EXPECT_NEAR(a.prediction.seconds / b.prediction.seconds, 1.0, 0.25);
  EXPECT_EQ(a.prediction.breakdown.dominant, b.prediction.breakdown.dominant);
}

// --- golden pin --------------------------------------------------------------

/// FNV-1a over the bytes of every prediction field and interval counter.
struct Fnv {
  std::uint64_t h = 1469598103934665603ull;
  void bytes(const void* p, std::size_t n) {
    const auto* b = static_cast<const unsigned char*>(p);
    for (std::size_t i = 0; i < n; ++i) {
      h ^= b[i];
      h *= 1099511628211ull;
    }
  }
  void u64(std::uint64_t v) { bytes(&v, sizeof v); }
  void f64(double v) { bytes(&v, sizeof v); }
  void str(const std::string& v) { bytes(v.data(), v.size()); }
};

// simulate() over every registry and topology machine x every kernel x
// classes S and C x {1, all} cores, hashed field by field.  The constant
// is the hash the dense-storage memsim::Cache produced: the interval
// backend's predictions and counters must stay bit-identical to it.
TEST(SimInterval, GoldenHashOverTheMachineGrid) {
  std::vector<MachineId> ids = arch::all_machines();
  for (MachineId id : arch::topo_machines()) ids.push_back(id);
  Fnv fnv;
  int points = 0;
  for (MachineId id : ids) {
    const arch::MachineModel& m = arch::machine(id);
    for (int k = 0; k <= static_cast<int>(Kernel::Hpcg); ++k) {
      const auto kernel = static_cast<Kernel>(k);
      for (ProblemClass pc : {ProblemClass::S, ProblemClass::C}) {
        const auto sig = model::signature(kernel, pc);
        for (int cores : {1, m.cores}) {
          const sim::IntervalReport r =
              sim::simulate(m, sig, paper_cfg(m, kernel, cores));
          const model::Prediction& p = r.prediction;
          fnv.u64(p.ran);
          fnv.str(p.dnr_reason);
          fnv.f64(p.seconds);
          fnv.f64(p.mops);
          fnv.f64(p.achieved_bw_gbs);
          fnv.u64(p.vector.vectorised);
          fnv.f64(p.vector.unit_stride_speedup);
          fnv.f64(p.vector.gather_speedup);
          fnv.f64(p.vector.blended_speedup);
          fnv.f64(p.breakdown.compute_s);
          fnv.f64(p.breakdown.stream_s);
          fnv.f64(p.breakdown.latency_s);
          fnv.f64(p.breakdown.sync_s);
          fnv.f64(p.breakdown.imbalance);
          fnv.u64(static_cast<std::uint64_t>(p.breakdown.dominant));
          const sim::IntervalCounters& c = r.counters;
          fnv.u64(c.measured_ops);
          fnv.u64(c.accesses);
          fnv.u64(c.dram_lines);
          for (std::uint64_t hits : c.level_hits) fnv.u64(hits);
          fnv.f64(c.footprint_scale);
          fnv.f64(c.dispatch_cycles);
          fnv.f64(c.stream_stall_cycles);
          fnv.f64(c.latency_stall_cycles);
          fnv.f64(c.bw_bound_fraction);
          ++points;
        }
      }
    }
  }
  EXPECT_EQ(points, 14 * 12 * 2 * 2);
  EXPECT_EQ(fnv.h, 0xdbb9a4c734b4865bull) << std::hex << "0x" << fnv.h;
}

// The Hierarchy tallies its accesses and flushes them into
// rvhpc_memsim_accesses_total no later than its destruction, so the
// counter is exact whenever simulate() returns.
TEST(SimInterval, AccessCounterIsExactWhenSimulateReturns) {
  const bool was_enabled = obs::metrics_enabled();
  obs::set_metrics_enabled(true);
  obs::Counter& total =
      obs::Registry::global().counter("rvhpc_memsim_accesses_total");
  const arch::MachineModel& m = arch::machine(MachineId::Sg2044);
  const auto sig = model::signature(Kernel::IS, ProblemClass::A);
  const std::uint64_t before = total.value();
  const sim::IntervalReport rep =
      sim::simulate(m, sig, paper_cfg(m, Kernel::IS, 8));
  const std::uint64_t after = total.value();
  obs::set_metrics_enabled(was_enabled);
  ASSERT_TRUE(rep.prediction.ran);
  EXPECT_GT(rep.counters.accesses, 4096u) << "must cross the flush stride";
  EXPECT_NE(rep.counters.accesses % 4096, 0u) << "and leave a remainder";
  EXPECT_EQ(after - before, rep.counters.accesses);
}

// --- memsim agreement (satellite 3) -----------------------------------------

// The interval core and a hand-driven memsim::Hierarchy, fed the identical
// SignatureStream, must report the same access and per-level hit counts —
// sim/ may not wrap memsim with semantics of its own.
TEST(SimInterval, MissCountsAgreeWithRawHierarchy) {
  const arch::MachineModel& m = arch::machine(MachineId::Sg2044);
  const auto sig = model::signature(Kernel::CG, ProblemClass::C);
  const int cores = 64;
  const auto cfg = paper_cfg(m, Kernel::CG, cores);
  const sim::IntervalConfig icfg = small_cfg();

  const sim::IntervalReport rep = sim::simulate(m, sig, cfg, icfg);
  ASSERT_TRUE(rep.prediction.ran);

  // Rebuild the identical per-core machine slice and footprints.
  const double scale = sim::footprint_scale(sig, cores, icfg);
  EXPECT_EQ(scale, rep.counters.footprint_scale);
  const int line_bytes = m.caches[0].line_bytes;
  const auto scaled = [&](double mib) {
    return static_cast<std::uint64_t>(
        std::max(0.0, mib * 1024.0 * 1024.0 * scale));
  };
  const arch::MachineModel slice = sim::per_core_slice(m, cores, scale);
  memsim::Hierarchy hier(slice, /*cores=*/1);
  sim::SignatureStream stream(sig, scaled(sig.working_set_mib / cores),
                              scaled(sig.random_footprint_mib), line_bytes,
                              icfg.seed);

  std::uint64_t accesses = 0;
  std::vector<sim::SimAccess> ops;
  for (std::uint64_t op = 0; op < icfg.sim_ops; ++op) {
    ops.clear();
    stream.next_op(ops);
    accesses += ops.size();
    for (const sim::SimAccess& a : ops) hier.access(0, a.addr, a.is_write);
  }

  EXPECT_EQ(accesses, rep.counters.accesses);
  ASSERT_EQ(hier.levels(), rep.counters.level_hits.size());
  for (std::size_t i = 0; i < hier.levels(); ++i) {
    EXPECT_EQ(hier.level_stats(i).hits, rep.counters.level_hits[i])
        << "level " << i;
  }
}

// Two independent memsim consumers at once: the interval backend and the
// Table 1 stall profiler, on separate threads.  Every Hierarchy/DramModel
// is call-local state, so this must be race-free — the TSan job in
// scripts/check.sh runs this test to prove it.
TEST(SimInterval, ConcurrentWithTraceProfileUnderTsan) {
  const arch::MachineModel& m = arch::machine(MachineId::Sg2042);
  const auto sig = model::signature(Kernel::MG, ProblemClass::C);
  const auto cfg = paper_cfg(m, Kernel::MG, 16);

  model::Prediction from_sim;
  memsim::StallReport from_profile;
  std::thread t_sim([&] {
    for (int i = 0; i < 3; ++i) {
      from_sim = sim::simulate(m, sig, cfg, small_cfg()).prediction;
    }
  });
  std::thread t_prof([&] {
    memsim::ProfileConfig pc;
    pc.cores = 4;
    pc.ops_per_core = 2000;
    pc.footprint_scale = 0.01;
    from_profile = memsim::simulate_stalls(m, Kernel::MG, pc);
  });
  t_sim.join();
  t_prof.join();

  EXPECT_TRUE(from_sim.ran);
  EXPECT_GT(from_profile.total_cycles, 0.0);
}

// --- prediction shape -------------------------------------------------------

TEST(SimInterval, BottleneckSanityAcrossKernels) {
  const arch::MachineModel& sg2042 = arch::machine(MachineId::Sg2042);
  // EP is embarrassingly parallel compute: no DRAM pressure to speak of.
  const auto ep = sim::predict_interval(
      sg2042, model::signature(Kernel::EP, ProblemClass::C),
      paper_cfg(sg2042, Kernel::EP, 64));
  ASSERT_TRUE(ep.ran);
  EXPECT_EQ(ep.breakdown.dominant, model::Bottleneck::Compute);

  // STREAM triad at full chip saturates the four DDR4 channels.
  const auto triad = sim::predict_interval(
      sg2042, model::signature(Kernel::StreamTriad, ProblemClass::C),
      paper_cfg(sg2042, Kernel::StreamTriad, 64));
  ASSERT_TRUE(triad.ran);
  EXPECT_EQ(triad.breakdown.dominant, model::Bottleneck::StreamBandwidth);
  EXPECT_GT(triad.achieved_bw_gbs, 10.0);
  // Supply is bounded by the machine's sustained chip bandwidth.
  EXPECT_LT(triad.achieved_bw_gbs,
            sg2042.memory.chip_stream_bw_gbs() * sg2042.memory.read_bw_bonus);
}

TEST(SimInterval, DnrParityWithAnalyticBackend) {
  // FT class B exceeds the Allwinner D1's 1 GiB DRAM — the published DNR.
  const arch::MachineModel& d1 = arch::machine(MachineId::AllwinnerD1);
  const auto sig = model::signature(Kernel::FT, ProblemClass::B);
  const auto cfg = paper_cfg(d1, Kernel::FT, 1);
  const auto analytic = model::predict(d1, sig, cfg);
  const auto interval = sim::predict_interval(d1, sig, cfg);
  ASSERT_FALSE(analytic.ran);
  ASSERT_FALSE(interval.ran);
  EXPECT_EQ(analytic.dnr_reason, interval.dnr_reason);

  // Core-count overflow: same rule, same message, on both backends.
  auto over = cfg;
  over.cores = d1.cores + 1;
  const auto a2 = model::predict(d1, sig, over);
  const auto i2 = sim::predict_interval(d1, sig, over);
  ASSERT_FALSE(a2.ran);
  ASSERT_FALSE(i2.ran);
  EXPECT_EQ(a2.dnr_reason, i2.dnr_reason);
}

// --- engine dispatch --------------------------------------------------------

TEST(SimInterval, BackendIsPartOfTheMemoKey) {
  const arch::MachineModel& m = arch::machine(MachineId::Sg2044);
  const auto sig = model::signature(Kernel::MG, ProblemClass::C);
  const auto cfg = paper_cfg(m, Kernel::MG, 64);

  const engine::PredictionRequest analytic(m, sig, cfg, "",
                                           engine::Backend::Analytic);
  const engine::PredictionRequest interval(m, sig, cfg, "",
                                           engine::Backend::Interval);
  EXPECT_NE(analytic.key(), interval.key());
  // Default-constructed backend is analytic, and the key is stable.
  EXPECT_EQ(engine::PredictionRequest(m, sig, cfg).key(), analytic.key());
}

TEST(SimInterval, EvaluatorDispatchesPerRequestBackend) {
  const arch::MachineModel& m = arch::machine(MachineId::Sg2044);
  const auto sig = model::signature(Kernel::CG, ProblemClass::C);
  const auto cfg = paper_cfg(m, Kernel::CG, 64);

  engine::BatchEvaluator eval(engine::BatchEvaluator::Options{2, 64});
  engine::RequestSet set;
  set.add({m, sig, cfg, "a", engine::Backend::Analytic});
  set.add({m, sig, cfg, "i", engine::Backend::Interval});
  const auto results = eval.evaluate(set);
  ASSERT_EQ(results.size(), 2u);

  // Both mechanisms must match their direct entry points bit for bit...
  EXPECT_EQ(results[0].prediction.seconds, model::predict(m, sig, cfg).seconds);
  EXPECT_EQ(results[1].prediction.seconds,
            sim::predict_interval(m, sig, cfg).seconds);
  // ...and the two backends are genuinely different models.
  EXPECT_NE(results[0].prediction.seconds, results[1].prediction.seconds);

  // backend_for() exposes the same singletons the evaluator used.
  EXPECT_EQ(engine::backend_for(engine::Backend::Analytic).id(),
            engine::Backend::Analytic);
  EXPECT_EQ(engine::backend_for(engine::Backend::Interval).id(),
            engine::Backend::Interval);
}

TEST(SimInterval, ParseBackendRoundTripsAndRejects) {
  EXPECT_EQ(engine::parse_backend("analytic"), engine::Backend::Analytic);
  EXPECT_EQ(engine::parse_backend("interval"), engine::Backend::Interval);
  EXPECT_EQ(engine::to_string(engine::Backend::Analytic), "analytic");
  EXPECT_EQ(engine::to_string(engine::Backend::Interval), "interval");
  EXPECT_THROW((void)engine::parse_backend("quantum"), std::invalid_argument);
  EXPECT_THROW((void)engine::parse_backend(""), std::invalid_argument);
}

// --- obs attribution (satellite 2) ------------------------------------------

TEST(SimInterval, TraceRecordsCarryIntervalBackend) {
  const arch::MachineModel& m = arch::machine(MachineId::Sg2044);
  const auto sig = model::signature(Kernel::StreamTriad, ProblemClass::C);
  const auto cfg = paper_cfg(m, Kernel::StreamTriad, 64);

  obs::SessionScope scope;
  (void)sim::predict_interval(m, sig, cfg);
  (void)model::predict(m, sig, cfg);

  const auto& preds = scope.session().predictions();
  ASSERT_EQ(preds.size(), 2u);
  EXPECT_EQ(preds[0].backend, "interval");
  EXPECT_EQ(preds[1].backend, "analytic");

  // Phase decomposition still sums to the predicted total per backend.
  for (const auto& p : preds) {
    double sum = 0.0;
    for (const auto& ph : p.phases) sum += ph.seconds;
    EXPECT_NEAR(sum, p.seconds, 1e-9) << p.backend;
  }
}
