// engine_throughput — the engine's correctness and speedup gate.
//
// Builds a large request set (every §5 HPC machine x every NPB kernel x
// the power-of-two core grid x {vectorised, scalar} compiler configs),
// evaluates it with a 1-thread pool and a multi-thread pool, and
//
//   1. always verifies the parallel results are bit-identical to the
//      serial ones, field by field: predict() is pure and the evaluator
//      writes each result into its own pre-allocated slot, so any
//      divergence is a determinism bug, not timing noise; and
//   2. measures the parallel speedup with memoisation disabled.  In
//      --gate mode (the ctest entry) a speedup below 3x fails the gate —
//      but only when the host has at least 4 hardware threads and the
//      build is unsanitized; smaller hosts and instrumented builds check
//      determinism only, since wall-clock there says nothing about the
//      pool.

#include <bit>
#include <chrono>
#include <cstring>
#include <iostream>
#include <thread>
#include <vector>

#include "cli/cli.hpp"
#include "engine/batch.hpp"
#include "engine/request.hpp"
#include "model/sweep.hpp"
#include "report/table.hpp"

using namespace rvhpc;
using Clock = std::chrono::steady_clock;

namespace {

bool same_bits(double a, double b) {
  return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

/// Field-by-field bit identity — no epsilon anywhere: a serial and a
/// parallel evaluation of the same request must agree to the last ulp.
bool identical(const model::Prediction& a, const model::Prediction& b) {
  return a.ran == b.ran && a.dnr_reason == b.dnr_reason &&
         same_bits(a.seconds, b.seconds) && same_bits(a.mops, b.mops) &&
         same_bits(a.achieved_bw_gbs, b.achieved_bw_gbs) &&
         a.vector.vectorised == b.vector.vectorised &&
         same_bits(a.vector.unit_stride_speedup,
                   b.vector.unit_stride_speedup) &&
         same_bits(a.vector.gather_speedup, b.vector.gather_speedup) &&
         same_bits(a.vector.blended_speedup, b.vector.blended_speedup) &&
         same_bits(a.breakdown.compute_s, b.breakdown.compute_s) &&
         same_bits(a.breakdown.stream_s, b.breakdown.stream_s) &&
         same_bits(a.breakdown.latency_s, b.breakdown.latency_s) &&
         same_bits(a.breakdown.sync_s, b.breakdown.sync_s) &&
         same_bits(a.breakdown.imbalance, b.breakdown.imbalance) &&
         a.breakdown.dominant == b.breakdown.dominant;
}

engine::RequestSet build_set() {
  engine::RequestSet set;
  for (arch::MachineId id : arch::hpc_machines()) {
    const arch::MachineModel& m = arch::machine(id);
    for (model::Kernel k : model::npb_all()) {
      model::RunConfig cfg = model::paper_run_config(m, k, /*cores=*/1);
      set.add_scaling(m, k, model::ProblemClass::C, cfg, arch::name_of(id));
      cfg.compiler.vectorise = !cfg.compiler.vectorise;
      set.add_scaling(m, k, model::ProblemClass::C, cfg,
                      std::string(arch::name_of(id)) + "-flipvec");
    }
  }
  return set;
}

engine::BatchEvaluator make_evaluator(int jobs) {
  engine::BatchEvaluator::Options opts;
  opts.jobs = jobs;
  opts.cache_capacity = 0;  // measure evaluation, never memoisation
  return engine::BatchEvaluator(opts);
}

double timed_seconds(engine::BatchEvaluator& ev, const engine::RequestSet& set,
                     int reps) {
  double sink = 0.0;
  const auto t0 = Clock::now();
  for (int r = 0; r < reps; ++r) {
    sink += ev.evaluate(set).back().prediction.mops;
  }
  const auto t1 = Clock::now();
  if (sink < 0.0) std::cerr << "";  // keep the evaluations observable
  return std::chrono::duration<double>(t1 - t0).count();
}

}  // namespace

int main(int argc, char** argv) {
  const bool gate = argc > 1 && std::strcmp(argv[1], "--gate") == 0;
  const engine::RequestSet set = build_set();
  const unsigned hw = std::thread::hardware_concurrency();

  // --- determinism: pool of 4 vs serial, always checked ---------------------
  engine::BatchEvaluator serial = make_evaluator(1);
  engine::BatchEvaluator pooled = make_evaluator(4);
  const auto base = serial.evaluate(set);
  const auto par = pooled.evaluate(set);
  std::size_t divergent = set.size();  // sentinel: none
  for (std::size_t i = 0; i < set.size(); ++i) {
    if (!identical(base[i].prediction, par[i].prediction) ||
        base[i].tag != par[i].tag || par[i].index != i) {
      divergent = i;
      break;
    }
  }
  if (divergent != set.size()) {
    std::cerr << "FAIL: serial and 4-thread results diverge at request "
              << divergent << " (" << base[divergent].tag << ")\n";
    return 1;
  }
  std::cout << set.size() << " requests: serial and 4-thread pool results "
               "are bit-identical\n";

  // --- throughput -----------------------------------------------------------
  // Calibrate repetitions so the serial run is long enough to time.
  const double once = timed_seconds(serial, set, 1);
  const int reps = std::max(3, static_cast<int>(0.3 / std::max(once, 1e-6)));
  const double t_serial = timed_seconds(serial, set, reps);

  report::Table t({"jobs", "seconds", "requests/s", "speedup"});
  const double total =
      static_cast<double>(set.size()) * static_cast<double>(reps);
  t.add_row({"1", report::fmt(t_serial, 3), report::fmt(total / t_serial, 0),
             "1.00x"});
  double best_speedup = 1.0;
  for (unsigned jobs = 2; jobs <= std::max(4u, hw); jobs *= 2) {
    engine::BatchEvaluator ev = make_evaluator(static_cast<int>(jobs));
    const double secs = timed_seconds(ev, set, reps);
    const double speedup = t_serial / secs;
    best_speedup = std::max(best_speedup, speedup);
    t.add_row({std::to_string(jobs), report::fmt(secs, 3),
               report::fmt(total / secs, 0), report::fmt(speedup, 2) + "x"});
  }
  std::cout << "\n" << t.render() << "\nhardware threads: " << hw << "\n";

  if (!gate) return 0;
  if (cli::kSanitized) {
    std::cout << "gate: sanitized build — determinism checked, speedup "
                 "threshold skipped\n";
    return 0;
  }
  if (hw < 4) {
    std::cout << "gate: " << hw << " hardware thread(s) — determinism "
                 "checked, speedup threshold needs >= 4\n";
    return 0;
  }
  if (best_speedup < 3.0) {
    std::cerr << "FAIL: best speedup " << report::fmt(best_speedup, 2)
              << "x is below the 3x acceptance bar\n";
    return 1;
  }
  std::cout << "gate: best speedup " << report::fmt(best_speedup, 2)
            << "x >= 3x — PASSED\n";
  return 0;
}
