// obs_overhead — bounds the cost of the observability layer on predict().
//
// The obs contract is that instrumentation is zero-cost when no session is
// active: every site loads one relaxed atomic and bails.  This bench
// measures three things on the SG2044/CG.C workload the acceptance
// criteria use:
//
//   1. predict() median latency with tracing and metrics fully off,
//   2. the null-sink fast path itself (a ScopedSpan + ScopedTimer +
//      session()/metrics_enabled() checks, i.e. the per-predict cost the
//      instrumentation adds when off), measured in isolation, and
//   3. predict() median latency with a live session + metrics, for scale.
//
// In --gate mode (the ctest entry) it fails when the measured null-path
// cost exceeds 5% of the tracing-off predict() latency — the regression
// guard for anyone adding instrumentation to the hot path.
//
// rvhpc-lint: disable=B001 — this bench times raw predict() calls by
// design; the engine's pool/cache layers are exactly what it must exclude.

#include <algorithm>
#include <chrono>
#include <cstring>
#include <iostream>
#include <vector>

#include "arch/registry.hpp"
#include "cli/cli.hpp"
#include "model/sweep.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "report/table.hpp"

using namespace rvhpc;

namespace {

using Clock = std::chrono::steady_clock;

// Sanitizers tax the short atomic-load/RAII null path far more than the
// arithmetic-heavy predict() body, so the production 5% budget is not
// meaningful under ASan/TSan instrumented builds — keep the gate as a
// smoke check there with a wider budget.
constexpr double kBudgetPct = cli::kSanitized ? 20.0 : 5.0;

/// Keeps `v` alive past the optimiser without writing it anywhere.
template <typename T>
void keep(const T& v) {
  asm volatile("" : : "g"(&v) : "memory");
}

/// Median of `runs` timings of `batch` iterations of `fn`, in seconds
/// per iteration.
template <typename Fn>
double time_per_call(int runs, int batch, Fn&& fn) {
  std::vector<double> samples;
  samples.reserve(static_cast<std::size_t>(runs));
  for (int r = 0; r < runs; ++r) {
    const auto t0 = Clock::now();
    for (int i = 0; i < batch; ++i) fn();
    const auto t1 = Clock::now();
    samples.push_back(std::chrono::duration<double>(t1 - t0).count() / batch);
  }
  std::sort(samples.begin(), samples.end());
  return samples[samples.size() / 2];
}

}  // namespace

int main(int argc, char** argv) {
  const bool gate = argc > 1 && std::strcmp(argv[1], "--gate") == 0;
  const int runs = gate ? 9 : 15;
  const int batch = gate ? 500 : 2000;

  const arch::MachineModel& m = arch::machine(arch::MachineId::Sg2044);
  const model::WorkloadSignature sig =
      model::signature(model::Kernel::CG, model::ProblemClass::C);
  model::RunConfig cfg;
  cfg.cores = 64;
  cfg.compiler = model::paper_default_compiler(m);
  cfg.compiler.vectorise = false;  // the paper's CG setup on the SG2044

  obs::set_session(nullptr);
  obs::set_metrics_enabled(false);

  // Warm up caches and the branch predictor before any measurement.
  for (int i = 0; i < batch; ++i) keep(model::predict(m, sig, cfg));

  const double t_off = time_per_call(runs, batch, [&] {
    keep(model::predict(m, sig, cfg));
  });

  // The exact null-sink sequence one predict() executes when obs is off:
  // the span, the timer lookup, and the two counter guards.
  const double t_null_path = time_per_call(runs, batch * 50, [&] {
    obs::ScopedTimer timer(obs::timer_target("rvhpc_predict_wall_seconds"));
    obs::ScopedSpan span("model", "predict");
    keep(obs::session());
    keep(obs::metrics_enabled());
  });

  double t_on = 0.0;
  std::size_t events = 0;
  {
    obs::SessionScope scope;
    t_on = time_per_call(runs, batch, [&] {
      keep(model::predict(m, sig, cfg));
    });
    events = scope.session().event_count();
  }

  const double overhead_pct = t_off > 0.0 ? 100.0 * t_null_path / t_off : 0.0;

  std::cout << "obs overhead on predict(sg2044, CG.C, 64 cores)\n\n";
  report::Table t({"configuration", "per call", "vs off"});
  t.add_row({"tracing+metrics off", report::fmt(t_off * 1e6, 3) + " us", "1.00x"});
  t.add_row({"null-sink fast path alone", report::fmt(t_null_path * 1e9, 1) + " ns",
             report::fmt(overhead_pct, 2) + "%"});
  t.add_row({"session + metrics active", report::fmt(t_on * 1e6, 3) + " us",
             report::fmt_ratio(t_on, t_off)});
  std::cout << t.render() << "\n"
            << "events recorded while active: " << events << "\n"
            << "gate: null-sink path must stay under "
            << report::fmt(kBudgetPct, 0) << "% of predict()"
            << (cli::kSanitized ? " (sanitized build)" : "") << " — "
            << report::fmt(overhead_pct, 2) << "%\n";

  if (overhead_pct > kBudgetPct) {
    std::cerr << "FAIL: tracing-off instrumentation overhead "
              << report::fmt(overhead_pct, 2) << "% exceeds the "
              << report::fmt(kBudgetPct, 0) << "% budget\n";
    return 1;
  }
  std::cout << "PASS\n";
  return 0;
}
