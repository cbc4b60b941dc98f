// Microbenchmarks (google-benchmark) of the library's own machinery:
// predictor evaluation cost, engine batch throughput, cache-simulator
// throughput, interval-backend prediction cost, DRAM model, NPB class-S
// kernel rates and STREAM on the host.  These measure this repository's
// code, not the paper's machines.
//
// rvhpc-lint: disable=B001 — BM_PredictSingleCall and BM_IntervalPredict
// measure the raw predict()/predict_interval() paths on purpose; routing
// them through the engine would fold pool and cache overhead into the
// numbers they exist to isolate.

#include <benchmark/benchmark.h>

#include "arch/registry.hpp"
#include "engine/batch.hpp"
#include "engine/request.hpp"
#include "memsim/cache.hpp"
#include "memsim/profile.hpp"
#include "memsim/trace.hpp"
#include "model/sweep.hpp"
#include "npb/ep.hpp"
#include "npb/is.hpp"
#include "npb/mg.hpp"
#include "sim/interval.hpp"
#include "stream/stream.hpp"

namespace {

using namespace rvhpc;

void BM_PredictSingleCall(benchmark::State& state) {
  const auto& m = arch::machine(arch::MachineId::Sg2044);
  const auto sig = model::signature(model::Kernel::CG, model::ProblemClass::C);
  model::RunConfig cfg;
  cfg.cores = 64;
  cfg.compiler = {model::CompilerId::Gcc15_2, false};
  for (auto _ : state) {
    benchmark::DoNotOptimize(predict(m, sig, cfg).mops);
  }
}
BENCHMARK(BM_PredictSingleCall);

void BM_EngineBatchEvaluate(benchmark::State& state) {
  // All five HPC machines' MG scaling curves in one RequestSet; the cache
  // is disabled so every iteration measures real evaluation work at the
  // requested pool size.
  engine::RequestSet set;
  for (arch::MachineId id : arch::hpc_machines()) {
    const auto& m = arch::machine(id);
    set.add_scaling(m, model::Kernel::MG, model::ProblemClass::C,
                    model::paper_run_config(m, model::Kernel::MG, 1));
  }
  engine::BatchEvaluator::Options opts;
  opts.jobs = static_cast<int>(state.range(0));
  opts.cache_capacity = 0;
  engine::BatchEvaluator evaluator(opts);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        evaluator.evaluate(set).back().prediction.mops);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(set.size()));
}
BENCHMARK(BM_EngineBatchEvaluate)->Arg(1)->Arg(2)->Arg(4);

void BM_FullScalingSweep(benchmark::State& state) {
  for (auto _ : state) {
    const auto s = model::scale_cores(arch::MachineId::Sg2044,
                                      model::Kernel::MG, model::ProblemClass::C);
    benchmark::DoNotOptimize(s.points.back().prediction.mops);
  }
}
BENCHMARK(BM_FullScalingSweep);

void BM_CacheAccess(benchmark::State& state) {
  memsim::Cache cache(1 << 20, 16, 64);
  memsim::XorShift rng(42);
  std::uint64_t total = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(cache.access(rng.below(1 << 22), false).hit);
    ++total;
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(total));
}
BENCHMARK(BM_CacheAccess);

// One interval-backend prediction per iteration, in three regimes: the
// whole 64 MiB L3 as one core's slice (cache construction used to
// dominate), a random-access kernel on the largest-LLC topology machine,
// and a many-core point whose slices are already small.
void BM_IntervalPredict(benchmark::State& state, const char* machine,
                        model::Kernel kernel, model::ProblemClass pc,
                        int cores) {
  const auto& m = arch::machine(machine);
  const auto sig = model::signature(kernel, pc);
  const auto cfg = model::paper_run_config(m, kernel, cores);
  for (auto _ : state) {
    benchmark::DoNotOptimize(sim::predict_interval(m, sig, cfg).seconds);
  }
}
BENCHMARK_CAPTURE(BM_IntervalPredict, sg2044_CG_S_1core, "sg2044",
                  model::Kernel::CG, model::ProblemClass::S, 1)
    ->Unit(benchmark::kMicrosecond);
BENCHMARK_CAPTURE(BM_IntervalPredict, montecimone_v3_IS_A_8core,
                  "montecimone-v3", model::Kernel::IS, model::ProblemClass::A,
                  8)
    ->Unit(benchmark::kMicrosecond);
BENCHMARK_CAPTURE(BM_IntervalPredict, sg2044_CG_C_64core, "sg2044",
                  model::Kernel::CG, model::ProblemClass::C, 64)
    ->Unit(benchmark::kMicrosecond);

void BM_TraceGeneration(benchmark::State& state) {
  auto gen = memsim::kernel_trace(model::Kernel::MG, 1.0, 0, 7);
  std::uint64_t total = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(gen->next().addr);
    ++total;
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(total));
}
BENCHMARK(BM_TraceGeneration);

void BM_StallSimulation(benchmark::State& state) {
  const auto& xeon = arch::machine(arch::MachineId::Xeon8170);
  memsim::ProfileConfig cfg;
  cfg.cores = 4;
  cfg.ops_per_core = 20000;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        memsim::simulate_stalls(xeon, model::Kernel::CG, cfg).total_cycles);
  }
}
BENCHMARK(BM_StallSimulation);

void BM_NpbIsClassS(benchmark::State& state) {
  for (auto _ : state) {
    benchmark::DoNotOptimize(npb::is::run(npb::ProblemClass::S, 2).mops);
  }
}
BENCHMARK(BM_NpbIsClassS);

void BM_NpbEpClassS(benchmark::State& state) {
  for (auto _ : state) {
    benchmark::DoNotOptimize(npb::ep::run(npb::ProblemClass::S, 2).mops);
  }
}
BENCHMARK(BM_NpbEpClassS);

void BM_NpbMgClassS(benchmark::State& state) {
  for (auto _ : state) {
    benchmark::DoNotOptimize(npb::mg::run(npb::ProblemClass::S, 2).mops);
  }
}
BENCHMARK(BM_NpbMgClassS);

void BM_HostStreamTriad(benchmark::State& state) {
  stream::StreamConfig cfg;
  cfg.elements = 4'000'000;
  cfg.repetitions = 2;
  cfg.threads = 2;
  for (auto _ : state) {
    benchmark::DoNotOptimize(stream::run(cfg).back().best_gbs);
  }
}
BENCHMARK(BM_HostStreamTriad);

}  // namespace

BENCHMARK_MAIN();
