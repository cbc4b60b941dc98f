#include "model/sweep.hpp"

#include "engine/batch.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace rvhpc::model {
namespace {

/// The sweep wall-clock histogram, looked up once rather than by name on
/// every sweep.
obs::Histogram* sweep_timer() {
  if (!obs::metrics_enabled()) return nullptr;
  static obs::Histogram& wall =
      obs::Registry::global().histogram("rvhpc_sweep_wall_seconds");
  return &wall;
}

}  // namespace

std::vector<int> power_of_two_cores(int max_cores) {
  std::vector<int> v;
  for (int n = 1; n < max_cores; n *= 2) v.push_back(n);
  v.push_back(max_cores);
  return v;
}

ScalingSeries scale_cores(arch::MachineId id, Kernel kernel, ProblemClass cls) {
  const arch::MachineModel& m = arch::machine(id);
  RunConfig cfg;
  cfg.compiler = paper_run_config(m, kernel, /*cores=*/1).compiler;
  return scale_cores(id, kernel, cls, cfg);
}

ScalingSeries scale_cores(arch::MachineId id, Kernel kernel, ProblemClass cls,
                          RunConfig cfg) {
  const arch::MachineModel& m = arch::machine(id);
  const WorkloadSignature sig = signature(kernel, cls);
  obs::ScopedTimer timer(sweep_timer());
  obs::ScopedSpan span("sweep", "scale_cores");

  engine::RequestSet set;
  for (int n : power_of_two_cores(m.cores)) {
    cfg.cores = n;
    set.add(m, sig, cfg);
  }
  const std::vector<engine::PredictionResult> results =
      engine::default_evaluator().evaluate(set);

  ScalingSeries series{id, kernel, cls, {}};
  series.points.reserve(results.size());
  for (const engine::PredictionResult& r : results)
    series.points.push_back(
        {set.requests()[r.index].config().cores, r.prediction});

  if (obs::metrics_enabled()) {
    static obs::Counter& points = obs::Registry::global().counter(
        "rvhpc_sweep_points_total", "core-count points evaluated by sweeps");
    points.add(series.points.size());
  }
  if (span.active()) {
    span.arg("machine", arch::name_of(id));
    span.arg("kernel", to_string(kernel));
    span.arg("class", to_string(cls));
    span.arg("points", std::to_string(series.points.size()));
  }
  return series;
}

Prediction at_cores(arch::MachineId id, Kernel kernel, ProblemClass cls,
                    int cores) {
  const arch::MachineModel& m = arch::machine(id);
  return engine::default_evaluator().evaluate_one(
      m, signature(kernel, cls), paper_run_config(m, kernel, cores));
}

double times_faster(arch::MachineId id, arch::MachineId baseline, Kernel kernel,
                    ProblemClass cls, int cores) {
  const Prediction a = at_cores(id, kernel, cls, cores);
  const Prediction b = at_cores(baseline, kernel, cls, cores);
  if (!a.ran || !b.ran || a.seconds <= 0.0) return 0.0;
  return b.seconds / a.seconds;
}

}  // namespace rvhpc::model
