#pragma once
// In-process layer probes of the traced run.
//
// Each probe times the benchmark's own calls into one public function of
// the program — obs::json::parse, the engine memo key, Service::admit and
// complete, PredictionCache get/put, model::predict,
// sim::predict_interval, http::RequestParser::feed, BatchEvaluator — on
// the workload's own request contents, recording a span per call (or per
// batch of calls, for the nanosecond-scale ones) into the SpanBuffer.

#include <string>
#include <utility>
#include <vector>

#include "gen.hpp"
#include "trace.hpp"

namespace rvbench {

/// A named per-layer figure.
struct LayerValue {
  std::string name;
  double value = 0.0;
  std::string unit;
  std::size_t samples = 0;
};

/// Runs every in-process probe over `specs` (distinct request contents)
/// and returns the per-layer figures, medians over spans.  `jobs` is the
/// pool size the engine probes compare against one thread.
[[nodiscard]] std::vector<LayerValue> run_layer_probes(
    const std::vector<Spec>& specs, int jobs, SpanBuffer& spans);

}  // namespace rvbench
