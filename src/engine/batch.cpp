#include "engine/batch.hpp"

#include <algorithm>
#include <mutex>

#include "engine/backend.hpp"
#include "engine/thread_pool.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace rvhpc::engine {
namespace {

void count_batch(std::size_t requests) {
  if (!obs::metrics_enabled()) return;
  static obs::Counter& batches = obs::Registry::global().counter(
      "rvhpc_engine_batches_total", "BatchEvaluator::evaluate calls");
  static obs::Counter& reqs = obs::Registry::global().counter(
      "rvhpc_engine_requests_total", "requests evaluated through the engine");
  batches.add();
  reqs.add(requests);
}

}  // namespace

BatchEvaluator::BatchEvaluator() : BatchEvaluator(Options{}) {}

BatchEvaluator::BatchEvaluator(Options opts)
    : jobs_(opts.jobs > 0 ? opts.jobs : default_jobs()),
      cache_(opts.cache_capacity) {}

std::vector<PredictionResult> BatchEvaluator::evaluate(const RequestSet& set) {
  obs::ScopedSpan span("engine", "evaluate");
  count_batch(set.size());

  const std::vector<PredictionRequest>& requests = set.requests();
  std::vector<PredictionResult> results(requests.size());

  // A cache hit would swallow the PredictionRecord predict() emits, so
  // attribution runs pay full price for complete traces.
  const bool use_cache = obs::session() == nullptr;

  auto run_range = [&](std::size_t begin, std::size_t end) {
    for (std::size_t i = begin; i < end; ++i) {
      const PredictionRequest& req = requests[i];
      PredictionResult& out = results[i];
      out.index = i;
      out.tag = req.tag();
      if (use_cache) {
        if (std::optional<model::Prediction> hit = cache_.get(req.key())) {
          out.prediction = *std::move(hit);
          out.from_cache = true;
          continue;
        }
      }
      out.prediction = backend_for(req.backend())
                           .predict(req.machine(), req.signature(), req.config());
      if (use_cache) cache_.put(req.key(), out.prediction);
    }
  };

  if (requests.empty()) return results;
  // Contiguous chunks, a few per participant, so µs-scale requests
  // amortise the cursor traffic while uneven chunks still balance.
  const std::size_t want = static_cast<std::size_t>(jobs_) * 4;
  const std::size_t chunk =
      std::max<std::size_t>(1, (requests.size() + want - 1) / want);
  const std::size_t chunks = (requests.size() + chunk - 1) / chunk;
  parallel_for(chunks, jobs_, [&run_range, &requests, chunk](std::size_t c) {
    const std::size_t begin = c * chunk;
    run_range(begin, std::min(begin + chunk, requests.size()));
  });

  if (span.active()) {
    span.arg("requests", std::to_string(requests.size()));
    span.arg("jobs", std::to_string(jobs_));
  }
  return results;
}

model::Prediction BatchEvaluator::evaluate_one(
    const arch::MachineModel& m, const model::WorkloadSignature& sig,
    const model::RunConfig& cfg, Backend backend) {
  const PredictionBackend& impl = backend_for(backend);
  if (obs::session() != nullptr) return impl.predict(m, sig, cfg);
  const PredictionRequest req(m, sig, cfg, "", backend);
  if (std::optional<model::Prediction> hit = cache_.get(req.key()))
    return *std::move(hit);
  model::Prediction p = impl.predict(m, sig, cfg);
  cache_.put(req.key(), p);
  return p;
}

namespace {

std::mutex g_default_mu;
BatchEvaluator* g_default_evaluator = nullptr;  // never freed, like Registry
int g_default_jobs = 0;                         // 0 = auto

/// Evaluators retired by set_default_jobs().  Callers may hold references
/// across the swap, so old instances are never destroyed — parking them
/// here (instead of plain-leaking the pointer) keeps them reachable and
/// LeakSanitizer quiet.  They own no thread, only their memo cache.
std::vector<BatchEvaluator*>& retired_evaluators() {
  static auto* retired = new std::vector<BatchEvaluator*>();
  return *retired;
}

}  // namespace

BatchEvaluator& default_evaluator() {
  std::lock_guard lock(g_default_mu);
  if (!g_default_evaluator) {
    BatchEvaluator::Options opts;
    opts.jobs = g_default_jobs;
    g_default_evaluator = new BatchEvaluator(opts);
  }
  return *g_default_evaluator;
}

void set_default_jobs(int jobs) {
  std::lock_guard lock(g_default_mu);
  g_default_jobs = jobs;
  if (g_default_evaluator && g_default_evaluator->jobs() != jobs) {
    retired_evaluators().push_back(g_default_evaluator);
    BatchEvaluator::Options opts;
    opts.jobs = jobs;
    g_default_evaluator = new BatchEvaluator(opts);
  }
}

}  // namespace rvhpc::engine
