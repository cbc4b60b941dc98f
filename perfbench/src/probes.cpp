#include "probes.hpp"

#include <algorithm>
#include <cstdint>

#include "arch/registry.hpp"
#include "arch/serialize.hpp"
#include "engine/backend.hpp"
#include "engine/batch.hpp"
#include "engine/cache.hpp"
#include "engine/request.hpp"
#include "http/parser.hpp"
#include "model/predictor.hpp"
#include "model/scaling.hpp"
#include "model/signatures.hpp"
#include "obs/json.hpp"
#include "serve/service.hpp"
#include "sim/interval.hpp"
#include "stats.hpp"

namespace rvbench {

namespace {

namespace engine = rvhpc::engine;
namespace model = rvhpc::model;

/// A request's content resolved the way the service's admission does.
struct Resolved {
  rvhpc::arch::MachineModel machine;
  model::WorkloadSignature sig;
  model::RunConfig cfg;
  engine::Backend backend = engine::Backend::Analytic;
};

Resolved resolve(const Spec& s) {
  Resolved r;
  r.machine = s.machine_text.empty() ? rvhpc::arch::machine(s.machine)
                                     : rvhpc::arch::from_text(s.machine_text);
  const model::Kernel k = model::parse_kernel(s.kernel);
  r.sig = model::signature(k, model::parse_problem_class(s.cls));
  r.cfg = model::paper_run_config(r.machine, k, s.cores);
  if (s.vectorise >= 0) r.cfg.compiler.vectorise = s.vectorise != 0;
  if (!s.placement.empty()) r.cfg.placement = model::parse_placement(s.placement);
  r.backend = engine::parse_backend(s.backend);
  return r;
}

/// Keeps the optimiser from discarding a probed call's result.
volatile std::uint64_t g_sink = 0;

class Probe {
 public:
  explicit Probe(SpanBuffer& spans) : spans_(spans) {}

  /// Times `fn` once as one span of `calls` calls named `name`.
  template <typename F>
  void time(const std::string& name, std::uint32_t calls, F&& fn,
            std::int32_t parent = -1, std::uint64_t request = 0) {
    const std::int32_t s = spans_.begin(spans_.name_id(name), parent, request);
    fn();
    spans_.end(s, calls);
  }

  /// Median per-call time of `name`'s spans, in µs.
  [[nodiscard]] double per_call_us(const std::string& name,
                                   std::size_t* samples = nullptr) {
    const auto times = spans_.layer_times();
    const auto it = times.find(name);
    if (it == times.end()) return 0.0;
    if (samples) *samples = it->second.calls;
    return median(it->second.per_call_us);
  }

 private:
  SpanBuffer& spans_;
};

}  // namespace

std::vector<LayerValue> run_layer_probes(const std::vector<Spec>& specs,
                                         int jobs, SpanBuffer& spans) {
  Probe probe(spans);
  const auto n = static_cast<std::uint32_t>(specs.size());
  const int rounds = std::max(4, static_cast<int>(4096 / std::max(1u, n)));

  std::vector<std::string> lines;
  std::vector<Resolved> resolved;
  for (std::uint32_t i = 0; i < n; ++i) {
    lines.push_back(render_line(specs[i], "p" + std::to_string(i)));
    resolved.push_back(resolve(specs[i]));
  }

  // The service's two phases per request, as one "serve.request" span with
  // an admit and a complete child: round 0 misses, later rounds hit.
  rvhpc::serve::Service svc(rvhpc::serve::Service::Options{});
  for (int round = 0; round <= rounds; ++round) {
    for (std::uint32_t i = 0; i < n; ++i) {
      const std::int32_t req =
          spans.begin(spans.name_id("serve.request"), -1, i);
      rvhpc::serve::Service::Admission adm;
      probe.time(specs[i].machine_text.empty() ? "serve.admit"
                                               : "serve.admit_inline",
                 1, [&] { adm = svc.admit(lines[i]); }, req, i);
      if (adm.request) {
        probe.time(round == 0 ? "serve.complete_miss" : "serve.complete_hit",
                   1, [&] {
                     g_sink = g_sink + svc.complete(*adm.request, adm.arrival_us).size();
                   }, req, i);
      }
      spans.end(req);
    }
  }
  // Inline admission is timed on every workload: where the requests name
  // registry machines only, on perturbed inline copies of them.
  const bool has_inline = std::any_of(specs.begin(), specs.end(), [](const Spec& s) {
    return !s.machine_text.empty();
  });
  if (!has_inline) {
    Rng rng(n);
    for (std::uint32_t i = 0; i < std::min<std::uint32_t>(n, 32); ++i) {
      Spec s = specs[i];
      s.machine_text = perturbed_machine_text(s.machine, rng);
      const std::string line = render_line(s, "inline" + std::to_string(i));
      for (int round = 0; round < rounds; ++round) {
        probe.time("serve.admit_inline", 1,
                   [&] { g_sink = g_sink + svc.admit(line).id.size(); });
      }
    }
  }
  for (int round = 0; round < rounds; ++round) {
    for (std::uint32_t i = 0; i < n; ++i) {
      probe.time("serve.handle_line", 1,
                 [&] { g_sink = g_sink + svc.handle_line(lines[i]).size(); });
    }
  }

  std::vector<model::Prediction> preds;
  for (const Resolved& r : resolved) {
    preds.push_back(model::predict(r.machine, r.sig, r.cfg));
  }
  for (int round = 0; round < rounds; ++round) {
    probe.time("obs.json_parse", n, [&] {
      for (const auto& l : lines) g_sink = g_sink + rvhpc::obs::json::parse(l).object.size();
    });
    probe.time("engine.key", n, [&] {
      for (const Resolved& r : resolved) {
        g_sink = g_sink + engine::PredictionRequest(r.machine, r.sig, r.cfg, "",
                                                    r.backend)
                              .key();
      }
    });
    probe.time("obs.json_number", 3 * n, [&] {
      for (const auto& p : preds) {
        g_sink = g_sink + rvhpc::obs::json::number(p.seconds).size() +
                 rvhpc::obs::json::number(p.mops).size() +
                 rvhpc::obs::json::number(p.achieved_bw_gbs).size();
      }
    });
    probe.time("model.predict", n, [&] {
      for (const Resolved& r : resolved) {
        g_sink = g_sink + static_cast<std::uint64_t>(
                              model::predict(r.machine, r.sig, r.cfg).ran);
      }
    });
  }

  // Memo cache: probes of resident keys, and puts of fresh keys into a
  // full cache of the default capacity (each put evicts).
  {
    engine::PredictionCache cache;
    for (std::uint32_t i = 0; i < n; ++i) cache.put(i + 1, preds[i]);
    engine::PredictionCache full;
    std::uint64_t key = 1ULL << 40;
    while (full.size() < full.capacity()) full.put(key++, preds[0]);
    for (int round = 0; round < rounds; ++round) {
      probe.time("engine.cache_get", n, [&] {
        for (std::uint32_t i = 0; i < n; ++i) {
          g_sink = g_sink + static_cast<std::uint64_t>(cache.get(i + 1).has_value());
        }
      });
      probe.time("engine.cache_put", n, [&] {
        for (std::uint32_t i = 0; i < n; ++i) full.put(key++, preds[i]);
      });
    }
  }

  // HTTP framing of the same requests as single-line POST bodies.
  {
    std::vector<std::string> framed;
    for (const auto& l : lines) {
      framed.push_back("POST /v1/predict HTTP/1.1\r\nHost: 127.0.0.1\r\n"
                       "Content-Type: application/json\r\nContent-Length: " +
                       std::to_string(l.size() + 1) + "\r\n\r\n" + l + "\n");
    }
    rvhpc::http::RequestParser parser;
    for (int round = 0; round < rounds; ++round) {
      probe.time("http.parse", n, [&] {
        for (const auto& f : framed) {
          g_sink = g_sink + parser.feed(f);
          parser.reset();
        }
      });
    }
  }

  // One interval-backend prediction per span, on the first few requests.
  const std::uint32_t interval_n = std::min<std::uint32_t>(n, 16);
  for (std::uint32_t i = 0; i < interval_n; ++i) {
    const Resolved& r = resolved[i];
    probe.time("sim.predict_interval", 1, [&] {
      g_sink = g_sink + static_cast<std::uint64_t>(
                            rvhpc::sim::predict_interval(r.machine, r.sig, r.cfg).ran);
    });
  }

  // The engine over the same requests: one thread, `jobs` threads, and a
  // bare serial loop of the backends, memoisation off throughout.
  engine::RequestSet set;
  for (const Resolved& r : resolved) {
    set.add(engine::PredictionRequest(r.machine, r.sig, r.cfg, "", r.backend));
  }
  engine::BatchEvaluator one({1, 0});
  engine::BatchEvaluator many({jobs, 0});
  const int engine_reps = 7;
  for (int rep = 0; rep < engine_reps; ++rep) {
    probe.time("engine.evaluate.jobs1", n,
               [&] { g_sink = g_sink + one.evaluate(set).size(); });
    probe.time("engine.evaluate", n,
               [&] { g_sink = g_sink + many.evaluate(set).size(); });
    probe.time("engine.serial_predict", n, [&] {
      for (const auto& r : set.requests()) {
        g_sink = g_sink + static_cast<std::uint64_t>(
                              engine::backend_for(r.backend())
                                  .predict(r.machine(), r.signature(), r.config())
                                  .ran);
      }
    });
  }

  std::vector<LayerValue> out;
  const auto add = [&](const std::string& metric, const std::string& span,
                       double scale, const char* unit) {
    std::size_t samples = 0;
    const double v = probe.per_call_us(span, &samples) * scale;
    out.push_back({metric, v, unit, samples});
  };
  add("obs.json_parse_ns", "obs.json_parse", 1e3, "ns");
  add("engine.key_ns", "engine.key", 1e3, "ns");
  add("serve.admit_ns", "serve.admit", 1e3, "ns");
  add("serve.admit_inline_ns", "serve.admit_inline", 1e3, "ns");
  add("obs.json_number_ns", "obs.json_number", 1e3, "ns");
  add("serve.complete_hit_ns", "serve.complete_hit", 1e3, "ns");
  add("serve.complete_miss_ns", "serve.complete_miss", 1e3, "ns");
  add("engine.cache_get_ns", "engine.cache_get", 1e3, "ns");
  add("engine.cache_put_ns", "engine.cache_put", 1e3, "ns");
  add("model.predict_ns", "model.predict", 1e3, "ns");
  add("sim.predict_interval_us", "sim.predict_interval", 1.0, "us");
  add("http.parse_ns", "http.parse", 1e3, "ns");
  add("engine.evaluate_ns_per_req", "engine.evaluate", 1e3, "ns");

  const double handle_us = probe.per_call_us("serve.handle_line");
  const double predict_us = probe.per_call_us("model.predict");
  out.push_back({"serve.hit_over_predict",
                 predict_us > 0.0 ? handle_us / predict_us : 0.0, "ratio",
                 static_cast<std::size_t>(rounds) * n});
  const double t1 = probe.per_call_us("engine.evaluate.jobs1");
  const double tn = probe.per_call_us("engine.evaluate");
  const double serial = probe.per_call_us("engine.serial_predict");
  out.push_back({"engine.pool_speedup", tn > 0.0 ? t1 / tn : 0.0, "ratio",
                 static_cast<std::size_t>(engine_reps)});
  out.push_back({"engine.pool_overhead_ns_per_req",
                 (tn - serial / std::max(1, jobs)) * 1e3, "ns",
                 static_cast<std::size_t>(engine_reps)});
  return out;
}

}  // namespace rvbench
