#include "model/predictor.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <utility>
#include <vector>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "topo/topology.hpp"

namespace rvhpc::model {
namespace {

constexpr double kMiB = 1024.0 * 1024.0;
/// Fraction of DRAM the OS leaves to the benchmark before it is DNR.
constexpr double kUsableDramFraction = 0.92;
/// DRAM traffic that survives even an LLC-resident working set
/// (compulsory misses, streaming-through behaviour).
constexpr double kLlcResidualTraffic = 0.12;
/// Partial-overlap coefficient between compute, bandwidth and latency time
/// (0 = perfect overlap / pure max, 1 = fully serial / pure sum).  Out-of-
/// order cores hide most non-critical resource time; in-order cores stall.
constexpr double kOverlapBetaOoO = 0.12;
constexpr double kOverlapBetaInOrder = 0.55;
/// Weight of inter-thread communication traffic against DRAM bandwidth
/// (part of it is absorbed by the shared LLC).
constexpr double kCommWeight = 0.5;

/// Base attribution record for (m, sig, cfg); shared by the DNR and
/// completed-run emission paths.
obs::PredictionRecord base_record(const arch::MachineModel& m,
                                  const WorkloadSignature& sig,
                                  const RunConfig& cfg) {
  obs::PredictionRecord r;
  r.backend = "analytic";
  r.machine = m.name;
  r.kernel = to_string(sig.kernel);
  r.problem_class = to_string(sig.problem_class);
  r.cores = cfg.cores;
  return r;
}

void count_predict_call(bool dnr) {
  if (!obs::metrics_enabled()) return;
  static obs::Counter& calls = obs::Registry::global().counter(
      "rvhpc_predict_calls_total", "predict() invocations");
  static obs::Counter& dnrs = obs::Registry::global().counter(
      "rvhpc_predict_dnr_total", "predict() calls that did not run (DNR)");
  calls.add();
  if (dnr) dnrs.add();
}

/// predict()'s wall-clock histogram, looked up once: a by-name registry
/// lookup per call would build a key string and take the registry lock.
obs::Histogram* predict_timer() {
  if (!obs::metrics_enabled()) return nullptr;
  static obs::Histogram& wall =
      obs::Registry::global().histogram("rvhpc_predict_wall_seconds");
  return &wall;
}

void emit_dnr(const arch::MachineModel& m, const WorkloadSignature& sig,
              const RunConfig& cfg, const Prediction& out) {
  count_predict_call(/*dnr=*/true);
  if (obs::TraceSession* s = obs::session()) {
    obs::PredictionRecord r = base_record(m, sig, cfg);
    r.ran = false;
    r.dnr_reason = out.dnr_reason;
    s->add_prediction(std::move(r));
  }
}

}  // namespace

std::string to_string(Bottleneck b) {
  switch (b) {
    case Bottleneck::Compute:         return "compute";
    case Bottleneck::StreamBandwidth: return "stream-bandwidth";
    case Bottleneck::Latency:         return "memory-latency";
    case Bottleneck::Sync:            return "synchronisation";
  }
  return "unknown";
}

Prediction predict(const arch::MachineModel& m, const WorkloadSignature& sig,
                   const RunConfig& cfg) {
  // rvhpc: hot-path begin — instrumentation preamble of every prediction:
  // no registry lookup, no allocation (rvhpc-lint S1xx guards this).
  obs::ScopedTimer timer(predict_timer());
  obs::ScopedSpan span("model", "predict");
  // rvhpc: hot-path end
  Prediction out;

  if (cfg.cores < 1 || cfg.cores > m.cores) {
    out.ran = false;
    out.dnr_reason = "requested " + std::to_string(cfg.cores) + " cores, " +
                     m.name + " has " + std::to_string(m.cores);
    emit_dnr(m, sig, cfg, out);
    return out;
  }
  const double dram_mib = m.memory.dram_gib * 1024.0 * kUsableDramFraction;
  if (sig.working_set_mib > dram_mib) {
    out.ran = false;
    out.dnr_reason = "working set " + std::to_string(sig.working_set_mib) +
                     " MiB exceeds usable DRAM of " + m.name;
    emit_dnr(m, sig, cfg, out);
    return out;  // e.g. FT class B on the 1 GiB Allwinner D1 (Table 2)
  }

  const double n = cfg.cores;
  const double ops = sig.total_mop * 1e6;

  // --- compute ------------------------------------------------------------
  out.vector = vector_outcome(m, sig, cfg.compiler);
  const double core_rate = core_ops_per_second(m, sig, cfg.compiler);
  const double s = std::clamp(sig.serial_fraction, 0.0, 1.0);
  // Amdahl split: the serial share does not divide by n.
  const double t_cpu = ops * (1.0 - s) / (n * core_rate) + ops * s / core_rate;

  // --- streamed DRAM traffic ------------------------------------------------
  const double ws_bytes = sig.working_set_mib * kMiB;
  const double llc = static_cast<double>(m.llc_bytes());
  double dram_fraction = 1.0;
  if (ws_bytes > 0.0 && llc > 0.0) {
    // Quadratic falloff: streaming sweeps get little LLC filtering unless
    // the working set genuinely fits.
    const double fit = std::min(llc / ws_bytes, 1.0);
    dram_fraction = ws_bytes <= llc
                        ? kLlcResidualTraffic
                        : 1.0 - (1.0 - kLlcResidualTraffic) * fit * fit;
  }
  const double comm_bytes =
      n > 1 ? sig.comm_bytes_per_op * ops * (1.0 - 1.0 / n) * kCommWeight : 0.0;
  const double stream_bytes =
      ops * sig.streamed_bytes_per_op * dram_fraction + comm_bytes;

  // Read-dominated traffic sustains more than STREAM copy on machines
  // whose copy bandwidth is write-allocate limited (notably the SG2042).
  const double read_bonus =
      1.0 + (m.memory.read_bw_bonus - 1.0) * std::clamp(sig.read_fraction, 0.0, 1.0);
  const double supply_bw =
      m.memory.chip_stream_bw_gbs() * read_bonus *
      placement_bw_factor(m, cfg.cores, cfg.placement) * 1e9;
  double bw_gbs = soft_min(n * m.memory.per_core_bw_gbs * read_bonus,
                           supply_bw / 1e9, /*p=*/10.0);

  // --- latency-bound accesses, with a load-dependent DRAM latency ----------
  const double n_rand = ops * sig.random_access_per_op;
  const double p_hit = effective_llc_hit_fraction(m, sig);

  // Threads spanning multiple NUMA regions see a blend of local and remote
  // DRAM latency (EPYC's four regions; first-touch keeps small runs local).
  double numa_factor = 1.0;
  if (m.memory.numa_regions > 1) {
    const double per_region =
        static_cast<double>(m.cores) / m.memory.numa_regions;
    const double regions_used = std::ceil(n / per_region);
    numa_factor = 1.0 + 0.33 * (1.0 - 1.0 / regions_used);
  }

  // Explicit topology charging (src/topo): once the active cores span
  // more than one declared domain, the remote share of DRAM traffic
  // drains through the inter-socket links — serial composition of the
  // local bandwidth with the links' aggregate — and every remote access
  // pays the link's transfer latency plus its coherence penalty on top
  // of the blend above.  A flat machine takes neither branch, so every
  // pre-topology machine predicts bit-identically.
  const topo::CrossTraffic xt =
      topo::cross_traffic(m.topology, cfg.cores, sig.working_set_mib);
  if (xt.remote_fraction > 0.0 && xt.link_bw_gbs > 0.0) {
    bw_gbs = 1.0 / ((1.0 - xt.remote_fraction) / bw_gbs +
                    xt.remote_fraction / xt.link_bw_gbs);
    numa_factor *= 1.0 + xt.remote_fraction * xt.extra_latency_ns /
                             m.memory.idle_latency_ns;
  }

  // Component-wise partial-overlap coefficients.  Prefetchable streams
  // overlap with compute even on in-order cores (small beta); a dependent
  // latency chain serialises an in-order pipeline almost completely.
  const double beta_flow = m.core.out_of_order ? kOverlapBetaOoO : 0.18;
  // Compute and a dependent latency chain serialise against each other
  // on an in-order core, whichever of the two dominates.
  const double beta_chain = m.core.out_of_order
                                ? kOverlapBetaOoO
                                : (sig.dependent_chain ? kOverlapBetaInOrder : 0.18);

  double u = 0.5;  // DRAM utilisation estimate, refined by fixed point
  double t_bw = 0.0, t_lat = 0.0, t_par = 0.0;
  for (int iter = 0; iter < 3; ++iter) {
    const double loaded_lat = loaded_dram_latency_s(m, u) * numa_factor;
    t_bw = stream_bytes > 0.0 ? stream_bytes / (bw_gbs * 1e9) : 0.0;
    if (n_rand > 0.0) {
      const double r_core = core_random_rate(m, sig, loaded_lat);
      const double dram_share = 1.0 - p_hit;
      const double cap = dram_share > 1e-6
                             ? chip_random_cap(m, loaded_lat) / dram_share
                             : std::numeric_limits<double>::infinity();
      const double rate = soft_min(n * r_core, cap);
      t_lat = n_rand / rate;
    }
    const double t_max = std::max({t_cpu, t_bw, t_lat});
    t_par = t_max;
    if (t_cpu < t_max) t_par += beta_chain * t_cpu;
    if (t_bw < t_max) t_par += beta_flow * t_bw;
    if (t_lat < t_max) t_par += beta_chain * t_lat;
    // Only streamed traffic meaningfully fills the channels; latency-bound
    // misses are too sparse to saturate them but do suffer the queueing.
    u = std::min(0.95, stream_bytes / std::max(t_par, 1e-12) / supply_bw);
  }

  // --- parallel overheads ----------------------------------------------------
  const double imb = imbalance_factor(sig, cfg.cores);
  const double t_sync = sync_cost_s(m, sig, cfg.cores);
  const double pq =
      cfg.cores > 1 ? parallel_quality(cfg.compiler.id, sig.kernel) : 1.0;
  const double total = (t_par * imb + t_sync) / pq;

  out.seconds = total;
  out.mops = sig.total_mop / total;
  out.achieved_bw_gbs = stream_bytes / std::max(total, 1e-12) / 1e9;
  out.breakdown = {t_cpu, t_bw, t_lat, t_sync, imb, Bottleneck::Compute};
  const double dmax = std::max({t_cpu, t_bw, t_lat, t_sync});
  if (dmax == t_sync)      out.breakdown.dominant = Bottleneck::Sync;
  else if (dmax == t_bw)   out.breakdown.dominant = Bottleneck::StreamBandwidth;
  else if (dmax == t_lat)  out.breakdown.dominant = Bottleneck::Latency;
  else                     out.breakdown.dominant = Bottleneck::Compute;

  count_predict_call(/*dnr=*/false);
  if (obs::TraceSession* s = obs::session()) {
    // Critical-path attribution: fold each resource's overlap contribution
    // (t_max for the binding one, beta-weighted for the rest — the exact
    // composition of the fixed-point loop above) through the imbalance and
    // parallel-quality scaling, so the phases sum to out.seconds.
    const double t_max = std::max({t_cpu, t_bw, t_lat});
    double c_cpu = t_cpu < t_max ? beta_chain * t_cpu : 0.0;
    double c_bw = t_bw < t_max ? beta_flow * t_bw : 0.0;
    double c_lat = t_lat < t_max ? beta_chain * t_lat : 0.0;
    if (t_cpu == t_max)     c_cpu += t_max;
    else if (t_bw == t_max) c_bw += t_max;
    else                    c_lat += t_max;
    const double scale = imb / pq;

    obs::PredictionRecord r = base_record(m, sig, cfg);
    r.seconds = out.seconds;
    r.mops = out.mops;
    r.achieved_bw_gbs = out.achieved_bw_gbs;
    r.phases = {{to_string(Bottleneck::Compute), c_cpu * scale},
                {to_string(Bottleneck::StreamBandwidth), c_bw * scale},
                {to_string(Bottleneck::Latency), c_lat * scale},
                {to_string(Bottleneck::Sync), t_sync / pq}};
    r.bottleneck = to_string(out.breakdown.dominant);
    std::vector<std::pair<std::string, double>> raw = {
        {to_string(Bottleneck::Compute), t_cpu},
        {to_string(Bottleneck::StreamBandwidth), t_bw},
        {to_string(Bottleneck::Latency), t_lat},
        {to_string(Bottleneck::Sync), t_sync}};
    std::stable_sort(raw.begin(), raw.end(), [](const auto& a, const auto& b) {
      return a.second > b.second;
    });
    for (const auto& [name, t] : raw) {
      if (name == r.bottleneck) continue;
      r.runner_up.emplace_back(name, dmax > 0.0 ? t / dmax : 0.0);
    }
    r.vectorised = out.vector.vectorised;
    r.vector_speedup = out.vector.blended_speedup;

    // The paper's headline mechanism as an event: streamed demand above
    // what the memory controllers supply at this placement.
    const double demand_gbs = n * m.memory.per_core_bw_gbs * read_bonus;
    const double supply_gbs = supply_bw / 1e9;
    if (stream_bytes > 0.0 && demand_gbs > supply_gbs) {
      s->add_instant("dram-channel-saturation", "model",
                     {{"machine", m.name},
                      {"cores", std::to_string(cfg.cores)},
                      {"demand_gbs", std::to_string(demand_gbs)},
                      {"supply_gbs", std::to_string(supply_gbs)}});
    }
    s->add_prediction(std::move(r));
  }
  if (span.active()) {
    span.arg("backend", "analytic");
    span.arg("machine", m.name);
    span.arg("kernel", to_string(sig.kernel));
    span.arg("cores", std::to_string(cfg.cores));
    span.arg("bottleneck", to_string(out.breakdown.dominant));
  }
  return out;
}

RunConfig paper_run_config(const arch::MachineModel& m, Kernel kernel,
                           int cores) {
  RunConfig cfg;
  cfg.cores = cores;
  cfg.compiler = paper_default_compiler(m);
  // §6: vectorised CG is ~3x slower on the C920v2, so the paper disabled
  // vectorisation for CG on the SG2044 (§5.4, Table 2 note).
  if (kernel == Kernel::CG && m.name == "sg2044") cfg.compiler.vectorise = false;
  cfg.placement = ThreadPlacement::OsDefault;
  return cfg;
}

Prediction predict_paper_setup(const arch::MachineModel& m,
                               const WorkloadSignature& sig, int cores) {
  return predict(m, sig, paper_run_config(m, sig.kernel, cores));
}

}  // namespace rvhpc::model
