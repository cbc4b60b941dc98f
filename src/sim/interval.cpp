#include "sim/interval.hpp"

#include <algorithm>
#include <cmath>
#include <string>
#include <utility>
#include <vector>

#include "memsim/dram.hpp"
#include "memsim/hierarchy.hpp"
#include "model/compiler.hpp"
#include "model/scaling.hpp"
#include "model/singlecore.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "topo/topology.hpp"

namespace rvhpc::sim {
namespace {

constexpr double kMiB = 1024.0 * 1024.0;
/// Same admission rule as the analytic backend (model/predictor.cpp): a
/// working set beyond what the OS leaves of DRAM did-not-run on both
/// backends, so DNR points always agree in the calibration bench.
constexpr double kUsableDramFraction = 0.92;
/// Weight of inter-thread communication traffic against DRAM bandwidth
/// (mirrors the analytic kCommWeight; the LLC absorbs the rest).
constexpr double kCommWeight = 0.5;
/// Streamed footprint sweeps start here; random footprints live in a
/// disjoint high region (same address-map idiom as memsim::kernel_trace).
constexpr std::uint64_t kStreamBase = 0x100000000ull;
constexpr std::uint64_t kRandomBase = 0x4000000000ull;

void count_interval_call() {
  if (!obs::metrics_enabled()) return;
  static obs::Counter& calls = obs::Registry::global().counter(
      "rvhpc_sim_interval_calls_total", "interval-backend simulate() calls");
  calls.add();
}

/// Most accesses one of SignatureStream's two streams issues in one op (0
/// when its footprint holds no line): its credit accumulator never carries
/// a whole line, so at most floor(rate) + 1.
std::uint64_t per_op_bound(double rate, std::uint64_t footprint,
                           int line_bytes) {
  if (footprint < static_cast<std::uint64_t>(line_bytes)) return 0;
  return (rate > 0.0 ? static_cast<std::uint64_t>(rate) : 0) + 1;
}

/// The NUMA latency blend the analytic model applies (predictor.cpp);
/// shared deliberately so backend divergence localises to the mechanism.
double numa_latency_factor(const arch::MachineModel& m, double active_cores) {
  if (m.memory.numa_regions <= 1) return 1.0;
  const double per_region =
      static_cast<double>(m.cores) / m.memory.numa_regions;
  const double regions_used = std::ceil(active_cores / per_region);
  return 1.0 + 0.33 * (1.0 - 1.0 / regions_used);
}

}  // namespace

SignatureStream::SignatureStream(const model::WorkloadSignature& sig,
                                 std::uint64_t stream_bytes,
                                 std::uint64_t random_bytes, int line_bytes,
                                 std::uint64_t seed)
    : stream_lines_per_op_(line_bytes > 0
                               ? sig.streamed_bytes_per_op / line_bytes
                               : 0.0),
      random_per_op_(sig.random_access_per_op),
      write_ratio_(std::clamp(1.0 - sig.read_fraction, 0.0, 1.0)),
      stream_footprint_(stream_bytes),
      random_footprint_(random_bytes),
      line_bytes_(line_bytes),
      rng_(seed) {}

void SignatureStream::next_op(std::vector<SimAccess>& out) {
  if (stream_footprint_ >= static_cast<std::uint64_t>(line_bytes_)) {
    stream_credit_ += stream_lines_per_op_;
    while (stream_credit_ >= 1.0) {
      stream_credit_ -= 1.0;
      SimAccess a;
      a.addr = kStreamBase + stream_offset_;
      a.is_write = rng_.below(1000) < write_ratio_ * 1000.0;
      a.streamed = true;
      out.push_back(a);
      stream_offset_ += static_cast<std::uint64_t>(line_bytes_);
      if (stream_offset_ >= stream_footprint_) stream_offset_ = 0;
    }
  }
  if (random_footprint_ >= static_cast<std::uint64_t>(line_bytes_)) {
    random_credit_ += random_per_op_;
    const std::uint64_t lines =
        random_footprint_ / static_cast<std::uint64_t>(line_bytes_);
    while (random_credit_ >= 1.0) {
      random_credit_ -= 1.0;
      SimAccess a;
      a.addr = kRandomBase +
               rng_.below(lines) * static_cast<std::uint64_t>(line_bytes_);
      a.is_write = false;  // dependent loads: gathers, rank lookups
      a.streamed = false;
      out.push_back(a);
    }
  }
}

std::size_t SignatureStream::max_accesses_per_op() const {
  return static_cast<std::size_t>(
      per_op_bound(stream_lines_per_op_, stream_footprint_, line_bytes_) +
      per_op_bound(random_per_op_, random_footprint_, line_bytes_));
}

std::uint64_t SignatureStream::max_lines(std::uint64_t ops) const {
  const auto line = static_cast<std::uint64_t>(line_bytes_);
  return std::min(ops * per_op_bound(stream_lines_per_op_, stream_footprint_,
                                     line_bytes_),
                  (stream_footprint_ + line - 1) / line) +
         std::min(ops * per_op_bound(random_per_op_, random_footprint_,
                                     line_bytes_),
                  random_footprint_ / line);
}

arch::MachineModel per_core_slice(const arch::MachineModel& m,
                                  int active_cores, double footprint_scale) {
  arch::MachineModel slice = m;
  slice.cores = 1;
  slice.cluster_size = 1;
  for (std::size_t i = 0; i < slice.caches.size(); ++i) {
    arch::CacheLevel& level = slice.caches[i];
    const double sliced =
        static_cast<double>(m.cache_bytes_per_core(i, active_cores)) *
        footprint_scale;
    // A level must keep at least one full set, and its size must stay a
    // whole number of sets (line_bytes * associativity) — Hierarchy's
    // Cache constructor rejects anything else.
    const auto set_bytes =
        static_cast<std::size_t>(level.line_bytes) * level.associativity;
    const auto sets = static_cast<std::size_t>(
        std::max(1.0, sliced / static_cast<double>(set_bytes)));
    level.size_bytes = sets * set_bytes;
    level.shared_by_cores = 1;
  }
  return slice;
}

double footprint_scale(const model::WorkloadSignature& sig, int active_cores,
                       const IntervalConfig& icfg) {
  const double n = std::max(1, active_cores);
  // Each core sweeps its slice of the streamed working set; latency-bound
  // structures (CG's x vector, IS's histogram) are shared, so every core
  // sees the full random footprint.
  const double stream_slice_mib = sig.working_set_mib / n;
  const double largest_mib =
      std::max({stream_slice_mib, sig.random_footprint_mib, 1.0});
  return std::min(1.0, icfg.target_footprint_mib / largest_mib);
}

IntervalReport simulate(const arch::MachineModel& m,
                        const model::WorkloadSignature& sig,
                        const model::RunConfig& cfg,
                        const IntervalConfig& icfg) {
  obs::ScopedSpan span("sim", "interval");
  count_interval_call();
  IntervalReport rep;
  model::Prediction& out = rep.prediction;

  const auto emit_record = [&](const obs::PredictionRecord& r) {
    if (obs::TraceSession* s = obs::session()) {
      s->add_prediction(r);
    }
  };
  const auto base_record = [&]() {
    obs::PredictionRecord r;
    r.backend = "interval";
    r.machine = m.name;
    r.kernel = to_string(sig.kernel);
    r.problem_class = to_string(sig.problem_class);
    r.cores = cfg.cores;
    return r;
  };

  // --- admission: identical DNR rules to the analytic backend -------------
  if (cfg.cores < 1 || cfg.cores > m.cores) {
    out.ran = false;
    out.dnr_reason = "requested " + std::to_string(cfg.cores) + " cores, " +
                     m.name + " has " + std::to_string(m.cores);
    obs::PredictionRecord r = base_record();
    r.ran = false;
    r.dnr_reason = out.dnr_reason;
    emit_record(r);
    return rep;
  }
  const double dram_mib = m.memory.dram_gib * 1024.0 * kUsableDramFraction;
  if (sig.working_set_mib > dram_mib) {
    out.ran = false;
    out.dnr_reason = "working set " + std::to_string(sig.working_set_mib) +
                     " MiB exceeds usable DRAM of " + m.name;
    obs::PredictionRecord r = base_record();
    r.ran = false;
    r.dnr_reason = out.dnr_reason;
    emit_record(r);
    return rep;
  }

  const double n = cfg.cores;
  const double clock_hz = m.core.clock_ghz * 1e9;
  const int line_bytes = m.caches.empty() ? 64 : m.caches[0].line_bytes;

  // --- the representative core's memory system ----------------------------
  const double scale = footprint_scale(sig, cfg.cores, icfg);
  rep.counters.footprint_scale = scale;
  const auto scaled_bytes = [&](double mib) {
    return static_cast<std::uint64_t>(std::max(0.0, mib * kMiB * scale));
  };
  const std::uint64_t stream_bytes = scaled_bytes(sig.working_set_mib / n);
  const std::uint64_t random_bytes = scaled_bytes(sig.random_footprint_mib);

  const arch::MachineModel slice = per_core_slice(m, cfg.cores, scale);
  memsim::Hierarchy hier(slice, /*cores=*/1);
  SignatureStream stream(sig, stream_bytes, random_bytes, line_bytes,
                         icfg.seed);

  // This core's fair share of sustained chip bandwidth: chip supply at
  // this placement divided across active cores, capped by the per-core
  // link.  The DRAM queue model runs on that share, so saturation emerges
  // from one core's traffic exactly when the chip would saturate at n.
  const double read_bonus =
      1.0 + (m.memory.read_bw_bonus - 1.0) *
                std::clamp(sig.read_fraction, 0.0, 1.0);
  double numa_factor = numa_latency_factor(m, n);
  const double supply_gbs =
      m.memory.chip_stream_bw_gbs() * read_bonus *
      model::placement_bw_factor(m, cfg.cores, cfg.placement);
  double share_gbs =
      std::max(1e-3, std::min(supply_gbs / n,
                              m.memory.per_core_bw_gbs * read_bonus));

  // Topology charging (src/topo): the representative core lives in the
  // first (filled-first) domain, and its remote-share accesses route
  // through the inter-socket links.  The per-core link share is the
  // links' aggregate divided across all active cores (each produces the
  // same remote fraction), composed serially with the local share; the
  // remote accesses also pay the link + coherence latency, scaled into
  // the same idle-latency factor the analytic backend uses.  Flat
  // machines skip the branch entirely — bit-identical to before.
  const topo::CrossTraffic xt =
      topo::cross_traffic(m.topology, cfg.cores, sig.working_set_mib);
  if (xt.remote_fraction > 0.0 && xt.link_bw_gbs > 0.0) {
    const double link_share = std::max(1e-3, xt.link_bw_gbs / n);
    share_gbs = 1.0 / ((1.0 - xt.remote_fraction) / share_gbs +
                       xt.remote_fraction / link_share);
    numa_factor *= 1.0 + xt.remote_fraction * xt.extra_latency_ns /
                             m.memory.idle_latency_ns;
  }

  memsim::DramConfig dc;
  dc.channels = 1;
  dc.channel_bw_gbs = share_gbs;
  dc.efficiency = 1.0;  // share_gbs is already sustained, not peak
  dc.idle_latency_ns = m.memory.idle_latency_ns * numa_factor;
  dc.clock_ghz = m.core.clock_ghz;
  dc.line_bytes = line_bytes;
  memsim::DramModel dram(dc);

  const double bytes_per_cycle = share_gbs / m.core.clock_ghz;
  const double service_cycles = line_bytes / bytes_per_cycle;

  // --- dispatch and stall parameters ---------------------------------------
  const double core_rate = model::core_ops_per_second(m, sig, cfg.compiler);
  const double cpi = clock_hz / std::max(core_rate, 1.0);
  const int lsu = std::max(1, m.core.load_store_units);
  const double mlp = std::max(1, m.core.miss_level_parallelism);
  // Outstanding misses the access pattern sustains: MSHRs derated by the
  // signature's overlap; a dependent chain on an in-order core serialises.
  double miss_overlap =
      std::max(1.0, mlp * std::clamp(sig.random_overlap, 0.0, 1.0));
  if (sig.dependent_chain) {
    miss_overlap = m.core.out_of_order ? std::max(1.0, 0.5 * miss_overlap)
                                       : 1.0;
  }
  // How much of an on-chip (L2/L3) hit latency the pipeline hides.
  const double hit_hide =
      m.core.out_of_order ? 3.0 : (sig.dependent_chain ? 1.0 : 1.5);
  // Prefetch run-ahead, in lines: how far ahead of the core the streamed
  // fills may queue before dispatch throttles to the drain rate.
  const double prefetch_depth = std::max(4.0, 2.0 * mlp);

  // Inter-thread halo/exchange traffic, as extra DRAM lines that bypass
  // this core's private hierarchy (they are produced by other cores).
  const double comm_lines_per_op =
      n > 1 ? sig.comm_bytes_per_op * (1.0 - 1.0 / n) * kCommWeight /
                  line_bytes
            : 0.0;

  const std::uint64_t sim_ops = std::max<std::uint64_t>(icfg.sim_ops, 16);
  const std::uint64_t warmup_ops = std::min(
      sim_ops - 1, static_cast<std::uint64_t>(
                       static_cast<double>(sim_ops) *
                       std::clamp(icfg.warmup_fraction, 0.0, 0.9)));

  double cycle = 0.0;       // the representative core's clock
  double dram_ready = 0.0;  // when this core's DRAM share is next free
  double dispatch_cycles = 0.0;
  double stream_stall_cycles = 0.0;
  double latency_stall_cycles = 0.0;
  double bw_residency_cycles = 0.0;  // resource-only: total line drain time
  double comm_credit = 0.0;
  std::uint64_t dram_lines = 0;
  std::uint64_t accesses_total = 0;

  // Size every buffer the loop fills from the stream's bounds up front, so
  // the simulation loop never allocates.
  std::vector<SimAccess> accesses;
  accesses.reserve(stream.max_accesses_per_op());
  hier.reserve(static_cast<std::size_t>(stream.max_lines(sim_ops)));

  for (std::uint64_t op = 0; op < sim_ops; ++op) {
    if (op == warmup_ops) {
      // Caches and DRAM windows stay warm; the timing buckets restart.
      dispatch_cycles = 0.0;
      stream_stall_cycles = 0.0;
      latency_stall_cycles = 0.0;
      bw_residency_cycles = 0.0;
      dram_lines = 0;
    }
    accesses.clear();
    stream.next_op(accesses);
    accesses_total += accesses.size();
    comm_credit += comm_lines_per_op;

    // rvhpc: hot-path begin — interval inner loop: one hierarchy access
    // per synthesised line, no allocation (rvhpc-lint S1xx polices this).
    for (const SimAccess& a : accesses) {
      const memsim::HitLevel level = hier.access(0, a.addr, a.is_write);
      if (level == memsim::HitLevel::Dram) {
        ++dram_lines;
        const double loaded_lat =
            dram.request(static_cast<std::uint64_t>(cycle));
        const double start = std::max(cycle, dram_ready);
        dram_ready = start + service_cycles;
        bw_residency_cycles += service_cycles;
        if (a.streamed) {
          // Prefetchable: latency is hidden, but once the run-ahead queue
          // is full the core throttles to the share's drain rate.
          const double lead = dram_ready - cycle;
          const double max_lead = prefetch_depth * service_cycles;
          if (lead > max_lead) {
            const double stall = lead - max_lead;
            stream_stall_cycles += stall;
            cycle += stall;
          }
        } else {
          // Demand miss: the loaded latency is exposed, divided by the
          // miss-level parallelism the pattern sustains.
          const double stall = loaded_lat / miss_overlap;
          latency_stall_cycles += stall;
          cycle += stall;
        }
      } else if (!a.streamed && level != memsim::HitLevel::L1) {
        const std::size_t idx = level == memsim::HitLevel::L2 ? 1 : 2;
        if (idx < hier.levels()) {
          const double stall = hier.level_latency(idx) / hit_hide;
          latency_stall_cycles += stall;
          cycle += stall;
        }
      }
    }
    // Halo-exchange lines contend for the same bandwidth share without
    // touching the private hierarchy.
    while (comm_credit >= 1.0) {
      comm_credit -= 1.0;
      (void)dram.request(static_cast<std::uint64_t>(cycle));
      const double start = std::max(cycle, dram_ready);
      dram_ready = start + service_cycles;
      bw_residency_cycles += service_cycles;
      const double lead = dram_ready - cycle;
      const double max_lead = prefetch_depth * service_cycles;
      if (lead > max_lead) {
        const double stall = lead - max_lead;
        stream_stall_cycles += stall;
        cycle += stall;
      }
    }
    // Issue-width-limited dispatch: the calibrated steady-state CPI, or
    // the LSU occupancy of this op's accesses, whichever binds.
    const double dispatch =
        std::max(cpi, static_cast<double>(accesses.size()) / lsu);
    dispatch_cycles += dispatch;
    cycle += dispatch;
    // rvhpc: hot-path end
  }
  dram.finish(static_cast<std::uint64_t>(cycle));

  const std::uint64_t measured_ops = sim_ops - warmup_ops;
  rep.counters.measured_ops = measured_ops;
  rep.counters.accesses = accesses_total;
  rep.counters.dram_lines = dram_lines;
  for (std::size_t i = 0; i < hier.levels(); ++i) {
    rep.counters.level_hits.push_back(hier.level_stats(i).hits);
  }
  rep.counters.dispatch_cycles = dispatch_cycles;
  rep.counters.stream_stall_cycles = stream_stall_cycles;
  rep.counters.latency_stall_cycles = latency_stall_cycles;
  rep.counters.bw_bound_fraction = dram.bw_bound_fraction();

  // --- extrapolate the measured interval to the full run ------------------
  out.vector = model::vector_outcome(m, sig, cfg.compiler);
  const double ops = sig.total_mop * 1e6;
  const double s = std::clamp(sig.serial_fraction, 0.0, 1.0);
  const double ops_per_core = ops * (1.0 - s) / n;
  const double per_op = 1.0 / static_cast<double>(measured_ops);
  const double to_seconds = ops_per_core * per_op / clock_hz;

  const double t_serial = ops * s / std::max(core_rate, 1.0);
  const double t_compute = dispatch_cycles * to_seconds + t_serial;
  const double t_stream = stream_stall_cycles * to_seconds;
  const double t_lat = latency_stall_cycles * to_seconds;

  const double imb = model::imbalance_factor(sig, cfg.cores);
  const double t_sync = model::sync_cost_s(m, sig, cfg.cores);
  const double pq = cfg.cores > 1
                        ? model::parallel_quality(cfg.compiler.id, sig.kernel)
                        : 1.0;
  const double total =
      ((t_compute + t_stream + t_lat) * imb + t_sync) / pq;

  out.seconds = total;
  out.mops = sig.total_mop / std::max(total, 1e-12);
  const double dram_bytes_chip =
      (static_cast<double>(dram_lines) + comm_lines_per_op * measured_ops) *
      line_bytes * ops_per_core * per_op * n;
  out.achieved_bw_gbs = dram_bytes_chip / std::max(total, 1e-12) / 1e9;

  // Resource-only times for classification — the same quantities the
  // analytic breakdown carries (t_cpu = compute alone, t_bw = drain time
  // of all DRAM traffic, t_lat = exposed miss latency).
  const double bw_only = bw_residency_cycles * to_seconds;
  out.breakdown = {t_compute, bw_only, t_lat, t_sync, imb,
                   model::Bottleneck::Compute};
  const double dmax = std::max({t_compute, bw_only, t_lat, t_sync});
  if (dmax == t_sync) {
    out.breakdown.dominant = model::Bottleneck::Sync;
  } else if (dmax == bw_only) {
    out.breakdown.dominant = model::Bottleneck::StreamBandwidth;
  } else if (dmax == t_lat) {
    out.breakdown.dominant = model::Bottleneck::Latency;
  } else {
    out.breakdown.dominant = model::Bottleneck::Compute;
  }

  if (obs::TraceSession* sess = obs::session()) {
    obs::PredictionRecord r = base_record();
    r.seconds = out.seconds;
    r.mops = out.mops;
    r.achieved_bw_gbs = out.achieved_bw_gbs;
    const double bucket_scale = imb / pq;
    r.phases = {{to_string(model::Bottleneck::Compute),
                 t_compute * bucket_scale},
                {to_string(model::Bottleneck::StreamBandwidth),
                 t_stream * bucket_scale},
                {to_string(model::Bottleneck::Latency), t_lat * bucket_scale},
                {to_string(model::Bottleneck::Sync), t_sync / pq}};
    r.bottleneck = to_string(out.breakdown.dominant);
    std::vector<std::pair<std::string, double>> raw = {
        {to_string(model::Bottleneck::Compute), t_compute},
        {to_string(model::Bottleneck::StreamBandwidth), bw_only},
        {to_string(model::Bottleneck::Latency), t_lat},
        {to_string(model::Bottleneck::Sync), t_sync}};
    std::stable_sort(raw.begin(), raw.end(),
                     [](const auto& a, const auto& b) {
                       return a.second > b.second;
                     });
    for (const auto& [name, t] : raw) {
      if (name == r.bottleneck) continue;
      r.runner_up.emplace_back(name, dmax > 0.0 ? t / dmax : 0.0);
    }
    r.vectorised = out.vector.vectorised;
    r.vector_speedup = out.vector.blended_speedup;
    if (rep.counters.bw_bound_fraction > 0.25) {
      sess->add_instant(
          "interval-bw-saturation", "sim",
          {{"machine", m.name},
           {"cores", std::to_string(cfg.cores)},
           {"bw_bound_fraction",
            std::to_string(rep.counters.bw_bound_fraction)}});
    }
    sess->add_prediction(std::move(r));
  }
  if (span.active()) {
    span.arg("backend", "interval");
    span.arg("machine", m.name);
    span.arg("kernel", to_string(sig.kernel));
    span.arg("cores", std::to_string(cfg.cores));
    span.arg("bottleneck", to_string(out.breakdown.dominant));
  }
  return rep;
}

model::Prediction predict_interval(const arch::MachineModel& m,
                                   const model::WorkloadSignature& sig,
                                   const model::RunConfig& cfg) {
  return simulate(m, sig, cfg).prediction;
}

}  // namespace rvhpc::sim
