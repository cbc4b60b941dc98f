#include "engine/request.hpp"

#include <bit>
#include <stdexcept>
#include <utility>

#include "model/sweep.hpp"

namespace rvhpc::engine {
namespace {

// --- stale-key guard -------------------------------------------------------
// The memo key must cover every field of every struct it fingerprints; a
// field added to arch/model but not to the hash_* functions below would
// silently alias requests in the cache.  These asserts count aggregate
// fields at compile time: growing any struct fails the build here until
// the matching hash_* checklist (and the count) is updated.
//
// Deliberate exclusions, for the record: MachineModel::part (marketing
// label, no model effect) and PredictionRequest's tag (a display label)
// are the only fields the key skips on purpose.

struct AnyField {
  template <class T>
  operator T() const;  // never defined: unevaluated contexts only
};

template <class T, class... Fields>
constexpr std::size_t aggregate_field_count() {
  if constexpr (requires { T{Fields{}..., AnyField{}}; }) {
    return aggregate_field_count<T, Fields..., AnyField>();
  } else {
    return sizeof...(Fields);
  }
}

static_assert(aggregate_field_count<arch::VectorUnit>() == 4,
              "VectorUnit grew: update hash_vector_unit and this count");
static_assert(aggregate_field_count<arch::CoreModel>() == 11,
              "CoreModel grew: update hash_core and this count");
static_assert(aggregate_field_count<arch::CacheLevel>() == 6,
              "CacheLevel grew: update hash_machine's cache loop and this count");
static_assert(aggregate_field_count<arch::MemorySubsystem>() == 11,
              "MemorySubsystem grew: update hash_memory and this count");
static_assert(aggregate_field_count<topo::Domain>() == 5,
              "topo::Domain grew: update hash_topology and this count");
static_assert(aggregate_field_count<topo::Link>() == 5,
              "topo::Link grew: update hash_topology and this count");
static_assert(aggregate_field_count<topo::Topology>() == 2,
              "topo::Topology grew: update hash_topology and this count");
static_assert(aggregate_field_count<arch::MachineModel>() == 9,
              "MachineModel grew: update hash_machine and this count");
static_assert(aggregate_field_count<model::WorkloadSignature>() == 23,
              "WorkloadSignature grew: update hash_signature and this count");
static_assert(aggregate_field_count<model::CompilerConfig>() == 2,
              "CompilerConfig grew: update request_key and this count");
static_assert(aggregate_field_count<model::RunConfig>() == 3,
              "RunConfig grew: update request_key and this count");

// FNV-1a, 64-bit.  Fields are hashed at full bit precision (doubles via
// bit_cast, never via text formatting) so two machines differing in the
// 10th significand — exactly what sensitivity analysis produces — get
// distinct fingerprints.
struct Fnv1a {
  std::uint64_t h = 1469598103934665603ull;

  void bytes(const void* p, std::size_t n) {
    const auto* b = static_cast<const unsigned char*>(p);
    for (std::size_t i = 0; i < n; ++i) {
      h ^= b[i];
      h *= 1099511628211ull;
    }
  }
  void u64(std::uint64_t v) { bytes(&v, sizeof v); }
  void f64(double v) { u64(std::bit_cast<std::uint64_t>(v)); }
  void i(long long v) { u64(static_cast<std::uint64_t>(v)); }
  void b(bool v) { u64(v ? 1 : 0); }
  void str(const std::string& s) {
    u64(s.size());
    bytes(s.data(), s.size());
  }
};

void hash_vector_unit(Fnv1a& h, const arch::VectorUnit& v) {
  h.i(static_cast<int>(v.isa));
  h.i(v.width_bits);
  h.i(v.pipes);
  h.f64(v.gather_efficiency);
}

void hash_core(Fnv1a& h, const arch::CoreModel& c) {
  h.f64(c.clock_ghz);
  h.b(c.out_of_order);
  h.i(c.decode_width);
  h.i(c.issue_width);
  h.i(c.fp_units);
  h.i(c.load_store_units);
  h.i(c.pipeline_stages);
  h.f64(c.sustained_scalar_opc);
  h.i(c.miss_level_parallelism);
  h.f64(c.complex_loop_efficiency);
  hash_vector_unit(h, c.vector);
}

void hash_memory(Fnv1a& h, const arch::MemorySubsystem& mem) {
  h.i(mem.controllers);
  h.i(mem.channels);
  h.str(mem.ddr_kind);
  h.f64(mem.channel_bw_gbs);
  h.f64(mem.stream_efficiency);
  h.f64(mem.per_core_bw_gbs);
  h.f64(mem.idle_latency_ns);
  h.i(mem.controller_queue_depth);
  h.f64(mem.read_bw_bonus);
  h.i(mem.numa_regions);
  h.f64(mem.dram_gib);
}

void hash_topology(Fnv1a& h, const topo::Topology& t) {
  h.u64(t.domains.size());
  for (const topo::Domain& d : t.domains) {
    h.str(d.id);
    h.i(d.cores);
    h.f64(d.dram_gib);
    h.f64(d.dram_bw_gbs);
    h.f64(d.llc_mib);
  }
  h.u64(t.links.size());
  for (const topo::Link& l : t.links) {
    h.str(l.from);
    h.str(l.to);
    h.f64(l.bandwidth_gbs);
    h.f64(l.latency_ns);
    h.f64(l.coherence_ns);
  }
}

void hash_machine(Fnv1a& h, const arch::MachineModel& m) {
  h.str(m.name);
  h.i(static_cast<int>(m.isa));
  h.i(m.cores);
  h.i(m.cluster_size);
  hash_core(h, m.core);
  h.u64(m.caches.size());
  for (const arch::CacheLevel& c : m.caches) {
    h.str(c.name);
    h.u64(c.size_bytes);
    h.i(c.associativity);
    h.i(c.line_bytes);
    h.i(c.shared_by_cores);
    h.f64(c.latency_cycles);
  }
  hash_memory(h, m.memory);
  hash_topology(h, m.topology);
}

void hash_signature(Fnv1a& h, const model::WorkloadSignature& s) {
  h.i(static_cast<int>(s.kernel));
  h.i(static_cast<int>(s.problem_class));
  h.f64(s.total_mop);
  h.f64(s.cycles_per_op);
  h.f64(s.vectorisable_fraction);
  h.f64(s.vector_elem_parallelism);
  h.f64(s.gather_fraction);
  h.i(s.element_bits);
  h.f64(s.rvv_codegen_derate);
  h.b(s.complex_control);
  h.f64(s.serial_fraction);
  h.f64(s.read_fraction);
  h.f64(s.streamed_bytes_per_op);
  h.f64(s.random_access_per_op);
  h.f64(s.random_llc_hit_fraction);
  h.f64(s.random_overlap);
  h.b(s.dependent_chain);
  h.f64(s.capacity_sensitivity);
  h.f64(s.random_footprint_mib);
  h.f64(s.working_set_mib);
  h.f64(s.comm_bytes_per_op);
  h.f64(s.global_syncs);
  h.f64(s.imbalance_coeff);
}

}  // namespace

std::string to_string(Backend b) {
  switch (b) {
    case Backend::Analytic: return "analytic";
    case Backend::Interval: return "interval";
  }
  return "unknown";
}

Backend parse_backend(const std::string& name) {
  if (name == "analytic") return Backend::Analytic;
  if (name == "interval") return Backend::Interval;
  throw std::invalid_argument("unknown backend '" + name +
                              "' (expected \"analytic\" or \"interval\")");
}

std::uint64_t machine_fingerprint(const arch::MachineModel& m) {
  Fnv1a h;
  hash_machine(h, m);
  return h.h;
}

std::uint64_t request_key(std::uint64_t machine_fp,
                          const model::WorkloadSignature& sig,
                          const model::RunConfig& cfg, Backend backend) {
  // The fingerprint is the FNV state after the machine's fields, so
  // continuing the stream from it hashes exactly what one pass over
  // (machine, signature, config, backend) would.
  Fnv1a h{machine_fp};
  hash_signature(h, sig);
  h.i(cfg.cores);
  h.i(static_cast<int>(cfg.compiler.id));
  h.b(cfg.compiler.vectorise);
  h.i(static_cast<int>(cfg.placement));
  h.i(static_cast<int>(backend));
  return h.h;
}

PredictionRequest::PredictionRequest(arch::MachineModel machine,
                                     model::WorkloadSignature sig,
                                     model::RunConfig cfg, std::string tag,
                                     Backend backend)
    : machine_(std::move(machine)),
      signature_(std::move(sig)),
      config_(cfg),
      tag_(std::move(tag)),
      backend_(backend),
      key_(request_key(machine_fingerprint(machine_), signature_, config_,
                       backend_)) {}

void RequestSet::add(arch::MachineModel machine, model::WorkloadSignature sig,
                     model::RunConfig cfg, std::string tag) {
  requests_.emplace_back(std::move(machine), std::move(sig), cfg,
                         std::move(tag));
}

void RequestSet::add_paper_setup(arch::MachineId id, model::Kernel kernel,
                                 model::ProblemClass cls, int cores,
                                 std::string tag) {
  add_paper_setup(arch::machine(id), kernel, cls, cores, std::move(tag));
}

void RequestSet::add_paper_setup(const arch::MachineModel& m,
                                 model::Kernel kernel, model::ProblemClass cls,
                                 int cores, std::string tag) {
  add(m, model::signature(kernel, cls), model::paper_run_config(m, kernel, cores),
      std::move(tag));
}

void RequestSet::add_scaling(const arch::MachineModel& m, model::Kernel kernel,
                             model::ProblemClass cls, model::RunConfig cfg,
                             std::string tag) {
  const model::WorkloadSignature sig = model::signature(kernel, cls);
  for (int cores : model::power_of_two_cores(m.cores)) {
    model::RunConfig point = cfg;
    point.cores = cores;
    add(m, sig, point, tag + "@" + std::to_string(cores));
  }
}

}  // namespace rvhpc::engine
