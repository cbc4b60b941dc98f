#include "analysis/engine.hpp"

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <stdexcept>

#include "analysis/rules.hpp"
#include "arch/registry.hpp"
#include "model/signatures.hpp"

namespace rvhpc::analysis {

const std::vector<RuleInfo>& rule_catalogue() {
  static const std::vector<RuleInfo> rules = {
      // --- machine rules ---------------------------------------------------
      {"A001-bw-channel-mismatch", Severity::Error,
       "per-channel bandwidth exceeds the ddr_kind data rate's theoretical peak"},
      {"A002-ddr-kind-opaque", Severity::Note,
       "ddr_kind does not parse as FAMILY-RATE; bandwidth cross-check skipped"},
      {"A003-stream-efficiency-implausible", Severity::Warn,
       "STREAM efficiency outside the (0.02, 0.95) range real chips exhibit"},
      {"A004-cluster-cache-mismatch", Severity::Warn,
       "a partially-shared cache level is not shared by cluster_size cores"},
      {"A005-cache-per-core-shrink", Severity::Warn,
       "an outer cache level offers less capacity per sharing core than the inner one"},
      {"A006-isa-vector-mismatch", Severity::Error,
       "the declared vector ISA cannot exist on the declared scalar ISA"},
      {"A007-vector-width-pow2", Severity::Error,
       "architectural vector width is not a power of two"},
      {"A008-idle-latency-implausible", Severity::Warn,
       "idle DRAM latency outside the [20, 400] ns range of real systems"},
      {"A009-numa-core-split", Severity::Warn,
       "cores do not divide evenly across NUMA regions"},
      {"A010-clock-implausible", Severity::Warn,
       "core clock outside the [0.3, 6.0] GHz range of shipping silicon"},
      {"A011-llc-exceeds-dram", Severity::Error,
       "last-level cache is larger than DRAM"},
      {"A012-opc-exceeds-decode", Severity::Warn,
       "sustained scalar op/cycle exceeds the decode width that must feed it"},
      {"A013-inorder-deep-mlp", Severity::Warn,
       "an in-order core claims more outstanding misses than it can track"},
      {"A014-channel-controller-split", Severity::Warn,
       "channels do not divide evenly across memory controllers"},
      // --- topology rules (src/topo overlay) -------------------------------
      {"A301-topo-core-sum", Severity::Error,
       "NUMA domain core counts do not sum to the machine's cores"},
      {"A302-topo-link-outruns-dram", Severity::Warn,
       "an inter-socket link claims bandwidth at or above the local DRAM "
       "behind it"},
      {"A303-topo-dram-slice-mismatch", Severity::Note,
       "domain DRAM slices do not sum to memory.dram_gib"},
      {"A304-topo-numa-region-mismatch", Severity::Warn,
       "memory.numa_regions disagrees with the number of topology domains"},
      // --- workload-signature rules ---------------------------------------
      {"A101-fraction-range", Severity::Error,
       "a fraction-typed signature field is outside [0, 1]"},
      {"A102-footprint-inconsistent", Severity::Error,
       "random-access footprint contradicts the total working set"},
      {"A103-work-nonpositive", Severity::Error,
       "work, cycle, byte or footprint totals must be positive/non-negative"},
      {"A104-element-bits", Severity::Error,
       "vector element width is neither 32 nor 64 bits"},
      {"A105-bytes-per-op-implausible", Severity::Warn,
       "more than a cache line of DRAM traffic per op — likely a unit error"},
      {"A106-vector-shape-inconsistent", Severity::Warn,
       "vectorisation fields contradict each other"},
      {"A107-random-never-misses", Severity::Note,
       "latency-bound accesses that always hit the LLC never touch DRAM"},
      {"A108-sync-density", Severity::Warn,
       "more global synchronisations than operations — likely a unit error"},
      {"A110-class-regression", Severity::Warn,
       "work or footprint shrinks as the NPB problem class grows"},
      // --- calibration-drift rules ----------------------------------------
      {"A201-fig1-ratio-drift", Severity::Warn,
       "registry no longer reproduces Fig. 1's SG2044/SG2042 bandwidth ratio"},
      {"A202-table3-drift", Severity::Warn,
       "single-core class C prediction drifted from the paper's Table 3"},
      {"A203-stream-parity-drift", Severity::Warn,
       "SG2044/SG2042 low-core-count STREAM parity (Fig. 1 prose) lost"},
      // --- bench-source rules ----------------------------------------------
      {"B001-direct-predict-sweep", Severity::Warn,
       "bench/example source calls predict() inside a loop instead of "
       "batching through rvhpc::engine"},
      // --- source concurrency rules ----------------------------------------
      {"S001-blocking-call-in-event-loop", Severity::Warn,
       "a net::Server method calls blocking work (sleep, prediction, cache "
       "I/O) on the single-threaded poll() loop"},
      {"S002-non-atomic-shared-flag", Severity::Warn,
       "a file-scope scalar flag is written and read by different functions "
       "without std::atomic or a lock"},
      {"S003-lock-order-inversion", Severity::Warn,
       "two mutexes are acquired in opposite orders by different functions "
       "— a deadlock when the callers race"},
      {"S004-unjoined-thread", Severity::Warn,
       "a local std::thread is detached or never joined on some path"},
      // --- hot-path hygiene rules (inside annotated hot-path regions) ------
      {"S101-hot-path-allocation", Severity::Warn,
       "heap allocation (new/make_unique/make_shared/malloc) inside an "
       "annotated hot-path region"},
      {"S102-hot-path-string-copy", Severity::Warn,
       "std::string passed or returned by value inside an annotated "
       "hot-path region"},
      {"S103-hot-path-to-string", Severity::Warn,
       "std::to_string materialises a temporary string inside an annotated "
       "hot-path region"},
      {"S104-hot-path-temp-key", Severity::Warn,
       "map lookup (or by-name obs registry lookup) constructs a temporary "
       "std::string key inside an annotated hot-path region"},
      // --- syscall robustness rules ----------------------------------------
      {"S201-ignored-syscall-result", Severity::Warn,
       "the result of write/send/poll/rename is silently discarded — "
       "failures and short writes go unnoticed"},
  };
  return rules;
}

bool rule_matches(const std::string& id, const std::string& pattern) {
  if (pattern.empty()) return false;
  if (id == pattern) return true;
  // "A001" selects "A001-bw-channel-mismatch".
  return id.size() > pattern.size() && id[pattern.size()] == '-' &&
         id.compare(0, pattern.size(), pattern) == 0;
}

namespace detail {

void emit(Report& out, const std::string& rule_id, std::string subject,
          std::string field, std::string message) {
  for (const RuleInfo& info : rule_catalogue()) {
    if (info.id == rule_id) {
      out.add({rule_id, info.severity, std::move(subject), std::move(field),
               std::move(message), {}});
      return;
    }
  }
  throw std::logic_error("rvhpc::analysis: rule '" + rule_id +
                         "' missing from rule_catalogue()");
}

}  // namespace detail

void Report::merge(Report other) {
  diagnostics.insert(diagnostics.end(),
                     std::make_move_iterator(other.diagnostics.begin()),
                     std::make_move_iterator(other.diagnostics.end()));
}

std::size_t Report::count(Severity s) const {
  return static_cast<std::size_t>(
      std::count_if(diagnostics.begin(), diagnostics.end(),
                    [s](const Diagnostic& d) { return d.severity == s; }));
}

std::vector<Diagnostic> Report::by_rule(const std::string& id_or_prefix) const {
  std::vector<Diagnostic> hits;
  for (const Diagnostic& d : diagnostics) {
    if (rule_matches(d.rule, id_or_prefix)) hits.push_back(d);
  }
  return hits;
}

std::string Report::format() const {
  std::ostringstream os;
  for (const Diagnostic& d : diagnostics) os << d.format() << "\n";
  return os.str();
}

Report apply(Report r, const LintOptions& opts) {
  Report out;
  for (Diagnostic& d : r.diagnostics) {
    const bool suppressed =
        std::any_of(opts.suppressed.begin(), opts.suppressed.end(),
                    [&](const std::string& p) { return rule_matches(d.rule, p); });
    if (suppressed) continue;
    if (opts.werror && d.severity == Severity::Warn) d.severity = Severity::Error;
    out.add(std::move(d));
  }
  return out;
}

Report lint_machine(const arch::MachineModel& m) {
  Report r;
  detail::machine_rules(r, m);
  detail::topology_rules(r, m);
  return r;
}

Report lint_machine_file(const arch::ParsedMachine& pm, const std::string& path) {
  Report r = lint_machine(pm.model);
  for (Diagnostic& d : r.diagnostics) {
    d.loc.file = path;
    d.loc.line = pm.line_of(d.field);
  }
  LintOptions file_opts;
  file_opts.suppressed = pm.suppressed_rules;
  return apply(std::move(r), file_opts);
}

Report lint_signature(const model::WorkloadSignature& sig) {
  Report r;
  detail::signature_rules(r, sig);
  return r;
}

Report lint_signature_suite() {
  Report r;
  std::vector<model::Kernel> kernels = model::npb_all();
  kernels.insert(kernels.end(),
                 {model::Kernel::StreamCopy, model::Kernel::StreamTriad,
                  model::Kernel::Hpl, model::Kernel::Hpcg});
  for (model::Kernel k : kernels) {
    for (model::ProblemClass c :
         {model::ProblemClass::S, model::ProblemClass::W, model::ProblemClass::A,
          model::ProblemClass::B, model::ProblemClass::C}) {
      r.merge(lint_signature(model::signature(k, c)));
    }
  }
  detail::suite_rules(r);
  return r;
}

Report lint_registry() {
  Report r;
  for (arch::MachineId id : arch::all_machines()) {
    r.merge(lint_machine(arch::machine(id)));
  }
  // The topology-bearing machines live outside all_machines() (paper-order
  // artifacts stay bit-identical) but are registry entries all the same.
  for (arch::MachineId id : arch::topo_machines()) {
    r.merge(lint_machine(arch::machine(id)));
  }
  detail::calibration_rules(r);
  return r;
}

namespace {

/// Applies the model's own comment-directive suppressions, the same
/// contract as the `#`-comment form in `.machine` files.
Report apply_file_directives(Report r, const SourceModel& m) {
  LintOptions file_opts;
  file_opts.suppressed = m.disabled_rules;
  return apply(std::move(r), file_opts);
}

}  // namespace

Report lint_bench_source(const std::string& source, const std::string& path) {
  const SourceModel m = build_source_model(source, path);
  Report r;
  detail::bench_source_rules(r, m);
  return apply_file_directives(std::move(r), m);
}

Report lint_source(const std::string& source, const std::string& path) {
  const SourceModel m = build_source_model(source, path);
  Report r;
  detail::bench_source_rules(r, m);
  detail::source_rules(r, m);
  return apply_file_directives(std::move(r), m);
}

std::vector<std::string> find_sources(const std::string& dir) {
  namespace fs = std::filesystem;
  std::error_code ec;
  if (!fs::is_directory(dir, ec) || ec) {
    throw std::runtime_error("rvhpc::analysis: not a readable directory: " +
                             dir);
  }
  std::vector<std::string> paths;
  for (fs::recursive_directory_iterator it(dir, ec), end; it != end;
       it.increment(ec)) {
    if (ec) {
      throw std::runtime_error("rvhpc::analysis: cannot walk " + dir + ": " +
                               ec.message());
    }
    if (!it->is_regular_file()) continue;
    const std::string ext = it->path().extension().string();
    if (ext == ".cpp" || ext == ".cc" || ext == ".cxx" || ext == ".hpp" ||
        ext == ".h") {
      paths.push_back(it->path().generic_string());
    }
  }
  std::sort(paths.begin(), paths.end());
  return paths;
}

Report lint_sources(const std::string& dir) {
  Report r;
  for (const std::string& path : find_sources(dir)) {
    std::ifstream in(path, std::ios::binary);
    if (!in) {
      throw std::runtime_error("rvhpc::analysis: cannot read " + path);
    }
    std::ostringstream buf;
    buf << in.rdbuf();
    r.merge(lint_source(buf.str(), path));
  }
  return r;
}

}  // namespace rvhpc::analysis
