// Suite summary — whole-suite geometric means, the "is RISC-V ready?"
// bottom line.  Also revisits the paper's §2.1 Geekbench aside: [13] found
// SG2044 ~ SG2042 for single-core work and ~1.3x for multi-core; our NPB
// geomeans bracket that (NPB stresses memory much harder than Geekbench,
// so the multicore geomean lands higher).
//
// The whole grid — every (machine, kernel, cores) cell any column needs —
// is built as ONE deduplicated engine::RequestSet and evaluated in a
// single batch (--jobs=N sizes the pool).  The run executes under an obs
// session, and the registry's metrics for the run are appended to the
// output so the summary doubles as a self-profile.

#include <cmath>
#include <cstddef>
#include <iostream>
#include <map>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "cli/cli.hpp"
#include "engine/batch.hpp"
#include "engine/request.hpp"
#include "model/sweep.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "report/csv.hpp"
#include "report/table.hpp"
#include "serve/persist.hpp"

using namespace rvhpc;
using arch::MachineId;
using model::Kernel;
using model::ProblemClass;

namespace {

std::string cell_tag(MachineId id, Kernel k, int cores) {
  return std::string(arch::name_of(id)) + "/" + model::to_string(k) + "@" +
         std::to_string(cores);
}

/// Core count a column uses on `id`: the column's fixed count, or the full
/// chip when the column says 0.
int column_cores(MachineId id, int cores) {
  return cores > 0 ? cores : arch::machine(id).cores;
}

}  // namespace

// Accepts --jobs=N: worker threads for the batch evaluation (0 = every
// hardware thread; see cli::apply_jobs_flag).  --cache-file=<file> keeps
// the engine's memo cache across runs (serve::load_cache/save_cache): a
// repeated summary answers every cell from the restored cache.
// --cache-max-entries=N caps the file, trimming oldest-LRU entries first.
int main(int argc, char** argv) {
  cli::apply_jobs_flag(argc, argv);
  std::string cache_file;
  std::size_t cache_max_entries = 0;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--cache-file=", 0) == 0) {
      cache_file = arg.substr(std::string("--cache-file=").size());
    } else if (arg.rfind("--cache-max-entries=", 0) == 0) {
      const std::string value =
          arg.substr(std::string("--cache-max-entries=").size());
      if (!cli::parse_size(value, cache_max_entries)) {
        std::cerr << "suite_summary: bad --cache-max-entries value '" << value
                  << "'\n";
        return 2;
      }
    }
  }
  std::cout << "Suite summary — geometric-mean speedup of the SG2044 over "
               "each CPU\n(class C; >1 means the SG2044 is faster)\n\n";
  const std::vector<Kernel> kernels = model::npb_kernels();
  const std::vector<Kernel> apps = model::npb_pseudo_apps();
  const std::vector<MachineId> others = {MachineId::Sg2042, MachineId::Epyc7742,
                                         MachineId::Xeon8170,
                                         MachineId::ThunderX2};
  const std::vector<int> column_counts = {1, 16, 0};  // 0 = full chip

  // Build the whole grid as one deduplicated request set: the SG2044 cells
  // are shared by all four comparison rows, so each is requested once.
  engine::RequestSet set;
  std::set<std::string> requested;
  const auto need = [&](MachineId id, Kernel k, int cores) {
    const std::string tag = cell_tag(id, k, cores);
    if (!requested.insert(tag).second) return;
    set.add_paper_setup(id, k, ProblemClass::C, cores, tag);
  };
  for (MachineId other : others) {
    for (int cores : column_counts) {
      for (Kernel k : kernels) {
        need(MachineId::Sg2044, k, column_cores(MachineId::Sg2044, cores));
        need(other, k, column_cores(other, cores));
      }
    }
    for (Kernel k : apps) {
      need(MachineId::Sg2044, k, column_cores(MachineId::Sg2044, 0));
      need(other, k, column_cores(other, 0));
    }
  }

  // Without --cache-file the batch runs under an obs session so the
  // metrics block below reflects exactly this run's work (tracing
  // disables the memo cache — every cell pays full predict() price,
  // keeping attribution complete).  With --cache-file the memo cache IS
  // the point, so the run skips the session (metrics only) and restores
  // the cache from disk first: a warm rerun answers every cell for free.
  std::optional<obs::SessionScope> scope;
  std::size_t restored = 0;
  if (cache_file.empty()) {
    scope.emplace();
  } else {
    obs::set_metrics_enabled(true);
    const serve::LoadResult loaded =
        serve::load_cache(cache_file, engine::default_evaluator().cache());
    restored = loaded.restored;
  }
  const std::vector<engine::PredictionResult> results =
      engine::default_evaluator().evaluate(set);
  if (!cache_file.empty()) {
    (void)serve::save_cache(cache_file, engine::default_evaluator().cache(),
                            cache_max_entries);
  }
  std::map<std::string, const model::Prediction*> cell;
  for (const engine::PredictionResult& r : results) {
    cell[r.tag] = &r.prediction;
  }

  const auto geomean_vs = [&](MachineId other,
                              const std::vector<Kernel>& ks, int cores) {
    double log_sum = 0.0;
    int n = 0;
    for (Kernel k : ks) {
      const model::Prediction& a =
          *cell.at(cell_tag(MachineId::Sg2044, k,
                            column_cores(MachineId::Sg2044, cores)));
      const model::Prediction& b =
          *cell.at(cell_tag(other, k, column_cores(other, cores)));
      if (!a.ran || !b.ran) continue;
      log_sum += std::log(b.seconds / a.seconds);
      ++n;
    }
    return n > 0 ? std::exp(log_sum / n) : 0.0;
  };

  report::Table t({"versus", "kernels @1 core", "kernels @16 cores",
                   "full chip (kernels)", "full chip (apps)"});
  for (MachineId other : others) {
    t.add_row({arch::name_of(other),
               report::fmt(geomean_vs(other, kernels, 1), 2) + "x",
               report::fmt(geomean_vs(other, kernels, 16), 2) + "x",
               report::fmt(geomean_vs(other, kernels, 0), 2) + "x",
               report::fmt(geomean_vs(other, apps, 0), 2) + "x"});
  }
  report::maybe_write_csv("suite_summary", t);
  std::cout << t.render()
            << "\nReading (the paper's conclusions in four numbers per row):"
               "\n  - vs SG2042: modest single-core edge, large full-chip"
               " edge (memory subsystem);"
               "\n  - vs x86/Arm: behind at equal low core counts, far closer"
               " at full chip, with\n    the kernels (memory-dominated)"
               " closer than the pseudo-applications\n    (compute/vector"
               " codegen still favours mature ISAs).\n";

  std::cout << "\nSelf-profile of this run (" << set.size()
            << " unique cells, " << engine::default_evaluator().jobs()
            << " thread(s) at most, ";
  if (scope) {
    std::cout << scope->session().event_count() << " trace records";
  } else {
    std::cout << "tracing off: --cache-file";
  }
  std::cout << "):\n\npersistent-cache restored entries: " << restored
            << (cache_file.empty() ? " (no --cache-file)" : "") << "\n"
            << obs::Registry::global().render_text();
  return 0;
}
