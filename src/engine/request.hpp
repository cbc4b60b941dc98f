#pragma once
// rvhpc::engine — immutable prediction request/result value types.
//
// Every reproduced table and figure is a sweep: machines × kernels × core
// counts × compiler configurations, each point one predict() call.  The
// engine turns those sweeps into data — a PredictionRequest captures one
// point as a value (machine description included, so custom what-if
// machines work exactly like registry entries), a RequestSet accumulates a
// sweep, and the BatchEvaluator (batch.hpp) runs the set across a thread
// pool with deterministic, input-ordered results.
//
// Requests are immutable once constructed: the memoisation key (a hash of
// machine, signature, core count and compiler configuration) is computed
// in the constructor and never changes.

#include <cstdint>
#include <string>
#include <vector>

#include "arch/machine.hpp"
#include "arch/registry.hpp"
#include "model/predictor.hpp"
#include "model/signatures.hpp"

namespace rvhpc::engine {

/// Which prediction mechanism evaluates a request.  Folded into the memo
/// key, so a cached analytic result can never answer an interval request
/// (and vice versa) — the two backends are deliberately different models
/// of the same machine.
enum class Backend : std::uint8_t {
  Analytic,  ///< closed-form ECM model (model::predict)
  Interval,  ///< interval core simulation over memsim (sim::predict_interval)
};

/// "analytic" / "interval".
[[nodiscard]] std::string to_string(Backend b);

/// Inverse of to_string(Backend); throws std::invalid_argument naming the
/// valid backends on anything else (serve turns that into a parse error).
[[nodiscard]] Backend parse_backend(const std::string& name);

/// 64-bit FNV-1a fingerprint of a machine description.  Hashes every
/// MachineModel field (serialize.cpp's to_text() is the field checklist;
/// keep the two in sync when the model grows a knob) at full double
/// precision, so the 5%-perturbed machines the sensitivity analysis sweeps
/// never alias a registry entry in the memo cache.
[[nodiscard]] std::uint64_t machine_fingerprint(const arch::MachineModel& m);

/// The memo key of (machine, signature, config, backend), given the
/// machine's machine_fingerprint().  Bit-identical to
/// PredictionRequest::key(), which goes through it; callers that see the
/// same machine on every request (the service's registry machines)
/// fingerprint it once and skip re-hashing every machine field per key.
[[nodiscard]] std::uint64_t request_key(std::uint64_t machine_fp,
                                        const model::WorkloadSignature& sig,
                                        const model::RunConfig& cfg,
                                        Backend backend);

/// One point of a sweep, as an immutable value.
class PredictionRequest {
 public:
  PredictionRequest(arch::MachineModel machine, model::WorkloadSignature sig,
                    model::RunConfig cfg, std::string tag = "",
                    Backend backend = Backend::Analytic);

  [[nodiscard]] const arch::MachineModel& machine() const { return machine_; }
  [[nodiscard]] const model::WorkloadSignature& signature() const {
    return signature_;
  }
  [[nodiscard]] const model::RunConfig& config() const { return config_; }
  /// Caller-chosen label carried through to the result (row/series key).
  [[nodiscard]] const std::string& tag() const { return tag_; }
  /// The mechanism that will evaluate this request.
  [[nodiscard]] Backend backend() const { return backend_; }
  /// Memoisation key over (machine, signature, cores, compiler, placement,
  /// backend) — request.cpp static-asserts the field checklists so a new
  /// field cannot silently stay out of the key.
  [[nodiscard]] std::uint64_t key() const { return key_; }

 private:
  arch::MachineModel machine_;
  model::WorkloadSignature signature_;
  model::RunConfig config_;
  std::string tag_;
  Backend backend_;
  std::uint64_t key_;
};

/// One evaluated point.  `index` is the request's position in the set the
/// evaluator ran, so results are always relatable to inputs regardless of
/// which pool thread computed them.
struct PredictionResult {
  std::size_t index = 0;
  std::string tag;
  model::Prediction prediction;
  bool from_cache = false;
};

/// Builder for a sweep's worth of requests.  The add_* helpers encode the
/// configurations the paper's tables use so bench binaries stop hand-
/// rolling them.
class RequestSet {
 public:
  void add(PredictionRequest r) { requests_.push_back(std::move(r)); }
  void add(arch::MachineModel machine, model::WorkloadSignature sig,
           model::RunConfig cfg, std::string tag = "");

  /// The paper-setup prediction of `kernel`@`cls` on registry machine `id`
  /// at exactly `cores` cores (compiler and placement as published).
  void add_paper_setup(arch::MachineId id, model::Kernel kernel,
                       model::ProblemClass cls, int cores,
                       std::string tag = "");
  /// As add_paper_setup, for a custom machine description.
  void add_paper_setup(const arch::MachineModel& m, model::Kernel kernel,
                       model::ProblemClass cls, int cores,
                       std::string tag = "");

  /// One request per power-of-two core count up to the chip (the x-axis of
  /// the paper's Figures 1-6), with `cfg`'s compiler/placement and the core
  /// count overridden per point.  Tags are "<tag>@<cores>".
  void add_scaling(const arch::MachineModel& m, model::Kernel kernel,
                   model::ProblemClass cls, model::RunConfig cfg,
                   std::string tag = "");

  [[nodiscard]] const std::vector<PredictionRequest>& requests() const {
    return requests_;
  }
  [[nodiscard]] std::size_t size() const { return requests_.size(); }
  [[nodiscard]] bool empty() const { return requests_.empty(); }

 private:
  std::vector<PredictionRequest> requests_;
};

}  // namespace rvhpc::engine
