#pragma once
// Seeded request generation for the rvhpc benchmark.
//
// Every workload's inputs are a pure function of (workload, seed): the
// same seed yields the same request bytes, so two runs of one seed send
// identical traffic.  The program under test only ever sees the rendered
// JSON lines (or HTTP bodies carrying them); nothing here calls into the
// server.

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace rvbench {

/// splitmix64: small, fast and fully determined by its seed.
class Rng {
 public:
  explicit Rng(std::uint64_t seed) : state_(seed) {}
  std::uint64_t next();
  /// Uniform in [0, 1).
  double uniform();
  /// Uniform in [0, n).
  std::uint64_t below(std::uint64_t n);

 private:
  std::uint64_t state_;
};

/// The content of one prediction request, independent of its id.
struct Spec {
  std::string machine;       ///< registry name; empty when inline
  std::string machine_text;  ///< inline `.machine` description
  std::string kernel;
  std::string cls;
  int cores = 1;
  std::string backend = "analytic";
  int vectorise = -1;        ///< -1 absent, 0 false, 1 true
  std::string placement;     ///< empty = absent
};

/// One request line, `{"id": "<id>", ...}` without a trailing newline.
[[nodiscard]] std::string render_line(const Spec& s, const std::string& id);

/// The ~1k registry keys wire_hot draws from (registry machines ×
/// kernels × {B, C} × power-of-two cores × both backends), in a seeded
/// order: index 0 is the hottest Zipf rank.
[[nodiscard]] std::vector<Spec> hot_keys(std::uint64_t seed);

/// Seeded draws from 0..n-1 without replacement, reshuffled every n
/// draws: each stretch of n draws holds every value once, so a run's mix
/// matches the intended shares exactly whatever the seed.
class Deck {
 public:
  explicit Deck(std::size_t n);
  [[nodiscard]] std::size_t draw(Rng& rng);

 private:
  std::vector<std::size_t> cards_;
  std::size_t next_;
};

/// http_cold's key space: registry and topology machines × kernels ×
/// classes × power-of-two cores × both backends × vectorise × placement,
/// every field drawn uniformly (stratified by a Deck) except the backend:
/// one line in three is an interval request, so the median latency falls
/// inside the analytic requests' cluster instead of on the edge between
/// the two backends' clusters, where it would swing from run to run.  One
/// line in ten carries a perturbed `machine_text` instead of a registry
/// name.
class ColdKeys {
 public:
  ColdKeys();
  [[nodiscard]] Spec draw(Rng& rng);

 private:
  std::vector<std::string> machines_;
  std::vector<std::vector<int>> cores_;  ///< per machine
  Deck machine_, kernel_, cls_, backend_, vectorise_, placement_, inline_;
  std::vector<Deck> core_decks_;
};

/// A registry machine's text with clock and per-core bandwidth perturbed
/// by up to ±2%, so every draw is a distinct, lint-clean machine.
[[nodiscard]] std::string perturbed_machine_text(const std::string& name,
                                                 Rng& rng);

/// Zipf(s) over ranks [0, n): P(rank k) ∝ 1/(k+1)^s.
class Zipf {
 public:
  Zipf(std::size_t n, double s);
  [[nodiscard]] std::size_t draw(Rng& rng) const;

 private:
  std::vector<double> cdf_;
};

/// One unit of offered load: a single request line, or for HTTP a body
/// that may batch several lines.  `specs[i]` is the content of line i.
struct Item {
  std::vector<Spec> specs;
};

enum class WorkloadKind { WireHot, HttpCold, SweepBatch };

[[nodiscard]] WorkloadKind parse_workload(const std::string& name);
[[nodiscard]] const char* to_string(WorkloadKind w);

/// Deterministic item stream of one served workload.
class Generator {
 public:
  Generator(WorkloadKind w, std::uint64_t seed);
  [[nodiscard]] Item next();
  [[nodiscard]] const std::vector<Spec>& hot() const { return hot_; }

 private:
  WorkloadKind kind_;
  Rng rng_;
  std::vector<Spec> hot_;
  Zipf zipf_;
  ColdKeys cold_;
  Deck batch_;       ///< one item in ten is a batch
  Deck batch_size_;  ///< of 2..5 lines
};

/// Renders the first `items` items of (w, seed) as request lines with
/// ids "<n>", one per line — the byte stream the determinism test pins.
[[nodiscard]] std::string render_stream(WorkloadKind w, std::uint64_t seed,
                                        std::size_t items);

}  // namespace rvbench
