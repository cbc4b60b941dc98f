#include "gen.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "arch/registry.hpp"
#include "arch/serialize.hpp"
#include "model/signatures.hpp"
#include "model/workload.hpp"

namespace rvbench {

std::uint64_t Rng::next() {
  std::uint64_t z = (state_ += 0x9E3779B97F4A7C15ULL);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

double Rng::uniform() { return static_cast<double>(next() >> 11) * 0x1.0p-53; }

std::uint64_t Rng::below(std::uint64_t n) { return n ? next() % n : 0; }

namespace {

void append_string(std::string& out, const char* key, const std::string& v) {
  out += ", \"";
  out += key;
  out += "\": \"";
  for (const char c : v) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default: out += c;
    }
  }
  out += '"';
}

std::vector<int> pow2_cores(int max_cores) {
  std::vector<int> out;
  for (int c = 1; c <= max_cores; c *= 2) out.push_back(c);
  return out;
}

const char* const kClasses[] = {"S", "W", "A", "B", "C"};
const char* const kPlacements[] = {"os-default", "spread", "close"};

}  // namespace

std::string render_line(const Spec& s, const std::string& id) {
  std::string out = "{\"id\": \"" + id + "\"";
  if (s.machine_text.empty()) {
    append_string(out, "machine", s.machine);
  } else {
    append_string(out, "machine_text", s.machine_text);
  }
  append_string(out, "kernel", s.kernel);
  append_string(out, "class", s.cls);
  out += ", \"cores\": " + std::to_string(s.cores);
  append_string(out, "backend", s.backend);
  if (s.vectorise >= 0) {
    out += s.vectorise ? ", \"vectorise\": true" : ", \"vectorise\": false";
  }
  if (!s.placement.empty()) append_string(out, "placement", s.placement);
  out += "}";
  return out;
}

std::vector<Spec> hot_keys(std::uint64_t seed) {
  std::vector<Spec> keys;
  for (const auto id : rvhpc::arch::all_machines()) {
    const auto& m = rvhpc::arch::machine(id);
    for (const auto k : rvhpc::model::npb_all()) {
      for (const char* cls : {"B", "C"}) {
        for (const int cores : pow2_cores(m.cores)) {
          for (const char* backend : {"analytic", "interval"}) {
            Spec s;
            s.machine = m.name;
            s.kernel = rvhpc::model::to_string(k);
            s.cls = cls;
            s.cores = cores;
            s.backend = backend;
            keys.push_back(std::move(s));
          }
        }
      }
    }
  }
  Rng rng(seed ^ 0x686f745f6b657973ULL);
  for (std::size_t i = keys.size(); i > 1; --i) {
    std::swap(keys[i - 1], keys[rng.below(i)]);
  }
  constexpr std::size_t kHotKeys = 1024;
  if (keys.size() > kHotKeys) keys.resize(kHotKeys);
  return keys;
}

std::string perturbed_machine_text(const std::string& name, Rng& rng) {
  rvhpc::arch::MachineModel m = rvhpc::arch::machine(name);
  // 1e-4 steps survive to_text's six significant digits, so nearly every
  // draw is a machine the cache has never seen.
  const auto factor = [&rng] {
    return 1.0 + (static_cast<double>(rng.below(401)) - 200.0) * 1e-4;
  };
  m.core.clock_ghz *= factor();
  m.memory.per_core_bw_gbs *= factor();
  return rvhpc::arch::to_text(m);
}

Deck::Deck(std::size_t n) : cards_(n), next_(n) {
  for (std::size_t i = 0; i < n; ++i) cards_[i] = i;
}

std::size_t Deck::draw(Rng& rng) {
  if (next_ >= cards_.size()) {
    for (std::size_t i = cards_.size(); i > 1; --i) {
      std::swap(cards_[i - 1], cards_[rng.below(i)]);
    }
    next_ = 0;
  }
  return cards_[next_++];
}

ColdKeys::ColdKeys()
    : machine_(0), kernel_(rvhpc::model::npb_all().size()), cls_(5), backend_(3),
      vectorise_(2), placement_(3), inline_(10) {
  std::vector<rvhpc::arch::MachineId> ids = rvhpc::arch::all_machines();
  for (const auto id : rvhpc::arch::topo_machines()) ids.push_back(id);
  for (const auto id : ids) {
    const auto& m = rvhpc::arch::machine(id);
    machines_.push_back(m.name);
    cores_.push_back(pow2_cores(m.cores));
    core_decks_.emplace_back(cores_.back().size());
  }
  machine_ = Deck(machines_.size());
}

Spec ColdKeys::draw(Rng& rng) {
  const std::size_t m = machine_.draw(rng);
  Spec s;
  s.kernel = rvhpc::model::to_string(rvhpc::model::npb_all()[kernel_.draw(rng)]);
  s.cls = kClasses[cls_.draw(rng)];
  s.cores = cores_[m][core_decks_[m].draw(rng)];
  s.backend = backend_.draw(rng) == 0 ? "interval" : "analytic";
  s.vectorise = static_cast<int>(vectorise_.draw(rng));
  s.placement = kPlacements[placement_.draw(rng)];
  if (inline_.draw(rng) == 0) {
    s.machine_text = perturbed_machine_text(machines_[m], rng);
  } else {
    s.machine = machines_[m];
  }
  return s;
}

Zipf::Zipf(std::size_t n, double s) {
  cdf_.resize(n);
  double sum = 0.0;
  for (std::size_t k = 0; k < n; ++k) {
    sum += 1.0 / std::pow(static_cast<double>(k + 1), s);
    cdf_[k] = sum;
  }
  for (double& c : cdf_) c /= sum;
}

std::size_t Zipf::draw(Rng& rng) const {
  const double u = rng.uniform();
  const auto it = std::lower_bound(cdf_.begin(), cdf_.end(), u);
  return std::min<std::size_t>(static_cast<std::size_t>(it - cdf_.begin()),
                               cdf_.size() - 1);
}

WorkloadKind parse_workload(const std::string& name) {
  if (name == "wire_hot") return WorkloadKind::WireHot;
  if (name == "http_cold") return WorkloadKind::HttpCold;
  if (name == "sweep_batch") return WorkloadKind::SweepBatch;
  throw std::invalid_argument("unknown workload '" + name + "'");
}

const char* to_string(WorkloadKind w) {
  switch (w) {
    case WorkloadKind::WireHot: return "wire_hot";
    case WorkloadKind::HttpCold: return "http_cold";
    case WorkloadKind::SweepBatch: return "sweep_batch";
  }
  return "?";
}

Generator::Generator(WorkloadKind w, std::uint64_t seed)
    : kind_(w),
      rng_(seed),
      hot_(w == WorkloadKind::WireHot ? hot_keys(seed) : std::vector<Spec>{}),
      zipf_(hot_.empty() ? 1 : hot_.size(), 1.1),
      batch_(10),
      batch_size_(4) {}

Item Generator::next() {
  Item item;
  if (kind_ == WorkloadKind::WireHot) {
    item.specs.push_back(hot_[zipf_.draw(rng_)]);
    return item;
  }
  const std::size_t lines = batch_.draw(rng_) == 0 ? 2 + batch_size_.draw(rng_) : 1;
  for (std::size_t i = 0; i < lines; ++i) item.specs.push_back(cold_.draw(rng_));
  return item;
}

std::string render_stream(WorkloadKind w, std::uint64_t seed,
                          std::size_t items) {
  Generator gen(w, seed);
  std::string out;
  std::size_t n = 0;
  for (std::size_t i = 0; i < items; ++i) {
    for (const Spec& s : gen.next().specs) {
      out += render_line(s, std::to_string(n++));
      out += '\n';
    }
  }
  return out;
}

}  // namespace rvbench
