#pragma once
// Response checking for the rvhpc benchmark.
//
// Every served response is checked by id against a reference that the
// same build produces in the same process: the distinct request contents
// of a run are replayed through serve::Service::replay (no cache file, so
// every reference is computed afresh) and each live response must equal
// its reference once the id and the live-only fields ("cache",
// "latency_us") are removed.  Responses are compared by 64-bit FNV-1a
// hash, so a run keeps one word per response instead of its text.

#include <cstdint>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "gen.hpp"
#include "model/predictor.hpp"

namespace rvbench {

enum class Outcome : std::uint8_t { Pending, Ok, Refused, Failed, Wrong };

[[nodiscard]] std::uint64_t fnv1a(std::string_view bytes);

/// The response with its id value emptied and the live fields removed.
[[nodiscard]] std::string normalize(std::string_view response);

/// The value of the response's "id" member ("" when absent).
[[nodiscard]] std::string_view response_id(std::string_view response);

/// The "latency_us" live field, or a negative value when absent.
[[nodiscard]] double response_latency_us(std::string_view response);

/// ok / refused ("overloaded") / failed (any other error).
[[nodiscard]] Outcome classify(std::string_view response);

/// True when a live response reports a cache hit.
[[nodiscard]] bool response_hit(std::string_view response);

/// Bit-for-bit equality of two predictions (every field, doubles by
/// their bit patterns).
[[nodiscard]] bool identical(const rvhpc::model::Prediction& a,
                             const rvhpc::model::Prediction& b);

/// Distinct request contents of a run and their reference answers.
class Reference {
 public:
  /// Index of `spec`'s content, adding it when new.
  std::uint32_t intern(const Spec& spec);
  [[nodiscard]] std::size_t size() const { return lines_.size(); }

  /// Replays every interned request through a fresh serve::Service with
  /// `jobs` workers (request file written under `work_dir`).  Throws when
  /// the replay does not answer every line.
  void build(const std::string& work_dir, int jobs);

  /// Whether the normalized response `hash` is the reference for `index`.
  [[nodiscard]] bool matches(std::uint32_t index, std::uint64_t hash) const {
    return expected_[index] == hash;
  }
  /// Installs a reference directly (tests).
  void set_expected(std::vector<std::uint64_t> expected) {
    expected_ = std::move(expected);
  }

 private:
  std::unordered_map<std::string, std::uint32_t> index_;
  std::vector<std::string> lines_;  ///< rendered with id = index
  std::vector<std::uint64_t> expected_;
};

}  // namespace rvbench
