#pragma once
// rvhpc::serve — disk-backed persistence for the prediction memo cache.
//
// The engine's PredictionCache is in-process only; this module gives it a
// life across processes so a warm rvhpc-serve (or a repeated
// calibration_check/suite_summary run) never pays cold predict() cost for
// a point it has already evaluated.  The file is a versioned binary
// snapshot keyed by the engine's FNV-1a request keys (request.cpp hashes
// every machine/signature/config field at full double precision, so keys
// are stable across runs for identical inputs and never alias perturbed
// machines).
//
// File format (little-endian, see DESIGN.md §9.3):
//   magic   "RVPC"            4 bytes
//   version u32               currently 2; versions 1 and 2 are readable,
//                             anything else is rejected
//   count   u64               number of entries
//   trimmed u64               version >= 2 only: entries the save cap
//                             dropped from this snapshot (informational)
//   payload count x entry     entries ordered least-recently-used FIRST,
//                             so replaying them through put() reproduces
//                             the cache's exact recency order on load
//   check   u64               FNV-1a over the payload bytes
//   entry := key u64 | Prediction (ran u8, dnr_reason str, seconds f64,
//            mops f64, achieved_bw_gbs f64, VectorOutcome, TimeBreakdown)
//   str   := len u32 | bytes
//
// Robustness contract: loading is ALL-OR-NOTHING and NEVER fatal.  A
// missing file is a cold start; a truncated, corrupt or version-mismatched
// file is reported through LoadResult (callers log it) and leaves the
// cache untouched.  Doubles round-trip bit-exactly (stored via bit_cast),
// which is what makes a warm replay byte-identical to a cold one.

#include <cstddef>
#include <cstdint>
#include <string>

#include "engine/cache.hpp"

namespace rvhpc::serve {

/// Outcome of one load_cache() call.
struct LoadResult {
  enum class Status {
    Loaded,           ///< entries restored (possibly zero, empty file)
    Missing,          ///< no file at `path` — a cold start, not an error
    VersionMismatch,  ///< recognised header, unsupported version
    Corrupt,          ///< bad magic, truncation or checksum failure
  };
  Status status = Status::Missing;
  std::size_t restored = 0;  ///< entries inserted into the cache
  std::size_t trimmed = 0;   ///< v2+: entries the saver's cap had dropped
  std::string detail;        ///< human-readable reason for non-Loaded

  [[nodiscard]] bool ok() const { return status == Status::Loaded; }
};

[[nodiscard]] std::string to_string(LoadResult::Status s);

/// Current file-format version written by save_cache().  Version 2 added
/// the trimmed-count header field; the reader still accepts version-1
/// files (written before the eviction cap existed) unchanged.
inline constexpr std::uint32_t kCacheFormatVersion = 2;
inline constexpr std::uint32_t kOldestReadableCacheFormatVersion = 1;

/// Outcome of one save_cache() call.
struct SaveResult {
  std::size_t written = 0;  ///< entries serialised to the file
  std::size_t trimmed = 0;  ///< oldest-LRU entries dropped by max_entries
};

/// Restores `path` into `cache` (entries are replayed oldest-first through
/// put(), so the resident LRU order matches the saved one).  Counts
/// nothing itself: a Service counts the returned `restored` into its
/// rvhpc_serve_cache_restored_total.  Never throws; see LoadResult.
LoadResult load_cache(const std::string& path, engine::PredictionCache& cache);

/// Serialises the resident entries of `cache` to `path`, writing to
/// `path`.tmp first and renaming into place so a crash mid-write can never
/// leave a half-written cache where the next start would read it.  A
/// non-zero `max_entries` caps the snapshot: the least-recently-used
/// overflow is trimmed before writing (the resident cache is untouched),
/// keeping long-lived service cache files bounded; a Service counts the
/// returned `trimmed` into its rvhpc_serve_cache_trimmed_total.  Throws
/// std::runtime_error when the destination is unwritable.
SaveResult save_cache(const std::string& path,
                      const engine::PredictionCache& cache,
                      std::size_t max_entries = 0);

}  // namespace rvhpc::serve
