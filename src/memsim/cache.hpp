#pragma once
// rvhpc::memsim — set-associative cache with LRU replacement.
//
// The trace-driven simulator that reproduces the paper's Table 1 stall
// profile (and cross-checks the analytic model's cache assumptions).
// Caches are write-back / write-allocate, which matches the machines in
// the study.
//
// Storage costs what a simulation touches, not what the modelled machine
// owns: a dense directory of 32-bit slots, one per set, and a pool of
// fixed-size blocks that materialises a set's ways on its first access.
// An untouched set behaves exactly like a set of invalid ways.

#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

namespace rvhpc::memsim {

/// Aggregate counters for one cache instance.
struct CacheStats {
  std::uint64_t accesses = 0;
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  std::uint64_t evictions = 0;
  std::uint64_t writebacks = 0;

  [[nodiscard]] double hit_rate() const {
    return accesses ? static_cast<double>(hits) / accesses : 0.0;
  }
  [[nodiscard]] double miss_rate() const {
    return accesses ? static_cast<double>(misses) / accesses : 0.0;
  }
};

/// Outcome of a single access.
struct AccessResult {
  bool hit = false;
  bool writeback = false;        ///< a dirty line was evicted
  std::uint64_t victim_line = 0; ///< line address of the eviction (if any)
  bool evicted = false;
};

/// A single set-associative, write-back, write-allocate cache level.
class Cache {
 public:
  /// size/line in bytes; associativity >= 1.  size must be divisible by
  /// line*associativity and hold fewer than 2^32 sets.  Throws
  /// std::invalid_argument otherwise.
  Cache(std::size_t size_bytes, int associativity, int line_bytes);

  /// Performs one access; installs the line on miss (evicting LRU).
  AccessResult access(std::uint64_t addr, bool is_write);

  /// True if the line containing addr is currently resident (no LRU
  /// update; for tests).
  [[nodiscard]] bool contains(std::uint64_t addr) const;

  /// Drops all lines (counts dirty ones as writebacks).
  void flush();

  /// Invalidates the line containing addr if resident (coherence action);
  /// a dirty victim is counted as a writeback.  Returns true if a line was
  /// dropped.
  bool invalidate(std::uint64_t addr);

  /// Allocates pool blocks for the sets that `lines` distinct line
  /// addresses can touch, so that many first touches allocate nothing.
  void reserve(std::size_t lines);

  /// Sets materialised so far (each holds associativity() ways).
  [[nodiscard]] std::size_t touched_sets() const { return touched_; }

  /// Coherence invalidations received from other cores' writes.
  [[nodiscard]] std::uint64_t coherence_invalidations() const {
    return coherence_invalidations_;
  }

  [[nodiscard]] const CacheStats& stats() const { return stats_; }
  [[nodiscard]] std::size_t size_bytes() const { return size_; }
  [[nodiscard]] int associativity() const { return assoc_; }
  [[nodiscard]] int line_bytes() const { return line_; }
  [[nodiscard]] std::size_t sets() const { return sets_; }

 private:
  /// Tag stored in invalid ways, so a hit scan rarely looks past a tag.
  /// Validity is the stamp word alone: with 1-byte lines this is also a
  /// real line address, and it still hits only where it is resident.
  static constexpr std::uint64_t kNoLine = ~std::uint64_t{0};

  std::size_t size_;
  int assoc_;
  int line_;
  std::size_t sets_;
  int line_shift_;
  std::uint64_t stamp_ = 0;
  std::uint64_t coherence_invalidations_ = 0;
  /// One slot per set: 0 = untouched, else 1 + the set's pool index.
  std::vector<std::uint32_t> directory_;
  /// The pool: set i lives in blocks_[i >> block_shift_].  Blocks never
  /// move, so materialising a set copies nothing.  Per set, 2 x assoc_
  /// words: the ways' line addresses (tags first, so a hit scan reads only
  /// them), then their stamp words `lru << 1 | dirty` — 0 marks an
  /// invalid way, which therefore sorts before every resident line when
  /// the victim is picked by minimum.
  std::vector<std::unique_ptr<std::uint64_t[]>> blocks_;
  std::size_t touched_ = 0;
  int block_shift_;
  CacheStats stats_;

  [[nodiscard]] std::size_t set_words() const {
    return 2 * static_cast<std::size_t>(assoc_);
  }
  [[nodiscard]] std::size_t set_index(std::uint64_t line_addr) const {
    return static_cast<std::size_t>(line_addr % sets_);
  }
  /// The words of the set in directory slot `slot` (non-zero).
  [[nodiscard]] std::uint64_t* set_at(std::uint32_t slot) const {
    const std::size_t i = slot - 1;
    const std::size_t mask = (std::size_t{1} << block_shift_) - 1;
    return blocks_[i >> block_shift_].get() + (i & mask) * set_words();
  }
  /// The tag words of `line_addr`'s set, or nullptr while it is untouched.
  [[nodiscard]] std::uint64_t* find_set(std::uint64_t line_addr) const {
    const std::uint32_t slot = directory_[set_index(line_addr)];
    return slot != 0 ? set_at(slot) : nullptr;
  }
  /// Way index of `line_addr` among a set's tags, or -1.
  [[nodiscard]] int find_way(const std::uint64_t* tags,
                             std::uint64_t line_addr) const;
  /// Allocates the pool block that holds set index `i`.
  void grow_pool(std::size_t i);
  std::uint64_t* materialise(std::size_t set);
};

}  // namespace rvhpc::memsim
