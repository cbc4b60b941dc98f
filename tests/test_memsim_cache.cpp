// Tests for rvhpc::memsim::Cache — set-associative LRU behaviour, the
// lazily materialised set storage, and a differential check against a
// dense reference implementation.

#include <gtest/gtest.h>
#include <sys/resource.h>

#include <bit>
#include <cstddef>
#include <cstdint>
#include <stdexcept>
#include <vector>

#include "memsim/cache.hpp"
#include "memsim/trace.hpp"

namespace rvhpc::memsim {
namespace {

#if defined(__SANITIZE_THREAD__)
constexpr bool kThreadSanitizer = true;
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer)
constexpr bool kThreadSanitizer = true;
#else
constexpr bool kThreadSanitizer = false;
#endif
#else
constexpr bool kThreadSanitizer = false;
#endif

/// The straightforward dense layout Cache replaced: every line of the
/// capacity allocated and zeroed up front, one pass per access that finds
/// the hit or the victim (the last invalid way, else the smallest stamp).
/// Kept only as the oracle for the differential test below.
class DenseCache {
 public:
  DenseCache(std::size_t size_bytes, int associativity, int line_bytes)
      : assoc_(associativity),
        sets_(size_bytes / (static_cast<std::size_t>(line_bytes) *
                            static_cast<std::size_t>(associativity))),
        line_shift_(std::countr_zero(static_cast<unsigned>(line_bytes))),
        lines_(sets_ * static_cast<std::size_t>(associativity)) {}

  AccessResult access(std::uint64_t addr, bool is_write) {
    AccessResult result;
    ++stats_.accesses;
    const std::uint64_t line_addr = addr >> line_shift_;
    Line* set = set_of(line_addr);
    Line* victim = &set[0];
    for (int w = 0; w < assoc_; ++w) {
      Line& l = set[w];
      if (l.valid && l.tag == line_addr) {
        l.lru = ++stamp_;
        l.dirty = l.dirty || is_write;
        ++stats_.hits;
        result.hit = true;
        return result;
      }
      if (!l.valid) {
        victim = &l;
      } else if (victim->valid && l.lru < victim->lru) {
        victim = &l;
      }
    }
    ++stats_.misses;
    if (victim->valid) {
      ++stats_.evictions;
      result.evicted = true;
      result.victim_line = victim->tag << line_shift_;
      if (victim->dirty) {
        ++stats_.writebacks;
        result.writeback = true;
      }
    }
    *victim = Line{line_addr, ++stamp_, true, is_write};
    return result;
  }

  bool contains(std::uint64_t addr) {
    const std::uint64_t line_addr = addr >> line_shift_;
    const Line* set = set_of(line_addr);
    for (int w = 0; w < assoc_; ++w) {
      if (set[w].valid && set[w].tag == line_addr) return true;
    }
    return false;
  }

  bool invalidate(std::uint64_t addr) {
    const std::uint64_t line_addr = addr >> line_shift_;
    Line* set = set_of(line_addr);
    for (int w = 0; w < assoc_; ++w) {
      if (set[w].valid && set[w].tag == line_addr) {
        if (set[w].dirty) ++stats_.writebacks;
        set[w] = Line{};
        ++coherence_invalidations_;
        return true;
      }
    }
    return false;
  }

  void flush() {
    for (Line& l : lines_) {
      if (l.valid && l.dirty) ++stats_.writebacks;
      l = Line{};
    }
  }

  [[nodiscard]] const CacheStats& stats() const { return stats_; }
  [[nodiscard]] std::uint64_t coherence_invalidations() const {
    return coherence_invalidations_;
  }

 private:
  struct Line {
    std::uint64_t tag = 0;
    std::uint64_t lru = 0;
    bool valid = false;
    bool dirty = false;
  };

  Line* set_of(std::uint64_t line_addr) {
    return &lines_[static_cast<std::size_t>(line_addr % sets_) *
                   static_cast<std::size_t>(assoc_)];
  }

  int assoc_;
  std::size_t sets_;
  int line_shift_;
  std::uint64_t stamp_ = 0;
  std::uint64_t coherence_invalidations_ = 0;
  std::vector<Line> lines_;
  CacheStats stats_;
};

void expect_same_stats(const CacheStats& a, const CacheStats& b) {
  EXPECT_EQ(a.accesses, b.accesses);
  EXPECT_EQ(a.hits, b.hits);
  EXPECT_EQ(a.misses, b.misses);
  EXPECT_EQ(a.evictions, b.evictions);
  EXPECT_EQ(a.writebacks, b.writebacks);
}

TEST(Cache, GeometryDerivation) {
  Cache c(32 * 1024, 8, 64);
  EXPECT_EQ(c.sets(), 64u);
  EXPECT_EQ(c.size_bytes(), 32u * 1024u);
  EXPECT_EQ(c.associativity(), 8);
  EXPECT_EQ(c.line_bytes(), 64);
}

TEST(Cache, RejectsBadGeometry) {
  EXPECT_THROW(Cache(0, 8, 64), std::invalid_argument);
  EXPECT_THROW(Cache(1024, 0, 64), std::invalid_argument);
  EXPECT_THROW(Cache(1024, 8, 48), std::invalid_argument);   // not pow2 line
  EXPECT_THROW(Cache(1000, 8, 64), std::invalid_argument);   // not divisible
}

TEST(Cache, ColdMissThenHit) {
  Cache c(4096, 4, 64);
  EXPECT_FALSE(c.access(0x1000, false).hit);
  EXPECT_TRUE(c.access(0x1000, false).hit);
  EXPECT_TRUE(c.access(0x1030, false).hit);  // same 64B line
  EXPECT_FALSE(c.access(0x1040, false).hit); // next line
  EXPECT_EQ(c.stats().accesses, 4u);
  EXPECT_EQ(c.stats().hits, 2u);
  EXPECT_EQ(c.stats().misses, 2u);
}

TEST(Cache, LruEvictsOldest) {
  // Direct observation of LRU in one set: 2-way, line 64, 2 sets.
  Cache c(256, 2, 64);
  // Set 0 gets lines 0, 2, 4 (even line indices).
  c.access(0 * 64, false);
  c.access(2 * 64, false);
  c.access(0 * 64, false);          // touch line 0: line 2 is now LRU
  const auto r = c.access(4 * 64, false);
  EXPECT_TRUE(r.evicted);
  EXPECT_EQ(r.victim_line, 2u * 64u);
  EXPECT_TRUE(c.contains(0 * 64));
  EXPECT_FALSE(c.contains(2 * 64));
  EXPECT_TRUE(c.contains(4 * 64));
}

TEST(Cache, DirtyEvictionWritesBack) {
  Cache c(128, 1, 64);  // direct-mapped, 2 sets
  c.access(0, true);                       // dirty line 0 in set 0
  const auto r = c.access(2 * 64, false);  // maps to set 0, evicts
  EXPECT_TRUE(r.writeback);
  EXPECT_EQ(c.stats().writebacks, 1u);
  const auto r2 = c.access(4 * 64, false); // clean eviction
  EXPECT_TRUE(r2.evicted);
  EXPECT_FALSE(r2.writeback);
}

TEST(Cache, WriteHitMarksLineDirty) {
  Cache c(128, 1, 64);
  c.access(0, false);
  c.access(0, true);                       // hit-for-write dirties the line
  const auto r = c.access(2 * 64, false);
  EXPECT_TRUE(r.writeback);
}

TEST(Cache, FlushDropsEverythingAndCountsDirty) {
  Cache c(4096, 4, 64);
  c.access(0, true);
  c.access(64, false);
  c.flush();
  EXPECT_FALSE(c.contains(0));
  EXPECT_FALSE(c.contains(64));
  EXPECT_EQ(c.stats().writebacks, 1u);
}

TEST(Cache, WorkingSetSmallerThanCacheAlwaysHitsAfterWarmup) {
  Cache c(64 * 1024, 8, 64);
  for (int pass = 0; pass < 3; ++pass) {
    for (std::uint64_t a = 0; a < 32 * 1024; a += 64) c.access(a, false);
  }
  // Second and third passes must be pure hits: 512 misses total.
  EXPECT_EQ(c.stats().misses, 512u);
  EXPECT_EQ(c.stats().hits, 1024u);
}

TEST(Cache, WorkingSetLargerThanCacheThrashes) {
  Cache c(4 * 1024, 4, 64);
  for (int pass = 0; pass < 3; ++pass) {
    for (std::uint64_t a = 0; a < 64 * 1024; a += 64) c.access(a, false);
  }
  // Cyclic sweep over 16x the capacity with LRU: every access misses.
  EXPECT_EQ(c.stats().hits, 0u);
}

TEST(Cache, ContainsDoesNotPerturbLru) {
  Cache c(128, 2, 64);
  c.access(0, false);
  c.access(2 * 64, false);
  ASSERT_TRUE(c.contains(0));              // query must not refresh line 0
  const auto r = c.access(4 * 64, false);  // evicts true LRU = line 0
  EXPECT_EQ(r.victim_line, 0u);
}

// --- lazily materialised sets ----------------------------------------------

TEST(Cache, UntouchedSetsBehaveAsInvalidWays) {
  Cache c(4096, 4, 64);  // 16 sets
  EXPECT_EQ(c.touched_sets(), 0u);
  EXPECT_FALSE(c.contains(0x1000));
  EXPECT_FALSE(c.invalidate(0x1000));
  c.flush();
  EXPECT_EQ(c.touched_sets(), 0u) << "queries must not materialise a set";
  EXPECT_EQ(c.coherence_invalidations(), 0u);
  EXPECT_EQ(c.stats().writebacks, 0u);

  c.access(0x1000, true);
  EXPECT_EQ(c.touched_sets(), 1u);
  c.access(0x1000 + 16 * 64, false);  // same set, next way
  EXPECT_EQ(c.touched_sets(), 1u);
  c.access(0x1040, false);            // neighbouring set
  EXPECT_EQ(c.touched_sets(), 2u);
}

TEST(Cache, AllOnesAddressIsAnOrdinaryLine) {
  // With 1-byte lines every address is a line address, including the one
  // invalid ways carry as their tag; validity, not the tag, decides.
  Cache c(4, 2, 1);  // 2 sets x 2 ways
  const std::uint64_t all_ones = ~std::uint64_t{0};
  c.access(1, false);  // materialises all_ones's set with one invalid way
  EXPECT_FALSE(c.contains(all_ones));
  EXPECT_FALSE(c.invalidate(all_ones));
  EXPECT_FALSE(c.access(all_ones, true).hit);
  EXPECT_TRUE(c.contains(all_ones));
  EXPECT_TRUE(c.access(all_ones, false).hit);
  EXPECT_TRUE(c.invalidate(all_ones));
  EXPECT_FALSE(c.contains(all_ones));
  EXPECT_EQ(c.stats().writebacks, 1u);
}

TEST(Cache, RejectsMoreSetsThanTheDirectoryAddresses) {
  // 2^32 sets of one 64-byte line: the 32-bit directory slots cannot
  // number them, so the geometry is refused before anything is allocated.
  EXPECT_THROW(Cache(std::size_t{1} << 38, 1, 64), std::invalid_argument);
}

TEST(Cache, ReserveKeepsContentsAndCountsNothing) {
  Cache c(64 * 1024, 8, 64);
  c.access(0, true);
  c.reserve(1 << 20);  // clamped to the 128 sets that exist
  EXPECT_TRUE(c.contains(0));
  EXPECT_EQ(c.touched_sets(), 1u);
  EXPECT_EQ(c.stats().accesses, 1u);
}

// A cache sized like the largest last-level caches a machine description
// may declare costs its directory (4 bytes per set) plus the sets an
// access stream touches — never 24 bytes per line of capacity (the dense
// layout would zero 1.5 GiB here).
TEST(Cache, LargeCapacityCostsWhatTheAccessesTouch) {
  rusage before{};
  ASSERT_EQ(getrusage(RUSAGE_SELF, &before), 0);
  {
    Cache c(std::size_t{8} << 30, 16, 128);  // 8 GiB: 4 Mi sets
    XorShift rng(2024);
    for (int i = 0; i < 100000; ++i) {
      c.access(rng.below(std::uint64_t{1} << 36), rng.below(4) == 0);
    }
    EXPECT_EQ(c.stats().accesses, 100000u);
    EXPECT_GT(c.touched_sets(), 90000u);
  }
  if (kThreadSanitizer) {
    GTEST_SKIP() << "ru_maxrss counts ThreadSanitizer's shadow memory, "
                    "several times every page the program touches";
  }
  rusage after{};
  ASSERT_EQ(getrusage(RUSAGE_SELF, &after), 0);
  const long grown_kib = after.ru_maxrss - before.ru_maxrss;  // KiB on Linux
  EXPECT_LT(grown_kib, 64L * 1024)
      << "ru_maxrss grew by " << grown_kib << " KiB";
}

// --- differential check against the dense layout ----------------------------

struct Geometry {
  std::size_t size_bytes;
  int assoc;
  int line_bytes;
};

/// Drives Cache and DenseCache with the same seeded mix of access,
/// contains, invalidate and flush; every result and the final counters
/// must agree.
void run_differential(const Geometry& g, std::uint64_t seed) {
  Cache lazy(g.size_bytes, g.assoc, g.line_bytes);
  DenseCache dense(g.size_bytes, g.assoc, g.line_bytes);
  XorShift rng(seed);
  const auto line = static_cast<std::uint64_t>(g.line_bytes);
  const std::uint64_t capacity_lines = g.size_bytes / line;
  for (int i = 0; i < 40000; ++i) {
    // Mostly a working set a few times the capacity (hits, conflicts and
    // evictions), sometimes a far address that touches a fresh set.
    const std::uint64_t addr =
        rng.below(8) == 0 ? rng.below(std::uint64_t{1} << 40)
                          : rng.below(3 * capacity_lines + 7) * line +
                                rng.below(line);
    const std::uint64_t op = rng.below(100);
    if (op < 80) {
      const bool write = rng.below(3) == 0;
      const AccessResult a = lazy.access(addr, write);
      const AccessResult b = dense.access(addr, write);
      ASSERT_EQ(a.hit, b.hit) << "op " << i;
      ASSERT_EQ(a.evicted, b.evicted) << "op " << i;
      ASSERT_EQ(a.writeback, b.writeback) << "op " << i;
      ASSERT_EQ(a.victim_line, b.victim_line) << "op " << i;
    } else if (op < 90) {
      ASSERT_EQ(lazy.contains(addr), dense.contains(addr)) << "op " << i;
    } else if (op < 99 || rng.below(20) != 0) {
      ASSERT_EQ(lazy.invalidate(addr), dense.invalidate(addr)) << "op " << i;
    } else {  // about one op in 2000
      lazy.flush();
      dense.flush();
    }
  }
  expect_same_stats(lazy.stats(), dense.stats());
  EXPECT_EQ(lazy.coherence_invalidations(), dense.coherence_invalidations());
  EXPECT_GT(lazy.stats().hits, 0u);
  EXPECT_GT(lazy.stats().evictions, 0u);
}

TEST(CacheDifferential, MatchesDenseLayout) {
  const Geometry geometries[] = {
      {64 * 64, 1, 64},        // direct-mapped, 64 sets
      {37 * 64, 1, 64},        // direct-mapped, 37 sets
      {256 * 16 * 64, 16, 64}, // 16-way, 256 sets
      {37 * 16 * 64, 16, 64},  // 16-way, 37 sets
      {3 * 16 * 128, 16, 128}, // 16-way, 3 sets
      {64 * 64, 64, 64},       // fully associative, 64 ways
      {100 * 32, 100, 32},     // fully associative, 100 ways
      {1000 * 8 * 64, 8, 64},  // 8-way, 1000 sets
      {6 * 2 * 1, 2, 1},       // 1-byte lines, 6 sets
  };
  for (const Geometry& g : geometries) {
    for (std::uint64_t seed : {1ull, 42ull, 0x5eedull}) {
      SCOPED_TRACE(::testing::Message()
                   << g.size_bytes << " B, " << g.assoc << "-way, "
                   << g.line_bytes << " B lines, seed " << seed);
      run_differential(g, seed);
    }
  }
}

TEST(CacheStats, Rates) {
  CacheStats s;
  EXPECT_EQ(s.hit_rate(), 0.0);
  s.accesses = 10;
  s.hits = 7;
  s.misses = 3;
  EXPECT_DOUBLE_EQ(s.hit_rate(), 0.7);
  EXPECT_DOUBLE_EQ(s.miss_rate(), 0.3);
}

}  // namespace
}  // namespace rvhpc::memsim
