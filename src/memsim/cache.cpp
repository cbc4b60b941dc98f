#include "memsim/cache.hpp"

#include <algorithm>
#include <bit>
#include <limits>
#include <stdexcept>

namespace rvhpc::memsim {
namespace {

/// Pool block size: small enough that a block comes from the allocator's
/// heap (reused across caches without fresh page faults), large enough
/// that the block table stays a few cache lines.
constexpr std::size_t kBlockBytes = 64 * 1024;

}  // namespace

Cache::Cache(std::size_t size_bytes, int associativity, int line_bytes)
    : size_(size_bytes), assoc_(associativity), line_(line_bytes) {
  if (size_bytes == 0 || associativity < 1 || line_bytes < 1 ||
      !std::has_single_bit(static_cast<unsigned>(line_bytes))) {
    throw std::invalid_argument("Cache: invalid geometry");
  }
  const std::size_t way_bytes =
      static_cast<std::size_t>(line_bytes) * static_cast<std::size_t>(associativity);
  if (size_bytes % way_bytes != 0) {
    throw std::invalid_argument("Cache: size not divisible by line*assoc");
  }
  sets_ = size_bytes / way_bytes;
  if (sets_ > std::numeric_limits<std::uint32_t>::max()) {
    throw std::invalid_argument("Cache: too many sets");
  }
  line_shift_ = std::countr_zero(static_cast<unsigned>(line_bytes));
  const std::size_t set_bytes = set_words() * sizeof(std::uint64_t);
  block_shift_ =
      std::bit_width(std::max<std::size_t>(1, kBlockBytes / set_bytes)) - 1;
  directory_.resize(sets_);
}

int Cache::find_way(const std::uint64_t* tags, std::uint64_t line_addr) const {
  const std::uint64_t* stamps = tags + assoc_;
  for (int w = 0; w < assoc_; ++w) {
    if (tags[w] == line_addr && stamps[w] != 0) return w;
  }
  return -1;
}

void Cache::grow_pool(std::size_t i) {
  // The last block only needs room for the sets that exist.
  const std::size_t first = i >> block_shift_ << block_shift_;
  const std::size_t sets =
      std::min(std::size_t{1} << block_shift_, sets_ - first);
  blocks_.push_back(
      std::make_unique_for_overwrite<std::uint64_t[]>(sets * set_words()));
}

std::uint64_t* Cache::materialise(std::size_t set) {
  const std::size_t i = touched_++;
  if ((i >> block_shift_) == blocks_.size()) grow_pool(i);
  directory_[set] = static_cast<std::uint32_t>(i + 1);
  std::uint64_t* tags = set_at(directory_[set]);
  std::fill_n(tags, assoc_, kNoLine);
  std::fill_n(tags + assoc_, assoc_, std::uint64_t{0});
  return tags;
}

void Cache::reserve(std::size_t lines) {
  const std::size_t sets = std::min(sets_, lines);
  while ((blocks_.size() << block_shift_) < sets) {
    grow_pool(blocks_.size() << block_shift_);
  }
}

AccessResult Cache::access(std::uint64_t addr, bool is_write) {
  AccessResult result;
  ++stats_.accesses;
  const std::uint64_t line_addr = addr >> line_shift_;
  std::uint64_t* tags = find_set(line_addr);
  if (tags == nullptr) tags = materialise(set_index(line_addr));
  std::uint64_t* stamps = tags + assoc_;
  const std::uint64_t dirty = is_write ? 1 : 0;

  const int hit = find_way(tags, line_addr);
  if (hit >= 0) {
    stamps[hit] = (++stamp_ << 1) | (stamps[hit] & 1) | dirty;
    ++stats_.hits;
    result.hit = true;
    return result;
  }

  // Victim: an invalid way (stamp word 0) first, else the LRU line — both
  // are the minimum stamp word, since stamps are unique and start at 1.
  ++stats_.misses;
  int victim = 0;
  std::uint64_t oldest = stamps[0];
  for (int w = 1; w < assoc_; ++w) {
    const bool older = stamps[w] < oldest;
    oldest = older ? stamps[w] : oldest;
    victim = older ? w : victim;
  }
  if (oldest != 0) {
    ++stats_.evictions;
    result.evicted = true;
    result.victim_line = tags[victim] << line_shift_;
    if ((oldest & 1) != 0) {
      ++stats_.writebacks;
      result.writeback = true;
    }
  }
  tags[victim] = line_addr;
  stamps[victim] = (++stamp_ << 1) | dirty;
  return result;
}

bool Cache::contains(std::uint64_t addr) const {
  const std::uint64_t line_addr = addr >> line_shift_;
  const std::uint64_t* tags = find_set(line_addr);
  return tags != nullptr && find_way(tags, line_addr) >= 0;
}

bool Cache::invalidate(std::uint64_t addr) {
  const std::uint64_t line_addr = addr >> line_shift_;
  std::uint64_t* tags = find_set(line_addr);
  if (tags == nullptr) return false;
  const int w = find_way(tags, line_addr);
  if (w < 0) return false;
  std::uint64_t& stamp = tags[assoc_ + w];
  if ((stamp & 1) != 0) ++stats_.writebacks;
  tags[w] = kNoLine;
  stamp = 0;
  ++coherence_invalidations_;
  return true;
}

void Cache::flush() {
  for (std::size_t i = 0; i < touched_; ++i) {
    std::uint64_t* tags = set_at(static_cast<std::uint32_t>(i + 1));
    std::uint64_t* stamps = tags + assoc_;
    for (int w = 0; w < assoc_; ++w) {
      if ((stamps[w] & 1) != 0) ++stats_.writebacks;
      tags[w] = kNoLine;
      stamps[w] = 0;
    }
  }
}

}  // namespace rvhpc::memsim
