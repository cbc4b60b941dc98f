#include "serve/persist.hpp"

#include <bit>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <stdexcept>
#include <vector>

namespace rvhpc::serve {
namespace {

constexpr char kMagic[4] = {'R', 'V', 'P', 'C'};

// Same FNV-1a the engine keys with; here it seals the payload so a
// truncated or bit-flipped file fails closed instead of restoring garbage.
std::uint64_t fnv1a(const std::string& bytes) {
  std::uint64_t h = 1469598103934665603ull;
  for (unsigned char b : bytes) {
    h ^= b;
    h *= 1099511628211ull;
  }
  return h;
}

// --- little-endian scalar writers into a std::string buffer ---------------

void put_u32(std::string& out, std::uint32_t v) {
  for (int i = 0; i < 4; ++i) {
    out += static_cast<char>((v >> (8 * i)) & 0xff);
  }
}

void put_u64(std::string& out, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    out += static_cast<char>((v >> (8 * i)) & 0xff);
  }
}

void put_f64(std::string& out, double v) {
  put_u64(out, std::bit_cast<std::uint64_t>(v));
}

void put_u8(std::string& out, std::uint8_t v) {
  out += static_cast<char>(v);
}

void put_str(std::string& out, const std::string& s) {
  put_u32(out, static_cast<std::uint32_t>(s.size()));
  out += s;
}

void put_prediction(std::string& out, const model::Prediction& p) {
  put_u8(out, p.ran ? 1 : 0);
  put_str(out, p.dnr_reason);
  put_f64(out, p.seconds);
  put_f64(out, p.mops);
  put_f64(out, p.achieved_bw_gbs);
  put_u8(out, p.vector.vectorised ? 1 : 0);
  put_f64(out, p.vector.unit_stride_speedup);
  put_f64(out, p.vector.gather_speedup);
  put_f64(out, p.vector.blended_speedup);
  put_f64(out, p.breakdown.compute_s);
  put_f64(out, p.breakdown.stream_s);
  put_f64(out, p.breakdown.latency_s);
  put_f64(out, p.breakdown.sync_s);
  put_f64(out, p.breakdown.imbalance);
  put_u8(out, static_cast<std::uint8_t>(p.breakdown.dominant));
}

// --- bounds-checked reader ------------------------------------------------

struct Reader {
  const std::string& buf;
  std::size_t pos = 0;

  [[nodiscard]] bool need(std::size_t n) const {
    return pos + n <= buf.size();
  }
  bool u8(std::uint8_t& v) {
    if (!need(1)) return false;
    v = static_cast<std::uint8_t>(buf[pos++]);
    return true;
  }
  bool u32(std::uint32_t& v) {
    if (!need(4)) return false;
    v = 0;
    for (int i = 0; i < 4; ++i) {
      v |= static_cast<std::uint32_t>(static_cast<unsigned char>(buf[pos++]))
           << (8 * i);
    }
    return true;
  }
  bool u64(std::uint64_t& v) {
    if (!need(8)) return false;
    v = 0;
    for (int i = 0; i < 8; ++i) {
      v |= static_cast<std::uint64_t>(static_cast<unsigned char>(buf[pos++]))
           << (8 * i);
    }
    return true;
  }
  bool f64(double& v) {
    std::uint64_t bits = 0;
    if (!u64(bits)) return false;
    v = std::bit_cast<double>(bits);
    return true;
  }
  bool str(std::string& v) {
    std::uint32_t len = 0;
    if (!u32(len) || !need(len)) return false;
    v.assign(buf, pos, len);
    pos += len;
    return true;
  }
};

bool read_prediction(Reader& r, model::Prediction& p) {
  std::uint8_t ran = 0, vectorised = 0, dominant = 0;
  const bool ok = r.u8(ran) && r.str(p.dnr_reason) && r.f64(p.seconds) &&
                  r.f64(p.mops) && r.f64(p.achieved_bw_gbs) &&
                  r.u8(vectorised) && r.f64(p.vector.unit_stride_speedup) &&
                  r.f64(p.vector.gather_speedup) &&
                  r.f64(p.vector.blended_speedup) &&
                  r.f64(p.breakdown.compute_s) &&
                  r.f64(p.breakdown.stream_s) &&
                  r.f64(p.breakdown.latency_s) && r.f64(p.breakdown.sync_s) &&
                  r.f64(p.breakdown.imbalance) && r.u8(dominant);
  if (!ok) return false;
  if (dominant > static_cast<std::uint8_t>(model::Bottleneck::Sync)) {
    return false;  // enum out of range — corrupt entry
  }
  p.ran = ran != 0;
  p.vector.vectorised = vectorised != 0;
  p.breakdown.dominant = static_cast<model::Bottleneck>(dominant);
  return true;
}

LoadResult fail(LoadResult::Status status, std::string detail) {
  LoadResult r;
  r.status = status;
  r.detail = std::move(detail);
  return r;
}

}  // namespace

std::string to_string(LoadResult::Status s) {
  switch (s) {
    case LoadResult::Status::Loaded:          return "loaded";
    case LoadResult::Status::Missing:         return "missing";
    case LoadResult::Status::VersionMismatch: return "version-mismatch";
    case LoadResult::Status::Corrupt:         return "corrupt";
  }
  return "unknown";
}

LoadResult load_cache(const std::string& path,
                      engine::PredictionCache& cache) {
  std::ifstream in(path, std::ios::binary);
  if (!in.good()) {
    return fail(LoadResult::Status::Missing, "no cache file at '" + path + "'");
  }
  std::string buf((std::istreambuf_iterator<char>(in)),
                  std::istreambuf_iterator<char>());

  Reader r{buf};
  if (!r.need(8) || std::memcmp(buf.data(), kMagic, 4) != 0) {
    return fail(LoadResult::Status::Corrupt,
                "'" + path + "' is not a rvhpc cache file (bad magic)");
  }
  r.pos = 4;
  std::uint32_t version = 0;
  (void)r.u32(version);
  if (version < kOldestReadableCacheFormatVersion ||
      version > kCacheFormatVersion) {
    return fail(LoadResult::Status::VersionMismatch,
                "'" + path + "' has format version " + std::to_string(version) +
                    ", this build reads versions " +
                    std::to_string(kOldestReadableCacheFormatVersion) + ".." +
                    std::to_string(kCacheFormatVersion));
  }
  std::uint64_t count = 0;
  if (!r.u64(count)) {
    return fail(LoadResult::Status::Corrupt, "'" + path + "' truncated header");
  }
  // Version 2 added the trimmed count; version-1 files simply lack it.
  std::uint64_t trimmed = 0;
  if (version >= 2 && !r.u64(trimmed)) {
    return fail(LoadResult::Status::Corrupt, "'" + path + "' truncated header");
  }

  // Checksum first: the payload must be intact before anything is applied,
  // so a truncated file restores nothing instead of a silent prefix.
  if (buf.size() < 8) {
    return fail(LoadResult::Status::Corrupt, "'" + path + "' truncated");
  }
  const std::size_t payload_begin = r.pos;
  const std::size_t payload_end = buf.size() - 8;
  if (payload_end < payload_begin) {
    return fail(LoadResult::Status::Corrupt, "'" + path + "' truncated");
  }
  Reader tail{buf, payload_end};
  std::uint64_t stored_check = 0;
  (void)tail.u64(stored_check);
  const std::string payload =
      buf.substr(payload_begin, payload_end - payload_begin);
  if (fnv1a(payload) != stored_check) {
    return fail(LoadResult::Status::Corrupt,
                "'" + path + "' checksum mismatch (truncated or corrupted)");
  }

  std::vector<engine::CacheEntry> entries;
  entries.reserve(static_cast<std::size_t>(count));
  for (std::uint64_t i = 0; i < count; ++i) {
    engine::CacheEntry e;
    if (!r.u64(e.key) || !read_prediction(r, e.prediction)) {
      return fail(LoadResult::Status::Corrupt,
                  "'" + path + "' entry " + std::to_string(i) + " malformed");
    }
    entries.push_back(std::move(e));
  }
  if (r.pos != payload_end) {
    return fail(LoadResult::Status::Corrupt,
                "'" + path + "' has trailing bytes after the last entry");
  }

  // Entries are stored LRU-first; put() fronts each one, so the last put
  // (the saved MRU) ends up most recent — recency order survives the trip.
  for (const engine::CacheEntry& e : entries) {
    cache.put(e.key, e.prediction);
  }
  LoadResult result;
  result.status = LoadResult::Status::Loaded;
  result.restored = entries.size();
  result.trimmed = static_cast<std::size_t>(trimmed);
  return result;
}

SaveResult save_cache(const std::string& path,
                      const engine::PredictionCache& cache,
                      std::size_t max_entries) {
  std::vector<engine::CacheEntry> mru_first = cache.entries();

  // Eviction cap: entries() is MRU-first, so truncating the tail drops
  // exactly the least-recently-used overflow — the snapshot keeps the
  // entries a restart is most likely to want warm.
  SaveResult saved;
  if (max_entries > 0 && mru_first.size() > max_entries) {
    saved.trimmed = mru_first.size() - max_entries;
    mru_first.resize(max_entries);
  }
  saved.written = mru_first.size();

  std::string out;
  out.append(kMagic, 4);
  put_u32(out, kCacheFormatVersion);
  put_u64(out, mru_first.size());
  put_u64(out, saved.trimmed);

  std::string payload;
  for (auto it = mru_first.rbegin(); it != mru_first.rend(); ++it) {
    put_u64(payload, it->key);
    put_prediction(payload, it->prediction);
  }
  const std::uint64_t check = fnv1a(payload);
  out += payload;
  put_u64(out, check);

  const std::string tmp = path + ".tmp";
  {
    std::ofstream f(tmp, std::ios::binary | std::ios::trunc);
    if (!f.good()) {
      throw std::runtime_error("cannot open '" + tmp + "' for writing");
    }
    f.write(out.data(), static_cast<std::streamsize>(out.size()));
    f.flush();
    if (!f.good()) throw std::runtime_error("write to '" + tmp + "' failed");
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    throw std::runtime_error("cannot rename '" + tmp + "' to '" + path + "'");
  }
  return saved;
}

}  // namespace rvhpc::serve
