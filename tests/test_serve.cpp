// rvhpc::serve — persistent cache and prediction service.
//
// The load-bearing guarantees: the cache file round-trips bit-exactly and
// all-or-nothing (a damaged file restores nothing and is never fatal), LRU
// recency survives save/load, and the service answers *every* request line
// with structured JSON — malformed input, lint rejections and timeouts
// included — without ever throwing.  The live serving loop (admission
// bound, ordering, drain) belongs to net::Server; its stdio tests live in
// test_net.

#include <bit>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "arch/registry.hpp"
#include "arch/serialize.hpp"
#include "engine/cache.hpp"
#include "engine/request.hpp"
#include "model/signatures.hpp"
#include "obs/json.hpp"
#include "serve/persist.hpp"
#include "serve/service.hpp"

namespace {

using namespace rvhpc;

/// RAII temp path: removed on destruction.
struct TempFile {
  std::string path;
  explicit TempFile(std::string p) : path(std::move(p)) {
    std::remove(path.c_str());
  }
  ~TempFile() { std::remove(path.c_str()); }
};

model::Prediction sample_prediction(double seed) {
  model::Prediction p;
  p.seconds = seed;
  p.mops = seed * 10.0;
  p.achieved_bw_gbs = seed / 3.0;
  p.vector.vectorised = true;
  p.vector.blended_speedup = 1.5;
  p.breakdown.compute_s = seed / 2.0;
  p.breakdown.stream_s = seed / 4.0;
  p.breakdown.dominant = model::Bottleneck::StreamBandwidth;
  return p;
}

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return {std::istreambuf_iterator<char>(in),
          std::istreambuf_iterator<char>()};
}

void spit(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

// --- persistence ----------------------------------------------------------

TEST(PersistentCache, RoundTripsEntriesBitExactly) {
  TempFile f("test_serve_roundtrip.tmp.bin");
  engine::PredictionCache cache(8);
  cache.put(11, sample_prediction(0.1));
  cache.put(22, sample_prediction(0.2));
  model::Prediction dnr;
  dnr.ran = false;
  dnr.dnr_reason = "out of memory: needs 5 GiB, machine has 1 GiB";
  cache.put(33, dnr);
  serve::save_cache(f.path, cache);

  engine::PredictionCache loaded(8);
  const serve::LoadResult r = serve::load_cache(f.path, loaded);
  EXPECT_TRUE(r.ok());
  EXPECT_EQ(r.restored, 3u);
  EXPECT_EQ(loaded.size(), 3u);

  const auto p = loaded.get(22);
  ASSERT_TRUE(p.has_value());
  EXPECT_EQ(std::bit_cast<std::uint64_t>(p->seconds),
            std::bit_cast<std::uint64_t>(0.2));
  EXPECT_EQ(std::bit_cast<std::uint64_t>(p->breakdown.stream_s),
            std::bit_cast<std::uint64_t>(0.2 / 4.0));
  EXPECT_TRUE(p->vector.vectorised);
  EXPECT_EQ(p->breakdown.dominant, model::Bottleneck::StreamBandwidth);

  const auto d = loaded.get(33);
  ASSERT_TRUE(d.has_value());
  EXPECT_FALSE(d->ran);
  EXPECT_EQ(d->dnr_reason, "out of memory: needs 5 GiB, machine has 1 GiB");
}

TEST(PersistentCache, MissingFileIsACleanColdStart) {
  engine::PredictionCache cache(4);
  const serve::LoadResult r =
      serve::load_cache("test_serve_nonexistent.tmp.bin", cache);
  EXPECT_EQ(r.status, serve::LoadResult::Status::Missing);
  EXPECT_EQ(r.restored, 0u);
  EXPECT_EQ(cache.size(), 0u);
}

TEST(PersistentCache, RejectsVersionMismatch) {
  TempFile f("test_serve_version.tmp.bin");
  engine::PredictionCache cache(4);
  cache.put(1, sample_prediction(1.0));
  serve::save_cache(f.path, cache);

  std::string bytes = slurp(f.path);
  bytes[4] = static_cast<char>(serve::kCacheFormatVersion + 1);  // u32 LE lsb
  spit(f.path, bytes);

  engine::PredictionCache loaded(4);
  const serve::LoadResult r = serve::load_cache(f.path, loaded);
  EXPECT_EQ(r.status, serve::LoadResult::Status::VersionMismatch);
  EXPECT_EQ(loaded.size(), 0u) << "mismatched file must restore nothing";
  EXPECT_NE(r.detail.find("version"), std::string::npos);
}

TEST(PersistentCache, TruncatedFileRestoresNothing) {
  TempFile f("test_serve_truncated.tmp.bin");
  engine::PredictionCache cache(4);
  cache.put(1, sample_prediction(1.0));
  cache.put(2, sample_prediction(2.0));
  serve::save_cache(f.path, cache);

  const std::string bytes = slurp(f.path);
  // Cut mid-payload: the first entry's bytes are intact, but the checksum
  // cannot verify — the all-or-nothing contract restores zero entries.
  spit(f.path, bytes.substr(0, bytes.size() / 2));

  engine::PredictionCache loaded(4);
  const serve::LoadResult r = serve::load_cache(f.path, loaded);
  EXPECT_EQ(r.status, serve::LoadResult::Status::Corrupt);
  EXPECT_EQ(r.restored, 0u);
  EXPECT_EQ(loaded.size(), 0u);
}

TEST(PersistentCache, BitFlippedPayloadIsRejected) {
  TempFile f("test_serve_corrupt.tmp.bin");
  engine::PredictionCache cache(4);
  cache.put(7, sample_prediction(3.0));
  serve::save_cache(f.path, cache);

  std::string bytes = slurp(f.path);
  bytes[bytes.size() / 2] ^= 0x40;  // flip one payload bit
  spit(f.path, bytes);

  engine::PredictionCache loaded(4);
  const serve::LoadResult r = serve::load_cache(f.path, loaded);
  EXPECT_EQ(r.status, serve::LoadResult::Status::Corrupt);
  EXPECT_EQ(loaded.size(), 0u);
}

TEST(PersistentCache, GarbageFileIsRejectedNotFatal) {
  TempFile f("test_serve_garbage.tmp.bin");
  spit(f.path, "this is not a cache file at all");
  engine::PredictionCache loaded(4);
  const serve::LoadResult r = serve::load_cache(f.path, loaded);
  EXPECT_EQ(r.status, serve::LoadResult::Status::Corrupt);
  EXPECT_EQ(loaded.size(), 0u);
}

TEST(PersistentCache, LruOrderSurvivesSaveAndLoad) {
  TempFile f("test_serve_lru.tmp.bin");
  engine::PredictionCache cache(4);
  for (std::uint64_t k = 1; k <= 4; ++k) cache.put(k, sample_prediction(1.0));
  (void)cache.get(2);  // recency (MRU first) is now 2, 4, 3, 1
  serve::save_cache(f.path, cache);

  engine::PredictionCache loaded(4);
  ASSERT_TRUE(serve::load_cache(f.path, loaded).ok());

  // Overflowing the restored cache must evict the *original* LRU entry
  // (key 1), proving recency crossed the save/load boundary.
  loaded.put(99, sample_prediction(9.0));
  EXPECT_FALSE(loaded.get(1).has_value());
  EXPECT_TRUE(loaded.get(2).has_value());
  EXPECT_TRUE(loaded.get(3).has_value());
  EXPECT_TRUE(loaded.get(4).has_value());
}

TEST(PersistentCache, SaveCapTrimsOldestLruEntriesFirst) {
  TempFile f("test_serve_cap.tmp.bin");
  engine::PredictionCache cache(8);
  for (std::uint64_t k = 1; k <= 5; ++k) cache.put(k, sample_prediction(1.0));
  (void)cache.get(1);  // recency (MRU first) is now 1, 5, 4, 3, 2

  const serve::SaveResult saved = serve::save_cache(f.path, cache, 3);
  EXPECT_EQ(saved.written, 3u);
  EXPECT_EQ(saved.trimmed, 2u);

  engine::PredictionCache loaded(8);
  const serve::LoadResult r = serve::load_cache(f.path, loaded);
  EXPECT_TRUE(r.ok());
  EXPECT_EQ(r.restored, 3u);
  EXPECT_EQ(r.trimmed, 2u) << "the file must say how much the cap dropped";
  // The three most recent survive; the two oldest-LRU (2 and 3) are gone.
  EXPECT_TRUE(loaded.get(1).has_value());
  EXPECT_TRUE(loaded.get(5).has_value());
  EXPECT_TRUE(loaded.get(4).has_value());
  EXPECT_FALSE(loaded.get(3).has_value());
  EXPECT_FALSE(loaded.get(2).has_value());
}

TEST(PersistentCache, CapBelowSizeIsANoOpNotATrim) {
  TempFile f("test_serve_cap_noop.tmp.bin");
  engine::PredictionCache cache(8);
  cache.put(1, sample_prediction(1.0));
  cache.put(2, sample_prediction(2.0));
  const serve::SaveResult saved = serve::save_cache(f.path, cache, 16);
  EXPECT_EQ(saved.written, 2u);
  EXPECT_EQ(saved.trimmed, 0u);
}

TEST(PersistentCache, ReadsVersionOneFilesWithoutTheTrimmedField) {
  // A v1 file is a v2 file minus the trimmed u64 at offset 16, stamped
  // version 1.  The checksum seals only the payload, which is unchanged,
  // so the surgery below produces exactly what a v1 build wrote.
  TempFile f("test_serve_v1.tmp.bin");
  engine::PredictionCache cache(4);
  cache.put(11, sample_prediction(0.5));
  cache.put(22, sample_prediction(0.7));
  serve::save_cache(f.path, cache);

  std::string bytes = slurp(f.path);
  bytes.erase(16, 8);  // drop the v2-only trimmed count
  bytes[4] = 1;        // version u32 LE lsb -> 1
  spit(f.path, bytes);

  engine::PredictionCache loaded(4);
  const serve::LoadResult r = serve::load_cache(f.path, loaded);
  EXPECT_TRUE(r.ok()) << r.detail;
  EXPECT_EQ(r.restored, 2u);
  EXPECT_EQ(r.trimmed, 0u) << "v1 files never recorded a trim";
  EXPECT_TRUE(loaded.get(11).has_value());
  EXPECT_TRUE(loaded.get(22).has_value());
}

// --- service request handling --------------------------------------------

serve::Service::Options no_persist() {
  serve::Service::Options o;
  o.jobs = 1;
  return o;
}

obs::json::Value parsed(const std::string& response) {
  return obs::json::parse(response);
}

TEST(Service, AnswersAValidRequest) {
  serve::Service svc(no_persist());
  const auto v = parsed(svc.handle_line(
      R"({"id": "q1", "machine": "sg2044", "kernel": "CG", "class": "C", "cores": 64, "tag": "t"})"));
  EXPECT_EQ(v.find("status")->str, "ok");
  EXPECT_EQ(v.find("id")->str, "q1");
  EXPECT_EQ(v.find("tag")->str, "t");
  EXPECT_EQ(v.find("machine")->str, "sg2044");
  EXPECT_EQ(v.find("bottleneck")->str, "compute");
  EXPECT_TRUE(v.find("ran")->boolean);
  EXPECT_GT(v.find("seconds")->num, 0.0);
  EXPECT_GT(v.find("mops")->num, 0.0);
  // Live-mode attribution fields are present by default.
  EXPECT_EQ(v.find("cache")->str, "miss");
  ASSERT_NE(v.find("latency_us"), nullptr);

  const serve::ServiceStats s = svc.stats();
  EXPECT_EQ(s.received, 1u);
  EXPECT_EQ(s.ok, 1u);
  EXPECT_EQ(s.cache_hits, 0u);
}

TEST(Service, SecondIdenticalRequestHitsTheCache) {
  serve::Service svc(no_persist());
  const std::string line =
      R"({"id": "q", "machine": "sg2042", "kernel": "MG", "cores": 32})";
  const auto first = parsed(svc.handle_line(line));
  const auto second = parsed(svc.handle_line(line));
  EXPECT_EQ(first.find("cache")->str, "miss");
  EXPECT_EQ(second.find("cache")->str, "hit");
  EXPECT_EQ(std::bit_cast<std::uint64_t>(first.find("seconds")->num),
            std::bit_cast<std::uint64_t>(second.find("seconds")->num));
  EXPECT_EQ(svc.stats().cache_hits, 1u);
}

TEST(Service, BackendSelectsTheMechanismAndKeysTheCacheSeparately) {
  serve::Service svc(no_persist());
  const auto analytic = parsed(svc.handle_line(
      R"({"id": "a", "machine": "sg2044", "kernel": "CG", "class": "C", "cores": 64})"));
  const auto interval = parsed(svc.handle_line(
      R"({"id": "i", "machine": "sg2044", "kernel": "CG", "class": "C", "cores": 64, "backend": "interval"})"));

  EXPECT_EQ(analytic.find("backend")->str, "analytic");
  EXPECT_EQ(interval.find("backend")->str, "interval");
  // Same point, different mechanism: the interval request must be a cache
  // MISS even though the analytic twin was just evaluated — the backend is
  // part of the memo key.
  EXPECT_EQ(analytic.find("cache")->str, "miss");
  EXPECT_EQ(interval.find("cache")->str, "miss");
  EXPECT_NE(analytic.find("seconds")->num, interval.find("seconds")->num);

  // A warm interval repeat hits its own entry and serves the interval
  // result, never the analytic one.
  const auto warm = parsed(svc.handle_line(
      R"({"id": "w", "machine": "sg2044", "kernel": "CG", "class": "C", "cores": 64, "backend": "interval"})"));
  EXPECT_EQ(warm.find("cache")->str, "hit");
  EXPECT_EQ(warm.find("backend")->str, "interval");
  EXPECT_EQ(std::bit_cast<std::uint64_t>(warm.find("seconds")->num),
            std::bit_cast<std::uint64_t>(interval.find("seconds")->num));
  EXPECT_EQ(svc.stats().cache_hits, 1u);
}

TEST(Service, UnknownBackendIsAStructuredParseError) {
  serve::Service svc(no_persist());
  const auto v = parsed(svc.handle_line(
      R"({"id": "q", "machine": "sg2044", "kernel": "CG", "backend": "quantum"})"));
  EXPECT_EQ(v.find("status")->str, "error");
  EXPECT_EQ(v.find("error")->str, "parse");
  EXPECT_NE(v.find("message")->str.find("quantum"), std::string::npos);
  EXPECT_EQ(svc.stats().parse_errors, 1u);
}

TEST(Service, MalformedJsonGetsAStructuredParseError) {
  serve::Service svc(no_persist());
  const auto v = parsed(svc.handle_line("{\"id\": \"x\", "));
  EXPECT_EQ(v.find("status")->str, "error");
  EXPECT_EQ(v.find("error")->str, "parse");
  EXPECT_FALSE(v.find("message")->str.empty());
  EXPECT_EQ(svc.stats().parse_errors, 1u);
}

TEST(Service, UnknownMachineAndKernelAreParseErrors) {
  serve::Service svc(no_persist());
  const auto m = parsed(
      svc.handle_line(R"({"id": "a", "machine": "cray-1", "kernel": "CG"})"));
  EXPECT_EQ(m.find("error")->str, "parse");
  EXPECT_EQ(m.find("id")->str, "a") << "parseable requests echo their id";

  const auto k = parsed(svc.handle_line(
      R"({"id": "b", "machine": "sg2044", "kernel": "LINPACK"})"));
  EXPECT_EQ(k.find("error")->str, "parse");
  EXPECT_EQ(svc.stats().parse_errors, 2u);
}

TEST(Service, LintRejectsImplausibleMachineTextWithDetail) {
  // DDR5-6400 peaks at 51.2 GB/s per channel; 99 trips A001 (Error).  The
  // fixture's line 20 carries the same machine; this is the inline twin.
  std::ifstream fx(std::string(RVHPC_SOURCE_DIR) +
                   "/tests/data/serve_replay20.jsonl");
  std::string line, last;
  while (std::getline(fx, line)) {
    if (!line.empty()) last = line;
  }
  ASSERT_NE(last.find("machine_text"), std::string::npos);
  line = last;
  serve::Service svc(no_persist());
  const auto v = parsed(svc.handle_line(line));
  EXPECT_EQ(v.find("status")->str, "error");
  EXPECT_EQ(v.find("error")->str, "lint");
  const obs::json::Value* detail = v.find("detail");
  ASSERT_NE(detail, nullptr);
  ASSERT_FALSE(detail->array.empty());
  EXPECT_NE(detail->array[0].str.find("A001"), std::string::npos);
  EXPECT_EQ(svc.stats().lint_rejected, 1u);

  // The same request is admitted when admission lint is off.
  serve::Service::Options opts = no_persist();
  opts.lint_admission = false;
  serve::Service lax(opts);
  EXPECT_EQ(parsed(lax.handle_line(line)).find("status")->str, "ok");
}

TEST(Service, InlineMachineCostDoesNotScaleWithItsDeclaredCache) {
  // A lint-clean SG2044 that declares a 2 GiB L3 and 256 GiB of DRAM.  A
  // one-core interval request hands the whole L3 to the simulated core;
  // a cache storing every line of its capacity cost ~770 MiB and half a
  // second here.  The answer is pinned byte for byte to what that dense
  // layout produced.
  arch::MachineModel m = arch::machine("sg2044");
  ASSERT_EQ(m.caches.size(), 3u);
  m.caches[2].size_bytes = std::size_t{2} << 30;
  m.memory.dram_gib = 256;
  serve::Service::Options opts = no_persist();
  opts.live_fields = false;
  serve::Service svc(opts);
  const std::string line =
      R"({"id": "big-llc", "machine_text": ")" +
      obs::json::escape(arch::to_text(m)) +
      R"(", "kernel": "CG", "class": "S", "cores": 1, "backend": "interval"})";
  EXPECT_EQ(svc.handle_line(line),
            R"({"id": "big-llc", "status": "ok", "ran": true, )"
            R"("backend": "interval", "machine": "sg2044", "kernel": "CG", )"
            R"("class": "S", "cores": 1, "seconds": 0.36126345571335472, )"
            R"("mops": 340.05653784554283, "bw_gbs": 1.0497898982091269, )"
            R"("bottleneck": "compute", "vectorised": false})");
}

TEST(Service, TopologyMachineTextAdmitsThroughLintLikeAnyOther) {
  // The topology overlay (DESIGN.md §15) rides the same machine_text
  // admission path: a clean dual-socket machine predicts, a broken core
  // partition is an A301 lint reject, a dangling link endpoint fails
  // structural validation — the wire needs no topology-specific code.
  const auto escaped = [](const std::string& text) {
    std::string out;
    for (char ch : text) {
      if (ch == '\n') out += "\\n";
      else if (ch == '"') out += "\\\"";
      else out += ch;
    }
    return out;
  };
  const auto request = [&](const arch::MachineModel& m) {
    return R"({"id": "topo", "machine_text": ")" + escaped(arch::to_text(m)) +
           R"(", "kernel": "EP", "cores": 128})";
  };
  serve::Service svc(no_persist());

  const auto ok = parsed(svc.handle_line(request(arch::machine("sg2044-dual"))));
  EXPECT_EQ(ok.find("status")->str, "ok");

  arch::MachineModel unbalanced = arch::machine("sg2044-dual");
  unbalanced.topology.domains[0].cores -= 1;  // A301: cores no longer partition
  const auto lint = parsed(svc.handle_line(request(unbalanced)));
  EXPECT_EQ(lint.find("status")->str, "error");
  EXPECT_EQ(lint.find("error")->str, "lint");
  const obs::json::Value* detail = lint.find("detail");
  ASSERT_NE(detail, nullptr);
  ASSERT_FALSE(detail->array.empty());
  EXPECT_NE(detail->array[0].str.find("A301"), std::string::npos);

  arch::MachineModel dangling = arch::machine("sg2044-dual");
  dangling.topology.links[0].to = "ghost";
  const auto bad = parsed(svc.handle_line(request(dangling)));
  EXPECT_EQ(bad.find("status")->str, "error");
  EXPECT_EQ(bad.find("error")->str, "parse")
      << "dangling endpoints are a from_text parse reject, line-numbered";
  EXPECT_NE(bad.find("message")->str.find("ghost"), std::string::npos);
}

TEST(Service, ExpiredDeadlineAnswersTimeout) {
  serve::Service::Options opts = no_persist();
  opts.default_timeout_ms = 1e-6;  // 1 ns: parsing alone exceeds it
  serve::Service svc(opts);
  const auto v = parsed(svc.handle_line(
      R"({"id": "t", "machine": "sg2044", "kernel": "EP", "cores": 8})"));
  EXPECT_EQ(v.find("status")->str, "error");
  EXPECT_EQ(v.find("error")->str, "timeout");
  EXPECT_EQ(svc.stats().timeouts, 1u);
}

TEST(Service, RequestLinesKeyTheMemoExactlyLikePredictionRequest) {
  // The service keys a registry machine from its fingerprint, computed
  // once, and an inline machine from its own fingerprint; both must equal
  // PredictionRequest::key(), or cache files written by either path
  // (rvhpc-serve, suite_summary, an older build) stop restoring as hits.
  // A sentinel stored under the engine's key must answer both lines.
  serve::Service svc(no_persist());
  std::vector<arch::MachineId> ids = arch::all_machines();
  ids.insert(ids.end(), arch::topo_machines().begin(),
             arch::topo_machines().end());
  const model::Kernel kernels[] = {
      model::Kernel::IS,         model::Kernel::MG,
      model::Kernel::EP,         model::Kernel::CG,
      model::Kernel::FT,         model::Kernel::BT,
      model::Kernel::LU,         model::Kernel::SP,
      model::Kernel::StreamCopy, model::Kernel::StreamTriad,
      model::Kernel::Hpl,        model::Kernel::Hpcg};
  const model::ProblemClass classes[] = {
      model::ProblemClass::S, model::ProblemClass::W, model::ProblemClass::A,
      model::ProblemClass::B, model::ProblemClass::C};
  const engine::Backend backends[] = {engine::Backend::Analytic,
                                      engine::Backend::Interval};
  std::size_t points = 0;
  for (const arch::MachineId id : ids) {
    const arch::MachineModel& m = arch::machine(id);
    const std::string machine_text = obs::json::escape(arch::to_text(m));
    for (const model::Kernel k : kernels) {
      for (const model::ProblemClass cls : classes) {
        model::WorkloadSignature sig;
        try {
          sig = model::signature(k, cls);
        } catch (const std::invalid_argument&) {
          continue;  // a combination the suite does not define
        }
        for (const engine::Backend b : backends) {
          const std::uint64_t key =
              engine::PredictionRequest(
                  m, sig, model::paper_run_config(m, k, m.cores), "", b)
                  .key();
          const model::Prediction sentinel =
              sample_prediction(1000.0 + static_cast<double>(points++));
          svc.cache().put(key, sentinel);
          const std::string rest = R"(", "kernel": ")" + to_string(k) +
                                   R"(", "class": ")" + to_string(cls) +
                                   R"(", "backend": ")" +
                                   engine::to_string(b) + R"("})";
          const std::string what =
              m.name + "/" + to_string(k) + "/" + to_string(cls) + "/" +
              engine::to_string(b);
          for (const std::string& line :
               {R"({"id": "r", "machine": ")" + m.name + rest,
                R"({"id": "t", "machine_text": ")" + machine_text + rest}) {
            const auto v = parsed(svc.handle_line(line));
            ASSERT_EQ(v.find("status")->str, "ok") << what << ": " << line;
            EXPECT_EQ(v.find("cache")->str, "hit") << what;
            EXPECT_EQ(v.find("machine")->str, m.name);
            EXPECT_EQ(std::bit_cast<std::uint64_t>(v.find("seconds")->num),
                      std::bit_cast<std::uint64_t>(sentinel.seconds))
                << what;
          }
        }
      }
    }
  }
  EXPECT_GE(points, ids.size() * 8 * 5 * 2)
      << "every machine x NPB kernel x class S-C x backend is covered";
  EXPECT_EQ(svc.stats().cache_hits, 2 * points);

  // The keys themselves are the ones earlier builds wrote to cache files.
  // Recalibrating a registry machine changes its keys on purpose (its old
  // entries are stale); update these values then.
  const struct {
    const char* machine;
    model::Kernel kernel;
    model::ProblemClass cls;
    engine::Backend backend;
    std::uint64_t key;
  } golden[] = {
      {"sg2044", model::Kernel::CG, model::ProblemClass::C,
       engine::Backend::Analytic, 0x23eae8228ec40723ull},
      {"sg2042", model::Kernel::MG, model::ProblemClass::B,
       engine::Backend::Interval, 0xc0c55d4996fa2f1full},
      {"sg2044-dual", model::Kernel::EP, model::ProblemClass::C,
       engine::Backend::Analytic, 0x2dca55288646889bull},
  };
  for (const auto& g : golden) {
    const arch::MachineModel& m = arch::machine(std::string(g.machine));
    EXPECT_EQ(engine::PredictionRequest(
                  m, model::signature(g.kernel, g.cls),
                  model::paper_run_config(m, g.kernel, m.cores), "", g.backend)
                  .key(),
              g.key)
        << g.machine;
  }
}

// --- replay over the checked-in fixture ----------------------------------

const std::string kFixture =
    std::string(RVHPC_SOURCE_DIR) + "/tests/data/serve_replay20.jsonl";

TEST(ServiceReplay, FixtureProducesExpectedMix) {
  serve::Service svc(no_persist());
  std::ostringstream out, log;
  const std::string summary = svc.replay(kFixture, out, log);

  const serve::ServiceStats s = svc.stats();
  EXPECT_EQ(s.received, 24u);
  EXPECT_EQ(s.ok, 20u);
  EXPECT_EQ(s.dnr, 1u) << "class C FT cannot fit the Allwinner D1's 1 GiB";
  EXPECT_EQ(s.parse_errors, 3u) << "r18 truncated, r19 unknown kernel, "
                                   "r24 backend=quantum";
  EXPECT_EQ(s.lint_rejected, 1u);
  EXPECT_EQ(s.timeouts, 0u);
  EXPECT_NE(summary.find("cache-hit-rate:"), std::string::npos);
  EXPECT_NE(summary.find("cache-restored: 0"), std::string::npos);

  // Replay output is deterministic: no live-mode fields.
  EXPECT_EQ(out.str().find("latency_us"), std::string::npos);
  EXPECT_EQ(out.str().find("\"cache\""), std::string::npos);
}

TEST(ServiceReplay, WarmRunIsBitIdenticalAndFullyCached) {
  TempFile f("test_serve_replay_cache.tmp.bin");
  std::string cold, warm;
  {
    serve::Service::Options opts = no_persist();
    opts.cache_file = f.path;
    serve::Service svc(opts);
    std::ostringstream out, log;
    svc.start(log);
    (void)svc.replay(kFixture, out, log);
    cold = out.str();
    EXPECT_EQ(svc.stats().restored, 0u);
  }
  {
    serve::Service::Options opts = no_persist();
    opts.cache_file = f.path;
    serve::Service svc(opts);
    std::ostringstream out, log;
    svc.start(log);
    (void)svc.replay(kFixture, out, log);
    warm = out.str();
    const serve::ServiceStats s = svc.stats();
    EXPECT_EQ(s.restored, 18u)
        << "20 ok responses over 18 distinct keys: r17 repeats r01, r23 is "
           "r01 with backend=analytic spelled out, and r21's interval twin "
           "of r01 keys separately";
    EXPECT_EQ(s.cache_hits, s.ok) << "a warm replay never re-predicts";
  }
  EXPECT_EQ(cold, warm);
  EXPECT_FALSE(cold.empty());
}

TEST(ServiceReplay, CorruptCacheFileIsAColdStartNotACrash) {
  TempFile f("test_serve_replay_corrupt.tmp.bin");
  spit(f.path, "RVPC garbage that is certainly not a valid payload");
  serve::Service::Options opts = no_persist();
  opts.cache_file = f.path;
  serve::Service svc(opts);
  std::ostringstream out, log;
  EXPECT_EQ(svc.start(log), 0u);
  EXPECT_NE(log.str().find("WARNING"), std::string::npos);
  (void)svc.replay(kFixture, out, log);
  EXPECT_EQ(svc.stats().ok, 20u) << "service must serve normally after "
                                    "ignoring a corrupt cache file";
}

TEST(Service, FlushWritesALoadableSnapshot) {
  TempFile f("test_serve_flush.tmp.bin");
  serve::Service::Options opts = no_persist();
  opts.cache_file = f.path;
  serve::Service svc(opts);
  (void)svc.handle_line(
      R"({"id": "f", "machine": "sg2044", "kernel": "CG", "cores": 64})");
  std::ostringstream log;
  svc.flush(log);

  engine::PredictionCache loaded(16);
  const serve::LoadResult r = serve::load_cache(f.path, loaded);
  EXPECT_TRUE(r.ok());
  EXPECT_EQ(r.restored, 1u);
}

}  // namespace
