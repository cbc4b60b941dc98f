// rvhpc::engine — batch evaluator, memo cache, thread pool, value types.
//
// The load-bearing guarantee is determinism: a RequestSet evaluated with 1,
// 2 or 8 workers must produce bit-identical predictions in request order.
// Everything else (memoisation, counters, the --jobs flag) layers on top.

#include <atomic>
#include <bit>
#include <chrono>
#include <cstdint>
#include <filesystem>
#include <future>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "arch/registry.hpp"
#include "engine/batch.hpp"
#include "engine/cache.hpp"
#include "engine/request.hpp"
#include "engine/thread_pool.hpp"
#include "model/sweep.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace {

using namespace rvhpc;

std::uint64_t bits(double v) { return std::bit_cast<std::uint64_t>(v); }

/// Bit-exact equality over every Prediction field.
void expect_identical(const model::Prediction& a, const model::Prediction& b) {
  EXPECT_EQ(a.ran, b.ran);
  EXPECT_EQ(a.dnr_reason, b.dnr_reason);
  EXPECT_EQ(bits(a.seconds), bits(b.seconds));
  EXPECT_EQ(bits(a.mops), bits(b.mops));
  EXPECT_EQ(bits(a.achieved_bw_gbs), bits(b.achieved_bw_gbs));
  EXPECT_EQ(a.vector.vectorised, b.vector.vectorised);
  EXPECT_EQ(bits(a.vector.unit_stride_speedup), bits(b.vector.unit_stride_speedup));
  EXPECT_EQ(bits(a.vector.gather_speedup), bits(b.vector.gather_speedup));
  EXPECT_EQ(bits(a.vector.blended_speedup), bits(b.vector.blended_speedup));
  EXPECT_EQ(bits(a.breakdown.compute_s), bits(b.breakdown.compute_s));
  EXPECT_EQ(bits(a.breakdown.stream_s), bits(b.breakdown.stream_s));
  EXPECT_EQ(bits(a.breakdown.latency_s), bits(b.breakdown.latency_s));
  EXPECT_EQ(bits(a.breakdown.sync_s), bits(b.breakdown.sync_s));
  EXPECT_EQ(bits(a.breakdown.imbalance), bits(b.breakdown.imbalance));
  EXPECT_EQ(a.breakdown.dominant, b.breakdown.dominant);
}

/// A medium-sized mixed sweep: every HPC machine's MG and CG scaling
/// curves plus a few single points — enough requests to keep several
/// workers busy and to contain duplicates for the cache tests.
engine::RequestSet mixed_set() {
  engine::RequestSet set;
  for (arch::MachineId id : arch::hpc_machines()) {
    const arch::MachineModel& m = arch::machine(id);
    for (model::Kernel k : {model::Kernel::MG, model::Kernel::CG}) {
      set.add_scaling(m, k, model::ProblemClass::C,
                      model::paper_run_config(m, k, 1),
                      std::string(arch::name_of(id)));
    }
  }
  set.add_paper_setup(arch::MachineId::Sg2044, model::Kernel::FT,
                      model::ProblemClass::C, 64, "ft64");
  return set;
}

/// Bit-exact comparison of a whole batch against its jobs=1 reference.
void expect_same_batch(const std::vector<engine::PredictionResult>& out,
                       const std::vector<engine::PredictionResult>& base) {
  ASSERT_EQ(out.size(), base.size());
  for (std::size_t i = 0; i < out.size(); ++i) {
    EXPECT_EQ(out[i].index, i);
    EXPECT_EQ(out[i].tag, base[i].tag);
    expect_identical(out[i].prediction, base[i].prediction);
  }
}

#ifdef __linux__
/// Live threads of this process: one /proc/self/task entry each.
int live_threads() {
  int n = 0;
  for (const auto& entry :
       std::filesystem::directory_iterator("/proc/self/task")) {
    (void)entry;
    ++n;
  }
  return n;
}

/// live_threads() once it equals `want`, or after 5 s: a joined thread can
/// linger in /proc for a moment after pthread_join returns.
int settled_threads(int want) {
  int n = live_threads();
  for (int i = 0; i < 500 && n != want; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
    n = live_threads();
  }
  return n;
}
#endif

engine::BatchEvaluator make(int jobs, std::size_t cache_capacity) {
  engine::BatchEvaluator::Options opts;
  opts.jobs = jobs;
  opts.cache_capacity = cache_capacity;
  return engine::BatchEvaluator(opts);
}

TEST(MachineFingerprint, DistinctAcrossRegistryAndUnderPerturbation) {
  std::vector<std::uint64_t> seen;
  for (arch::MachineId id : arch::all_machines()) {
    seen.push_back(engine::machine_fingerprint(arch::machine(id)));
  }
  for (std::size_t i = 0; i < seen.size(); ++i) {
    for (std::size_t j = i + 1; j < seen.size(); ++j) {
      EXPECT_NE(seen[i], seen[j]) << "machines " << i << " and " << j;
    }
  }
  // A 5% knob tweak — what the sensitivity sweep does — must re-key.
  arch::MachineModel m = arch::machine(arch::MachineId::Sg2044);
  const std::uint64_t base = engine::machine_fingerprint(m);
  m.memory.channel_bw_gbs *= 1.05;
  EXPECT_NE(engine::machine_fingerprint(m), base);
}

TEST(PredictionRequest, KeyCoversCoresAndCompiler) {
  const arch::MachineModel& m = arch::machine(arch::MachineId::Sg2044);
  const auto sig = model::signature(model::Kernel::MG, model::ProblemClass::C);
  model::RunConfig cfg = model::paper_run_config(m, model::Kernel::MG, 8);
  const engine::PredictionRequest a(m, sig, cfg);
  const engine::PredictionRequest same(m, sig, cfg);
  EXPECT_EQ(a.key(), same.key());

  model::RunConfig more_cores = cfg;
  more_cores.cores = 16;
  EXPECT_NE(engine::PredictionRequest(m, sig, more_cores).key(), a.key());

  model::RunConfig scalar = cfg;
  scalar.compiler.vectorise = !scalar.compiler.vectorise;
  EXPECT_NE(engine::PredictionRequest(m, sig, scalar).key(), a.key());

  // Every remaining RunConfig field feeds the key too (request.cpp's
  // static_asserts pin the field counts; this pins the semantics).
  model::RunConfig other_compiler = cfg;
  other_compiler.compiler.id = cfg.compiler.id == model::CompilerId::Gcc15_2
                                   ? model::CompilerId::Gcc12_3_1
                                   : model::CompilerId::Gcc15_2;
  EXPECT_NE(engine::PredictionRequest(m, sig, other_compiler).key(), a.key());

  model::RunConfig placed = cfg;
  placed.placement = model::ThreadPlacement::Spread;
  EXPECT_NE(engine::PredictionRequest(m, sig, placed).key(), a.key());

  // The backend is part of the key: an analytic result may never answer
  // an interval request from the cache.
  const engine::PredictionRequest interval(m, sig, cfg, "",
                                           engine::Backend::Interval);
  EXPECT_NE(interval.key(), a.key());
  EXPECT_EQ(interval.key(),
            engine::PredictionRequest(m, sig, cfg, "other-tag",
                                      engine::Backend::Interval)
                .key());  // the tag is a display label, not an input
}

TEST(RequestSet, ScalingHelperTagsAndOrder) {
  const arch::MachineModel& m = arch::machine(arch::MachineId::Sg2044);
  engine::RequestSet set;
  set.add_scaling(m, model::Kernel::MG, model::ProblemClass::C,
                  model::paper_run_config(m, model::Kernel::MG, 1), "sg2044");
  const auto grid = model::power_of_two_cores(m.cores);
  ASSERT_EQ(set.size(), grid.size());
  for (std::size_t i = 0; i < grid.size(); ++i) {
    EXPECT_EQ(set.requests()[i].config().cores, grid[i]);
    EXPECT_EQ(set.requests()[i].tag(),
              "sg2044@" + std::to_string(grid[i]));
  }
}

TEST(BatchEvaluator, DeterministicAcrossPoolSizes) {
  const engine::RequestSet set = mixed_set();
  auto serial = make(1, 0);
  const auto base = serial.evaluate(set);
  ASSERT_EQ(base.size(), set.size());
  for (int jobs : {2, 8}) {
    auto pooled = make(jobs, 0);
    expect_same_batch(pooled.evaluate(set), base);
  }
}

TEST(BatchEvaluator, ConcurrentCallersAreBitIdenticalToSerial) {
  const engine::RequestSet set = mixed_set();
  const auto base = make(1, 0).evaluate(set);
  auto pooled = make(4, 0);
  constexpr int kRounds = 10;
  std::vector<std::vector<engine::PredictionResult>> a(kRounds), b(kRounds);
  std::thread ta([&] {
    for (auto& out : a) out = pooled.evaluate(set);
  });
  std::thread tb([&] {
    for (auto& out : b) out = pooled.evaluate(set);
  });
  ta.join();
  tb.join();
  for (int r = 0; r < kRounds; ++r) {
    expect_same_batch(a[r], base);
    expect_same_batch(b[r], base);
  }
  EXPECT_EQ(pooled.pool_threads(), 3);  // one pool, shared by both callers
}

TEST(BatchEvaluator, EvaluateFromInsidePoolTaskCompletes) {
  const engine::RequestSet set = mixed_set();
  const auto base = make(1, 0).evaluate(set);
  auto pooled = make(3, 0);
  // The outer pool's only worker blocks in evaluate(); the evaluator's own
  // helpers and the calling worker must finish the batch between them.
  engine::ThreadPool outer(1);
  std::future<std::vector<engine::PredictionResult>> nested =
      outer.submit_future([&] { return pooled.evaluate(set); });
  ASSERT_EQ(nested.wait_for(std::chrono::seconds(60)),
            std::future_status::ready);
  expect_same_batch(nested.get(), base);

  // Every worker of a pool running a chunk that itself calls run_chunks()
  // on the same pool: the callers finish their inner loops themselves.
  engine::ThreadPool pool(2);
  std::atomic<int> inner{0};
  pool.run_chunks(6, [&](std::size_t) {
    pool.run_chunks(8, [&](std::size_t) { inner.fetch_add(1); });
  });
  EXPECT_EQ(inner.load(), 48);
}

TEST(BatchEvaluator, ThrowingRequestRethrowsFromItsOwnCallOnly) {
  const engine::RequestSet good = mixed_set();
  const auto base = make(1, 0).evaluate(good);

  // memsim rejects a cache line that is not a power of two, so the
  // interval backend throws on this machine.
  arch::MachineModel broken = arch::machine(arch::MachineId::Sg2044);
  broken.caches.at(0).line_bytes = 48;
  engine::RequestSet bad = mixed_set();
  bad.add(engine::PredictionRequest(
      broken, model::signature(model::Kernel::MG, model::ProblemClass::S),
      model::paper_run_config(broken, model::Kernel::MG, 4), "broken",
      engine::Backend::Interval));

  auto pooled = make(4, 0);
  std::vector<engine::PredictionResult> concurrent;
  std::thread other([&] {
    for (int i = 0; i < 5; ++i) concurrent = pooled.evaluate(good);
  });
  EXPECT_THROW((void)pooled.evaluate(bad), std::invalid_argument);
  other.join();
  expect_same_batch(concurrent, base);
  // The evaluator, its pool and wait()'s channel are all left clean.
  expect_same_batch(pooled.evaluate(good), base);
  EXPECT_THROW((void)pooled.evaluate(bad), std::invalid_argument);
  expect_same_batch(pooled.evaluate(good), base);
}

TEST(BatchEvaluator, SerialAndIdleEvaluatorsStartNoThreads) {
  const engine::RequestSet set = mixed_set();
#ifdef __linux__
  // Runtime helpers (a sanitizer's background thread) start with the
  // process's first extra thread; start one first so `before` counts them.
  std::thread([] {}).join();
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  const int before = live_threads();
#endif
  auto idle = make(4, 0);
  auto serial = make(1, 0);
  (void)serial.evaluate(set);
  EXPECT_EQ(idle.pool_threads(), 0);
  EXPECT_EQ(serial.pool_threads(), 0);
#ifdef __linux__
  EXPECT_EQ(live_threads(), before);
#endif

  // The pool starts on the first parallel evaluate() and is released on
  // demand; the caller is the fourth participant.
  (void)idle.evaluate(set);
  EXPECT_EQ(idle.pool_threads(), 3);
#ifdef __linux__
  EXPECT_EQ(live_threads(), before + 3);
#endif
  idle.release_pool();
  EXPECT_EQ(idle.pool_threads(), 0);
#ifdef __linux__
  EXPECT_EQ(settled_threads(before), before);
#endif
}

TEST(BatchEvaluator, SecondPassServedFromCache) {
  const engine::RequestSet set = mixed_set();
  auto ev = make(2, engine::PredictionCache::kDefaultCapacity);
  const auto first = ev.evaluate(set);
  EXPECT_EQ(ev.cache().hits(), 0u);
  EXPECT_EQ(ev.cache().misses(), set.size());
  const auto second = ev.evaluate(set);
  EXPECT_EQ(ev.cache().hits(), set.size());
  for (std::size_t i = 0; i < second.size(); ++i) {
    EXPECT_TRUE(second[i].from_cache) << "request " << i;
    expect_identical(second[i].prediction, first[i].prediction);
  }
}

TEST(BatchEvaluator, CacheCountersPublishedThroughObsMetrics) {
  obs::Registry::global().reset();
  obs::set_metrics_enabled(true);
  auto& hits =
      obs::Registry::global().counter("rvhpc_engine_cache_hits_total");
  auto& misses =
      obs::Registry::global().counter("rvhpc_engine_cache_misses_total");
  const auto h0 = hits.value();
  const auto m0 = misses.value();

  const engine::RequestSet set = mixed_set();
  auto ev = make(1, engine::PredictionCache::kDefaultCapacity);
  (void)ev.evaluate(set);
  (void)ev.evaluate(set);
  obs::set_metrics_enabled(false);

  EXPECT_EQ(misses.value() - m0, set.size());
  EXPECT_EQ(hits.value() - h0, set.size());
}

TEST(BatchEvaluator, BackendRequestCountersPublishedThroughObsMetrics) {
  obs::Registry::global().reset();
  obs::set_metrics_enabled(true);
  auto& analytic = obs::Registry::global().counter(
      "rvhpc_engine_backend_requests_total{backend=\"analytic\"}");
  auto& interval = obs::Registry::global().counter(
      "rvhpc_engine_backend_requests_total{backend=\"interval\"}");
  const auto a0 = analytic.value();
  const auto i0 = interval.value();

  const arch::MachineModel& m = arch::machine(arch::MachineId::Sg2044);
  const auto sig = model::signature(model::Kernel::MG, model::ProblemClass::C);
  const auto cfg = model::paper_run_config(m, model::Kernel::MG, 8);
  auto ev = make(1, 0);  // cache off: every call reaches the backend
  (void)ev.evaluate_one(m, sig, cfg);
  (void)ev.evaluate_one(m, sig, cfg, engine::Backend::Interval);
  (void)ev.evaluate_one(m, sig, cfg, engine::Backend::Interval);
  obs::set_metrics_enabled(false);

  EXPECT_EQ(analytic.value() - a0, 1u);
  EXPECT_EQ(interval.value() - i0, 2u);
}

TEST(BatchEvaluator, ActiveTraceSessionBypassesCache) {
  // A cache hit would skip predict() and its PredictionRecord, so batches
  // evaluated under a live session must never touch the cache.
  const engine::RequestSet set = mixed_set();
  auto ev = make(2, engine::PredictionCache::kDefaultCapacity);
  obs::SessionScope scope;
  (void)ev.evaluate(set);
  const auto second = ev.evaluate(set);
  EXPECT_EQ(ev.cache().hits(), 0u);
  EXPECT_EQ(ev.cache().misses(), 0u);
  for (const auto& r : second) EXPECT_FALSE(r.from_cache);
  EXPECT_GE(scope.session().event_count(), 2 * set.size());
}

TEST(PredictionCache, LruEvictionOrder) {
  engine::PredictionCache cache(2);
  model::Prediction p;
  p.mops = 1.0;
  cache.put(1, p);
  cache.put(2, p);
  ASSERT_TRUE(cache.get(1).has_value());  // 1 becomes most-recent
  cache.put(3, p);                        // evicts 2, the LRU entry
  EXPECT_FALSE(cache.get(2).has_value());
  EXPECT_TRUE(cache.get(1).has_value());
  EXPECT_TRUE(cache.get(3).has_value());
  EXPECT_EQ(cache.evictions(), 1u);
  EXPECT_EQ(cache.size(), 2u);
}

TEST(PredictionCache, ZeroCapacityDisables) {
  engine::PredictionCache cache(0);
  model::Prediction p;
  cache.put(7, p);
  EXPECT_FALSE(cache.get(7).has_value());
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_EQ(cache.hits(), 0u);
  EXPECT_EQ(cache.misses(), 0u);
}

TEST(PredictionCache, EntriesSnapshotsMruFirst) {
  engine::PredictionCache cache(8);
  model::Prediction p;
  p.seconds = 1.0;
  cache.put(1, p);
  p.seconds = 2.0;
  cache.put(2, p);
  p.seconds = 3.0;
  cache.put(3, p);
  (void)cache.get(1);  // touch 1 -> order is now 1, 3, 2 (MRU first)

  const std::vector<engine::CacheEntry> snap = cache.entries();
  ASSERT_EQ(snap.size(), 3u);
  EXPECT_EQ(snap[0].key, 1u);
  EXPECT_EQ(snap[1].key, 3u);
  EXPECT_EQ(snap[2].key, 2u);
  EXPECT_EQ(bits(snap[0].prediction.seconds), bits(1.0));
  EXPECT_EQ(bits(snap[2].prediction.seconds), bits(2.0));
}

TEST(PredictionCache, EntriesReplayedInReverseReproducesRecency) {
  engine::PredictionCache cache(4);
  model::Prediction p;
  for (std::uint64_t k = 1; k <= 4; ++k) cache.put(k, p);
  (void)cache.get(2);  // order: 2, 4, 3, 1

  // Replay LRU-first (reversed snapshot) into a fresh cache — the
  // persistence layer's load path — and the recency order must survive:
  // the same eviction happens in both caches on overflow.
  engine::PredictionCache replayed(4);
  const std::vector<engine::CacheEntry> snap = cache.entries();
  for (auto it = snap.rbegin(); it != snap.rend(); ++it) {
    replayed.put(it->key, it->prediction);
  }
  replayed.put(99, p);  // evicts the LRU entry: key 1
  EXPECT_FALSE(replayed.get(1).has_value());
  EXPECT_TRUE(replayed.get(2).has_value());
  EXPECT_TRUE(replayed.get(3).has_value());
  EXPECT_TRUE(replayed.get(4).has_value());
}

TEST(ThreadPool, RethrowsFirstTaskExceptionFromWait) {
  engine::ThreadPool pool(2);
  pool.submit([] { throw std::runtime_error("task failed"); });
  EXPECT_THROW(pool.wait(), std::runtime_error);
  // The pool must stay usable after an error batch.
  int done = 0;
  pool.submit([&] { done = 1; });
  pool.wait();
  EXPECT_EQ(done, 1);
}

TEST(ThreadPool, SubmitFutureDeliversValueAndOwnsItsException) {
  engine::ThreadPool pool(2);
  std::future<int> ok = pool.submit_future([] { return 41 + 1; });
  EXPECT_EQ(ok.get(), 42);

  // The future owns the task's exception; wait()'s fire-and-forget error
  // channel must stay clean so batch callers never see serving errors.
  std::future<int> bad =
      pool.submit_future([]() -> int { throw std::runtime_error("boom"); });
  EXPECT_THROW(bad.get(), std::runtime_error);
  EXPECT_NO_THROW(pool.wait());
}

TEST(ThreadPool, RunChunksRunsEveryChunkOnceAndOwnsItsException) {
  engine::ThreadPool pool(3);
  std::vector<std::atomic<int>> hits(1000);
  pool.run_chunks(hits.size(), [&](std::size_t i) { hits[i].fetch_add(1); });
  for (const std::atomic<int>& h : hits) EXPECT_EQ(h.load(), 1);

  EXPECT_THROW(pool.run_chunks(100,
                               [](std::size_t i) {
                                 if (i == 37) throw std::runtime_error("chunk");
                               }),
               std::runtime_error);
  // The error belongs to that call: wait()'s submit() channel is clean and
  // the pool keeps working.
  EXPECT_NO_THROW(pool.wait());
  std::atomic<int> total{0};
  pool.run_chunks(10, [&](std::size_t) { total.fetch_add(1); });
  EXPECT_EQ(total.load(), 10);
  pool.run_chunks(0, [](std::size_t) { FAIL() << "no chunk to run"; });
}

TEST(ApplyJobsFlag, ParsesValidAndRejectsMalformed) {
  const char* good[] = {"prog", "--table=3", "--jobs=3"};
  EXPECT_EQ(engine::apply_jobs_flag(3, const_cast<char**>(good)), 3);
  EXPECT_EQ(engine::default_evaluator().jobs(), 3);

  const char* absent[] = {"prog", "--verbose"};
  EXPECT_EQ(engine::apply_jobs_flag(2, const_cast<char**>(absent)), 0);

  // --jobs=0 means "every hardware thread" on every binary (the cli::
  // wrapper shares these semantics).
  const unsigned hw = std::thread::hardware_concurrency();
  const int want_hw = hw > 0 ? static_cast<int>(hw) : 1;
  const char* zero[] = {"prog", "--jobs=0"};
  EXPECT_EQ(engine::apply_jobs_flag(2, const_cast<char**>(zero)), want_hw);
  EXPECT_EQ(engine::default_evaluator().jobs(), want_hw);

  const char* junk[] = {"prog", "--jobs=abc"};
  EXPECT_EQ(engine::apply_jobs_flag(2, const_cast<char**>(junk)), 0);

  const char* trailing[] = {"prog", "--jobs=4x"};
  EXPECT_EQ(engine::apply_jobs_flag(2, const_cast<char**>(trailing)), 0);

  engine::set_default_jobs(engine::default_jobs());  // restore for later tests
}

TEST(DefaultEvaluator, RetiredEvaluatorsReleaseTheirThreads) {
  const engine::RequestSet set = mixed_set();
  const auto base = make(1, 0).evaluate(set);
  engine::set_default_jobs(2);
  (void)engine::default_evaluator().evaluate(set);
  engine::BatchEvaluator& held = engine::default_evaluator();
  ASSERT_EQ(held.pool_threads(), 1);
#ifdef __linux__
  const int before = live_threads();
#endif

  // Each --jobs swap retires the previous default evaluator; only the
  // current one (jobs=2 again at the end) may keep workers.
  for (int jobs : {3, 4, 3, 2}) {
    engine::set_default_jobs(jobs);
    (void)engine::default_evaluator().evaluate(set);
  }
  EXPECT_EQ(held.pool_threads(), 0);
  EXPECT_EQ(engine::default_evaluator().pool_threads(), 1);
#ifdef __linux__
  EXPECT_EQ(settled_threads(before), before);
#endif

  // A reference held across the swap still evaluates, restarting lazily.
  expect_same_batch(held.evaluate(set), base);
  EXPECT_EQ(held.pool_threads(), 1);
  held.release_pool();
  engine::set_default_jobs(engine::default_jobs());  // restore for later tests
}

TEST(DefaultEvaluator, EvaluateOneMatchesDirectPredict) {
  const arch::MachineModel& m = arch::machine(arch::MachineId::Sg2042);
  const auto sig = model::signature(model::Kernel::CG, model::ProblemClass::C);
  const model::RunConfig cfg = model::paper_run_config(m, model::Kernel::CG, 64);
  expect_identical(engine::default_evaluator().evaluate_one(m, sig, cfg),
                   model::predict(m, sig, cfg));
}

}  // namespace
