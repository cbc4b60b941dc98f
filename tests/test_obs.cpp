// Tests for rvhpc::obs — the tracing/metrics observability layer.
//
// Covers the subsystem contract: the null sink really is a no-op, trace
// JSON round-trips through the bundled parser, histogram percentiles are
// sane, concurrent emission from a threaded sweep is safe, and — the
// attribution invariant everything downstream relies on — a prediction's
// phase seconds sum to its total.

#include <gtest/gtest.h>

#include <bit>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <limits>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "arch/registry.hpp"
#include "memsim/hierarchy.hpp"
#include "model/predictor.hpp"
#include "model/signatures.hpp"
#include "model/sweep.hpp"
#include "obs/diff.hpp"
#include "obs/json.hpp"
#include "obs/metrics.hpp"
#include "obs/report.hpp"
#include "obs/trace.hpp"

using namespace rvhpc;

namespace {

model::Prediction predict_cg64() {
  const arch::MachineModel& m = arch::machine(arch::MachineId::Sg2044);
  return model::predict_paper_setup(
      m, model::signature(model::Kernel::CG, model::ProblemClass::C), 64);
}

}  // namespace

// --- null sink -------------------------------------------------------------

TEST(ObsNullSink, NoSessionMeansNoRecordsAndNoMetrics) {
  obs::set_session(nullptr);
  obs::set_metrics_enabled(false);
  obs::Registry::global().reset();

  obs::Counter& calls =
      obs::Registry::global().counter("rvhpc_predict_calls_total");
  const auto before = calls.value();

  {
    obs::ScopedSpan span("test", "should-vanish");
    span.arg("k", "v");
  }
  (void)predict_cg64();

  EXPECT_EQ(calls.value(), before) << "metrics advanced while disabled";
  EXPECT_EQ(obs::session(), nullptr);
  EXPECT_EQ(obs::timer_target("rvhpc_predict_wall_seconds"), nullptr);
}

TEST(ObsNullSink, NullPathIsCheapEnoughToCallEverywhere) {
  obs::set_session(nullptr);
  obs::set_metrics_enabled(false);
  // A loose functional bound (the strict 5% perf gate lives in
  // bench/obs_overhead): a million null-path hits must be effectively
  // instant, which catches an accidental allocation or lock on the path.
  const auto t0 = std::chrono::steady_clock::now();
  for (int i = 0; i < 1'000'000; ++i) {
    obs::ScopedTimer timer(obs::timer_target("rvhpc_predict_wall_seconds"));
    obs::ScopedSpan span("model", "predict");
  }
  const double secs =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  EXPECT_LT(secs, 2.0);
}

TEST(ObsSession, ScopeInstallsAndRestores) {
  obs::set_session(nullptr);
  obs::set_metrics_enabled(false);
  {
    obs::SessionScope scope;
    EXPECT_EQ(obs::session(), &scope.session());
    EXPECT_TRUE(obs::metrics_enabled());
    {
      obs::SessionScope inner(/*enable_metrics=*/false);
      EXPECT_EQ(obs::session(), &inner.session());
      EXPECT_TRUE(obs::metrics_enabled()) << "inner scope must not disable";
    }
    EXPECT_EQ(obs::session(), &scope.session());
  }
  EXPECT_EQ(obs::session(), nullptr);
  EXPECT_FALSE(obs::metrics_enabled());
}

// --- attribution invariant -------------------------------------------------

TEST(ObsAttribution, PhasesSumToPredictionTotal) {
  obs::SessionScope scope;
  const model::Prediction p = predict_cg64();
  ASSERT_TRUE(p.ran);

  const auto records = scope.session().predictions();
  ASSERT_EQ(records.size(), 1u);
  const obs::PredictionRecord& r = records.front();
  EXPECT_EQ(r.machine, "sg2044");
  EXPECT_EQ(r.kernel, "CG");
  EXPECT_EQ(r.cores, 64);
  ASSERT_EQ(r.phases.size(), 4u);

  double sum = 0.0;
  for (const obs::Phase& ph : r.phases) sum += ph.seconds;
  EXPECT_NEAR(sum, p.seconds, 1e-9);
  EXPECT_DOUBLE_EQ(r.seconds, p.seconds);
  EXPECT_EQ(r.bottleneck, to_string(p.breakdown.dominant));

  // Runner-up margins: the other three resources, every one at most 100%
  // of the dominant, sorted descending.
  ASSERT_EQ(r.runner_up.size(), 3u);
  for (std::size_t i = 0; i < r.runner_up.size(); ++i) {
    EXPECT_LE(r.runner_up[i].second, 1.0 + 1e-12);
    if (i > 0) {
      EXPECT_GE(r.runner_up[i - 1].second, r.runner_up[i].second);
    }
  }
}

TEST(ObsAttribution, PhaseSumHoldsAcrossMachinesKernelsAndCores) {
  obs::SessionScope scope;
  for (arch::MachineId id : arch::hpc_machines()) {
    for (model::Kernel k : {model::Kernel::IS, model::Kernel::MG,
                            model::Kernel::EP, model::Kernel::CG,
                            model::Kernel::FT}) {
      (void)model::scale_cores(id, k, model::ProblemClass::C);
    }
  }
  const auto records = scope.session().predictions();
  ASSERT_GT(records.size(), 100u);
  for (const obs::PredictionRecord& r : records) {
    if (!r.ran) continue;
    double sum = 0.0;
    for (const obs::Phase& ph : r.phases) sum += ph.seconds;
    EXPECT_NEAR(sum, r.seconds, 1e-9)
        << r.machine << "/" << r.kernel << "@" << r.cores;
  }
}

TEST(ObsAttribution, DnrPredictionsAreRecordedWithReason) {
  obs::SessionScope scope;
  const arch::MachineModel& d1 = arch::machine(arch::MachineId::AllwinnerD1);
  const model::Prediction p = model::predict_paper_setup(
      d1, model::signature(model::Kernel::FT, model::ProblemClass::B), 1);
  ASSERT_FALSE(p.ran);
  const auto records = scope.session().predictions();
  ASSERT_EQ(records.size(), 1u);
  EXPECT_FALSE(records.front().ran);
  EXPECT_EQ(records.front().dnr_reason, p.dnr_reason);
  EXPECT_TRUE(records.front().phases.empty());
}

// --- trace JSON round-trip -------------------------------------------------

TEST(ObsTraceJson, RoundTripsThroughParser) {
  obs::SessionScope scope;
  (void)predict_cg64();
  (void)model::scale_cores(arch::MachineId::Sg2042, model::Kernel::IS,
                           model::ProblemClass::C);

  const std::string doc = obs::chrome_trace_json(scope.session());
  const obs::json::Value v = obs::json::parse(doc);
  ASSERT_TRUE(v.is(obs::json::Value::Type::Object));

  const obs::json::Value* events = v.find("traceEvents");
  ASSERT_NE(events, nullptr);
  ASSERT_TRUE(events->is(obs::json::Value::Type::Array));
  EXPECT_EQ(events->array.size(), scope.session().event_count());

  std::size_t predictions = 0;
  for (const obs::json::Value& e : events->array) {
    const obs::json::Value* name = e.find("name");
    const obs::json::Value* ph = e.find("ph");
    ASSERT_NE(name, nullptr);
    ASSERT_NE(ph, nullptr);
    EXPECT_TRUE(ph->str == "X" || ph->str == "i");
    if (ph->str == "X") {
      EXPECT_GE(e.find("dur")->num, 0.0);
    }
    if (name->str.rfind("prediction ", 0) == 0) {
      ++predictions;
      const obs::json::Value* args = e.find("args");
      ASSERT_NE(args, nullptr);
      const obs::json::Value* ran = args->find("ran");
      ASSERT_NE(ran, nullptr);
      if (!ran->boolean) continue;
      // The acceptance-criterion check, via the parsed document: phase
      // seconds sum to the prediction total.
      const obs::json::Value* phases = args->find("phases");
      ASSERT_NE(phases, nullptr);
      double sum = 0.0;
      for (const auto& [k, val] : phases->object) sum += val.num;
      EXPECT_NEAR(sum, args->find("seconds")->num, 1e-9) << name->str;
    }
  }
  EXPECT_EQ(predictions, scope.session().predictions().size());
}

TEST(ObsTraceJson, EscapesAwkwardStrings) {
  obs::TraceSession s;
  s.add_instant("quote\"back\\slash\nnewline\ttab\x01ctl", "cat", {{"k", "v\"w"}});
  const obs::json::Value v = obs::json::parse(obs::chrome_trace_json(s));
  const auto& ev = v.find("traceEvents")->array.front();
  EXPECT_EQ(ev.find("name")->str, "quote\"back\\slash\nnewline\ttab\x01ctl");
  EXPECT_EQ(ev.find("args")->find("k")->str, "v\"w");
}

TEST(ObsJsonParser, RejectsMalformedDocuments) {
  EXPECT_THROW(obs::json::parse("{"), std::runtime_error);
  EXPECT_THROW(obs::json::parse("[1,]"), std::runtime_error);
  EXPECT_THROW(obs::json::parse("{\"a\": 1} trailing"), std::runtime_error);
  EXPECT_THROW(obs::json::parse("tru"), std::runtime_error);
  EXPECT_THROW(obs::json::parse(""), std::runtime_error);
}

namespace {

// json::number is the response format of every served prediction: its
// bytes are printf's "%.17g", whatever produces them.
std::string printf_17g(double v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

}  // namespace

TEST(ObsJsonNumber, MatchesPrintf17gOnEdgeCases) {
  const double edges[] = {0.0,
                          -0.0,
                          std::numeric_limits<double>::denorm_min(),
                          -std::numeric_limits<double>::denorm_min(),
                          std::numeric_limits<double>::min(),
                          std::numeric_limits<double>::max(),
                          std::numeric_limits<double>::lowest(),
                          1e21,
                          1e-7,
                          0.1,
                          1.0 / 3.0,
                          1e16,
                          1e17,
                          123456789012345678.0,
                          9007199254740993.0,
                          4294967296.0,
                          100.0,
                          1.5,
                          -2.25,
                          1e-5,
                          1e-4,
                          1e300};
  for (const double v : edges) {
    EXPECT_EQ(obs::json::number(v), printf_17g(v)) << printf_17g(v);
  }
  EXPECT_EQ(obs::json::number(-0.0), "-0");
  EXPECT_EQ(obs::json::number(0.1), "0.10000000000000001");
  EXPECT_EQ(obs::json::number(1e21), "1e+21");
  // JSON has no inf or nan: they clamp to 0.
  EXPECT_EQ(obs::json::number(std::numeric_limits<double>::infinity()), "0");
  EXPECT_EQ(obs::json::number(-std::numeric_limits<double>::infinity()), "0");
  EXPECT_EQ(obs::json::number(std::numeric_limits<double>::quiet_NaN()), "0");
  std::string out = "x=";
  obs::json::append_number(out, 2.5);
  EXPECT_EQ(out, "x=2.5");
}

TEST(ObsJsonNumber, MatchesPrintf17gOnAMillionSeededDoubles) {
  // Half raw bit patterns (every exponent, subnormals included), half
  // values of the magnitudes predictions actually carry.
  std::mt19937_64 rng(20250817);
  std::uniform_real_distribution<double> mantissa(0.0, 10.0);
  std::uniform_int_distribution<int> exponent(-12, 12);
  std::size_t checked = 0;
  std::size_t mismatches = 0;
  std::string first_mismatch;
  for (int i = 0; i < 1'000'000; ++i) {
    const double v =
        (i % 2 == 0) ? std::bit_cast<double>(rng())
                     : mantissa(rng) * std::pow(10.0, exponent(rng));
    if (!std::isfinite(v)) continue;
    ++checked;
    if (obs::json::number(v) != printf_17g(v)) {
      if (mismatches++ == 0) first_mismatch = printf_17g(v);
    }
  }
  EXPECT_GT(checked, 990'000u);
  EXPECT_EQ(mismatches, 0u) << "first: " << first_mismatch;
}

// --- metrics ---------------------------------------------------------------

TEST(ObsMetrics, HistogramPercentiles) {
  std::vector<double> bounds;
  for (double b = 10.0; b <= 1000.0; b += 10.0) bounds.push_back(b);
  obs::Histogram h(bounds);
  for (int i = 1; i <= 1000; ++i) h.observe(static_cast<double>(i));

  EXPECT_EQ(h.count(), 1000u);
  EXPECT_DOUBLE_EQ(h.min(), 1.0);
  EXPECT_DOUBLE_EQ(h.max(), 1000.0);
  EXPECT_NEAR(h.sum(), 500500.0, 1e-9);
  // With 10-wide buckets the interpolation error is below one bucket.
  EXPECT_NEAR(h.percentile(50), 500.0, 10.0);
  EXPECT_NEAR(h.percentile(90), 900.0, 10.0);
  EXPECT_NEAR(h.percentile(99), 990.0, 10.0);
  EXPECT_DOUBLE_EQ(h.percentile(0), 1.0);
  EXPECT_DOUBLE_EQ(h.percentile(100), 1000.0);
}

TEST(ObsMetrics, HistogramOverflowBucketClampsToObservedMax) {
  obs::Histogram h({1.0, 2.0});
  h.observe(5.0);
  h.observe(7.0);
  // The overflow bucket has no upper bound, so interpolation must use the
  // observed extremes instead of running off to infinity.
  EXPECT_DOUBLE_EQ(h.percentile(100), 7.0);
  EXPECT_NEAR(h.percentile(99), 7.0, 0.1);
  EXPECT_NEAR(h.percentile(1), 5.0, 2.0);
  EXPECT_LE(h.percentile(99), 7.0);
  EXPECT_GE(h.percentile(1), 5.0);
}

TEST(ObsMetrics, RegistryCountsPredictsAndRendersBothFormats) {
  obs::Registry::global().reset();
  obs::SessionScope scope;
  (void)predict_cg64();
  (void)predict_cg64();

  EXPECT_EQ(
      obs::Registry::global().counter("rvhpc_predict_calls_total").value(), 2u);
  EXPECT_EQ(
      obs::Registry::global().histogram("rvhpc_predict_wall_seconds").count(),
      2u);

  const std::string text = obs::Registry::global().render_text();
  EXPECT_NE(text.find("rvhpc_predict_calls_total 2"), std::string::npos);

  const obs::json::Value v =
      obs::json::parse(obs::Registry::global().render_json());
  const obs::json::Value* calls = v.find("rvhpc_predict_calls_total");
  ASSERT_NE(calls, nullptr);
  EXPECT_DOUBLE_EQ(calls->find("value")->num, 2.0);
  EXPECT_EQ(calls->find("type")->str, "counter");
}

TEST(ObsMetrics, ResetZeroesButKeepsReferencesValid) {
  obs::Registry::global().reset();
  obs::Counter& c = obs::Registry::global().counter("test_counter_total");
  c.add(41);
  obs::Registry::global().reset();
  EXPECT_EQ(c.value(), 0u);
  c.add(1);
  EXPECT_EQ(obs::Registry::global().counter("test_counter_total").value(), 1u);
}

// --- sharded histogram -----------------------------------------------------

namespace {

/// Dyadic values (k * 2^-20 s) spread over ~4 decades of the default timer
/// buckets plus the overflow bucket: every partial sum is exact, so the
/// merged sum may not depend on which thread observed which value.
std::vector<double> spread_values() {
  std::vector<double> v;
  for (int k = 1; k <= 4000; ++k) v.push_back(std::ldexp(k, -20));
  v.push_back(256.0);
  v.push_back(512.0);
  return v;
}

void expect_same_histogram(const obs::Histogram& a, const obs::Histogram& b) {
  EXPECT_EQ(a.count(), b.count());
  EXPECT_EQ(a.sum(), b.sum());
  EXPECT_EQ(a.min(), b.min());
  EXPECT_EQ(a.max(), b.max());
  EXPECT_EQ(a.bucket_counts(), b.bucket_counts());
  for (double p : {0.0, 1.0, 10.0, 50.0, 90.0, 99.0, 99.9, 100.0})
    EXPECT_EQ(a.percentile(p), b.percentile(p)) << "p" << p;
}

}  // namespace

TEST(ObsMetrics, ShardedHistogramMergesToTheSingleThreadResult) {
  const std::vector<double> values = spread_values();
  obs::Histogram one(obs::default_time_bounds());
  for (double v : values) one.observe(v);

  obs::Histogram four(obs::default_time_bounds());
  constexpr std::size_t kThreads = 4;
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&four, &values, t] {
      for (std::size_t i = t; i < values.size(); i += kThreads)
        four.observe(values[i]);
    });
  }
  for (std::thread& th : threads) th.join();

  EXPECT_EQ(four.count(), values.size());
  expect_same_histogram(four, one);
}

TEST(ObsMetrics, HistogramResetClearsEveryShard) {
  obs::Histogram h(obs::default_time_bounds());
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&h, t] {
      for (int i = 0; i < 100; ++i) h.observe(1e-3 * (t + 1));
    });
  }
  for (std::thread& th : threads) th.join();
  ASSERT_EQ(h.count(), 400u);

  h.reset();
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.sum(), 0.0);
  EXPECT_EQ(h.percentile(50), 0.0);
  for (std::uint64_t c : h.bucket_counts()) EXPECT_EQ(c, 0u);
  // No stale extreme from another thread's shard may survive the reset.
  h.observe(0.5);
  EXPECT_EQ(h.min(), 0.5);
  EXPECT_EQ(h.max(), 0.5);
  EXPECT_EQ(h.count(), 1u);
}

TEST(ObsMetrics, RenderedHistogramsKeepTheirGoldenBytes) {
  // Golden output of the unsharded (single-mutex) histogram for the same
  // single-thread sequence: sharding must not change a rendered byte.
  obs::Registry r;
  obs::Histogram& h =
      r.histogram("rvhpc_test_seconds", "golden sequence", {1.0, 2.0, 4.0});
  for (double v : {0.5, 1.5, 3.0, 3.5, 10.0, 0.25, 0.1, 0.7, 2.2}) h.observe(v);
  r.counter("rvhpc_test_total", "a counter").add(3);
  r.gauge("rvhpc_test_gauge").set(0.1);
  (void)r.histogram("rvhpc_test_empty_seconds");

  EXPECT_EQ(r.render_text(),
            "rvhpc_test_empty_seconds_count 0\n"
            "rvhpc_test_empty_seconds_sum 0\n"
            "rvhpc_test_gauge 0.1\n"
            "# HELP rvhpc_test_seconds golden sequence\n"
            "rvhpc_test_seconds_count 9\n"
            "rvhpc_test_seconds_sum 21.75\n"
            "rvhpc_test_seconds_min 0.1\n"
            "rvhpc_test_seconds_max 10\n"
            "rvhpc_test_seconds_p50 1.5\n"
            "rvhpc_test_seconds_p90 4.6\n"
            "rvhpc_test_seconds_p99 9.46\n"
            "# HELP rvhpc_test_total a counter\n"
            "rvhpc_test_total 3\n");
  EXPECT_EQ(r.render_json(),
            "{\n"
            "  \"rvhpc_test_empty_seconds\": {\"help\": \"\", \"type\": "
            "\"histogram\", \"count\": 0, \"sum\": 0},\n"
            "  \"rvhpc_test_gauge\": {\"help\": \"\", \"type\": \"gauge\", "
            "\"value\": 0.10000000000000001},\n"
            "  \"rvhpc_test_seconds\": {\"help\": \"golden sequence\", "
            "\"type\": \"histogram\", \"count\": 9, \"sum\": 21.75, "
            "\"min\": 0.10000000000000001, \"max\": 10, \"p50\": 1.5, "
            "\"p90\": 4.5999999999999979, \"p99\": 9.4600000000000009},\n"
            "  \"rvhpc_test_total\": {\"help\": \"a counter\", \"type\": "
            "\"counter\", \"value\": 3}\n"
            "}\n");
}

// --- memsim emission -------------------------------------------------------

TEST(ObsMemsim, HierarchyEmitsCacheStatsAndCountsAccesses) {
  obs::Registry::global().reset();
  obs::SessionScope scope;
  const arch::MachineModel& m = arch::machine(arch::MachineId::Sg2044);
  {
    // The Hierarchy tallies accesses and flushes them into the counter
    // every 4096 accesses and when it is destroyed.
    memsim::Hierarchy h(m, 2);
    // A stream long enough to cross the 4096-access event stride.
    for (std::uint64_t i = 0; i < 5000; ++i) {
      (void)h.access(static_cast<int>(i % 2), i * 64, false);
    }
    EXPECT_EQ(obs::Registry::global()
                  .counter("rvhpc_memsim_accesses_total")
                  .value(),
              4096u);
  }
  std::size_t cache_stats = 0;
  for (const obs::Instant& in : scope.session().instants()) {
    if (in.name == "cache-stats") ++cache_stats;
  }
  EXPECT_GE(cache_stats, 1u);
  EXPECT_EQ(obs::Registry::global()
                .counter("rvhpc_memsim_accesses_total")
                .value(),
            5000u);
}

// --- concurrency -----------------------------------------------------------

TEST(ObsConcurrency, ThreadedSweepEmissionIsSafeAndComplete) {
  obs::SessionScope scope;
  const auto ids = arch::hpc_machines();
  std::vector<std::thread> threads;
  threads.reserve(ids.size());
  for (arch::MachineId id : ids) {
    threads.emplace_back([id] {
      (void)model::scale_cores(id, model::Kernel::MG, model::ProblemClass::C);
    });
  }
  for (std::thread& t : threads) t.join();

  std::size_t expected_points = 0;
  for (arch::MachineId id : ids) {
    expected_points += model::power_of_two_cores(arch::machine(id).cores).size();
  }
  EXPECT_EQ(scope.session().predictions().size(), expected_points);

  // Every record intact (no torn strings/phases) and the JSON of the
  // concurrent session still parses.
  for (const obs::PredictionRecord& r : scope.session().predictions()) {
    EXPECT_FALSE(r.machine.empty());
    EXPECT_EQ(r.kernel, "MG");
    if (r.ran) {
      EXPECT_EQ(r.phases.size(), 4u);
    }
  }
  EXPECT_NO_THROW(
      (void)obs::json::parse(obs::chrome_trace_json(scope.session())));
}

// --- record cap ------------------------------------------------------------

TEST(ObsSessionCap, RingEvictsOldestAndCountsDrops) {
  obs::TraceSession s;
  s.set_max_records(4);
  for (int i = 0; i < 10; ++i) {
    s.add_instant("tick" + std::to_string(i), "test");
  }
  EXPECT_EQ(s.event_count(), 4u);
  EXPECT_EQ(s.dropped_records(), 6u);
  const auto instants = s.instants();
  ASSERT_EQ(instants.size(), 4u);
  // Ring semantics: the most recent history survives.
  EXPECT_EQ(instants.front().name, "tick6");
  EXPECT_EQ(instants.back().name, "tick9");
}

TEST(ObsSessionCap, LoweringCapBelowPopulationEvictsImmediately) {
  obs::TraceSession s;
  for (int i = 0; i < 8; ++i) {
    s.add_instant("e" + std::to_string(i), "test");
  }
  s.set_max_records(3);
  EXPECT_EQ(s.event_count(), 3u);
  EXPECT_EQ(s.dropped_records(), 5u);
}

TEST(ObsSessionCap, AttributionReportWarnsAboutDroppedRecords) {
  obs::SessionScope scope;
  scope.session().set_max_records(2);
  for (int i = 0; i < 5; ++i) (void)predict_cg64();
  const std::string report = obs::attribution_report(scope.session());
  EXPECT_NE(report.find("dropped by the session cap (max_records=2)"),
            std::string::npos);
  EXPECT_GT(scope.session().dropped_records(), 0u);
}

// --- report ----------------------------------------------------------------

TEST(ObsReport, AttributionNamesSaturatedResourceAndDnr) {
  obs::SessionScope scope;
  const model::Prediction p = predict_cg64();
  const arch::MachineModel& d1 = arch::machine(arch::MachineId::AllwinnerD1);
  (void)model::predict_paper_setup(
      d1, model::signature(model::Kernel::FT, model::ProblemClass::B), 1);

  const std::string report = obs::attribution_report(scope.session());
  EXPECT_NE(report.find("saturated resource: " +
                        to_string(p.breakdown.dominant)),
            std::string::npos);
  EXPECT_NE(report.find("runner-up:"), std::string::npos);
  EXPECT_NE(report.find("did not run:"), std::string::npos);
  EXPECT_NE(report.find("sg2044 / CG class C @ 64 cores"), std::string::npos);
}

// --- trace diff -----------------------------------------------------------

namespace {

/// A real trace document for one (kernel, cores) prediction, produced by
/// the same exporter rvhpc-profile --trace uses.
std::string trace_for(model::Kernel kernel, int cores) {
  obs::SessionScope scope;
  const arch::MachineModel& m = arch::machine(arch::MachineId::Sg2044);
  const auto sig = model::signature(kernel, model::ProblemClass::C);
  (void)model::predict(m, sig, model::paper_run_config(m, kernel, cores));
  return obs::chrome_trace_json(scope.session());
}

}  // namespace

TEST(ObsDiff, IdenticalTracesShowZeroDeltasAndNoFlips) {
  const std::string t = trace_for(model::Kernel::CG, 64);
  const std::string report = obs::trace_diff_report(t, t, "a", "b");
  EXPECT_NE(report.find("1 matched"), std::string::npos);
  EXPECT_NE(report.find("0 bottleneck flips"), std::string::npos);
  EXPECT_NE(report.find("seconds:"), std::string::npos);
  EXPECT_NE(report.find("(+0.0%)"), std::string::npos);
  EXPECT_EQ(report.find("[FLIP]"), std::string::npos);
  EXPECT_NE(report.find("phase compute"), std::string::npos);
}

TEST(ObsDiff, ReportsPerPhaseDeltasBetweenCoreCounts) {
  // Same identity key requires same cores; different kernels at the same
  // cores do NOT match — so compare a doctored copy: rename B's kernel via
  // a fresh run with a perturbed machine instead.  The simplest real
  // contrast with a shared key: identical sweep traced twice, one side
  // hand-scaled.  Here we just verify unmatched keys are listed.
  const std::string a = trace_for(model::Kernel::CG, 64);
  const std::string b = trace_for(model::Kernel::CG, 32);
  const std::string report = obs::trace_diff_report(a, b);
  EXPECT_NE(report.find("only in A: sg2044/CG.C@64"), std::string::npos);
  EXPECT_NE(report.find("only in B: sg2044/CG.C@32"), std::string::npos);
  EXPECT_NE(report.find("0 matched"), std::string::npos);
}

TEST(ObsDiff, FlagsBottleneckFlipsAndSaturationEventChanges) {
  // CG at 1 core is latency-bound on the SG2044; at 64 cores the sync and
  // bandwidth picture changes and DRAM saturation events appear — exactly
  // the signals --diff exists to surface.  Craft the flip explicitly so
  // the test does not depend on calibration: patch the bottleneck string
  // in a copied document.
  const std::string a = trace_for(model::Kernel::CG, 64);
  std::string b = a;
  // Patch the prediction record's bottleneck (the one in the same args
  // object as "phases" — spans carry a bottleneck arg of their own).
  const std::string from = "\"bottleneck\": \"";
  const std::size_t phases = b.find("\"phases\"");
  ASSERT_NE(phases, std::string::npos);
  const std::size_t at = b.rfind(from, phases);
  ASSERT_NE(at, std::string::npos);
  const std::size_t end = b.find('"', at + from.size());
  b.replace(at, end + 1 - at, from + "made-up-resource\"");
  const std::string report = obs::trace_diff_report(a, b);
  EXPECT_NE(report.find("[FLIP]"), std::string::npos);
  EXPECT_NE(report.find("1 bottleneck flip"), std::string::npos);
  EXPECT_NE(report.find("made-up-resource"), std::string::npos);
}

TEST(ObsDiff, ReportsNewAndVanishedInstantEvents) {
  const std::string a = trace_for(model::Kernel::CG, 64);
  // Splice a synthetic saturation instant into B's traceEvents array.
  std::string b = a;
  const std::string anchor = "\"traceEvents\": [";
  const std::size_t at = b.find(anchor) + anchor.size();
  b.insert(at,
           "\n  {\"name\": \"dram-channel-saturation\", \"cat\": \"scaling\", "
           "\"ph\": \"i\", \"s\": \"t\", \"ts\": 1, \"pid\": 1, \"tid\": 0, "
           "\"args\": {}},");
  const std::string report = obs::trace_diff_report(a, b);
  EXPECT_NE(report.find("new in B: scaling/dram-channel-saturation"),
            std::string::npos);
  const std::string reverse = obs::trace_diff_report(b, a);
  EXPECT_NE(reverse.find("vanished: scaling/dram-channel-saturation"),
            std::string::npos);
}

TEST(ObsDiff, RejectsNonTraceDocuments) {
  EXPECT_THROW((void)obs::trace_diff_report("not json", "{}"),
               std::runtime_error);
  EXPECT_THROW((void)obs::trace_diff_report("{}", "{\"traceEvents\": 3}"),
               std::runtime_error);
}
