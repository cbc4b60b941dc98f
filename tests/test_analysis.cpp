// Tests for rvhpc::analysis — the rule-based static-analysis engine.
//
// The contract under test: every shipped model (registry machines, the
// example .machine file, the full signature suite) lints clean; a
// deliberately-inconsistent fixture machine triggers each machine rule
// exactly once with the correct .machine line number; suppression and
// --werror semantics behave as documented.

#include <gtest/gtest.h>

#include <fstream>
#include <map>
#include <set>
#include <sstream>
#include <string>

#include "analysis/baseline.hpp"
#include "analysis/engine.hpp"
#include "analysis/render.hpp"
#include "analysis/source_model.hpp"
#include "arch/registry.hpp"
#include "arch/serialize.hpp"
#include "model/signatures.hpp"

namespace rvhpc::analysis {
namespace {

using arch::MachineId;
using model::Kernel;
using model::ProblemClass;

// ---------------------------------------------------------------------------
// Shipped models are clean.

class RegistryLint : public ::testing::TestWithParam<MachineId> {};
INSTANTIATE_TEST_SUITE_P(EveryRegistryMachine, RegistryLint,
                         ::testing::ValuesIn(arch::all_machines()),
                         [](const auto& pinfo) {
                           std::string n = arch::name_of(pinfo.param);
                           for (char& c : n) if (c == '-') c = '_';
                           return n;
                         });

TEST_P(RegistryLint, LintsClean) {
  const Report r = lint_machine(arch::machine(GetParam()));
  EXPECT_TRUE(r.empty()) << r.format();
}

TEST(LintRegistry, RegistryAndCalibrationClean) {
  const Report r = lint_registry();
  EXPECT_TRUE(r.empty()) << r.format();
}

TEST(LintSignatures, FullSuiteClean) {
  const Report r = lint_signature_suite();
  EXPECT_TRUE(r.empty()) << r.format();
}

TEST(LintFiles, Sg2046ExampleMachineLintsClean) {
  std::ifstream in(std::string(RVHPC_SOURCE_DIR) +
                   "/examples/machines/sg2046-hypothetical.machine");
  ASSERT_TRUE(in.good()) << "example machine file missing";
  const arch::ParsedMachine pm = arch::parse_machine(in);
  const Report r = lint_machine_file(pm, "sg2046-hypothetical.machine");
  EXPECT_TRUE(r.empty()) << r.format();
}

// ---------------------------------------------------------------------------
// The fixture: one machine, one violation per machine rule.
//
// A002 (opaque ddr_kind) is mutually exclusive with A001 (which needs a
// parseable ddr_kind), so it is exercised by its own fixture below.

constexpr const char* kFixture = R"(name = broken
isa = RV64GC
cores = 6
cluster_size = 2
core.clock_ghz = 9.0
core.out_of_order = false
core.decode_width = 1
core.issue_width = 2
core.sustained_scalar_opc = 1.8
core.miss_level_parallelism = 12
core.vector.isa = RVV v1.0
core.vector.width_bits = 192
cache = L1D 32768 8 64 1 4
cache = L2 262144 16 64 3 12
cache = L3 262144 16 64 6 30
memory.controllers = 2
memory.channels = 3
memory.ddr_kind = DDR4-3200
memory.channel_bw_gbs = 51.2
memory.stream_efficiency = 0.99
memory.idle_latency_ns = 500
memory.numa_regions = 4
memory.dram_gib = 0.0001
)";

/// Machine rule id -> the fixture line (1-based) its finding must point at.
const std::map<std::string, int>& fixture_expectations() {
  static const std::map<std::string, int> expected = {
      {"A001-bw-channel-mismatch", 19},       // memory.channel_bw_gbs
      {"A003-stream-efficiency-implausible", 20},
      {"A004-cluster-cache-mismatch", 14},    // the L2 cache line
      {"A005-cache-per-core-shrink", 15},     // the L3 cache line
      {"A006-isa-vector-mismatch", 11},       // core.vector.isa
      {"A007-vector-width-pow2", 12},
      {"A008-idle-latency-implausible", 21},
      {"A009-numa-core-split", 22},
      {"A010-clock-implausible", 5},
      {"A011-llc-exceeds-dram", 23},          // memory.dram_gib
      {"A012-opc-exceeds-decode", 9},
      {"A013-inorder-deep-mlp", 10},
      {"A014-channel-controller-split", 17},
  };
  return expected;
}

TEST(Fixture, TriggersEveryMachineRuleExactlyOnce) {
  const arch::ParsedMachine pm = arch::parse_machine(kFixture);
  const Report r = lint_machine_file(pm, "broken.machine");
  for (const auto& [rule, line] : fixture_expectations()) {
    EXPECT_EQ(r.by_rule(rule).size(), 1u) << rule << "\n" << r.format();
  }
  // ...and nothing else fires: the fixture's violations are disjoint.
  EXPECT_EQ(r.diagnostics.size(), fixture_expectations().size()) << r.format();
}

TEST(Fixture, DiagnosticsCarryTheOffendingLine) {
  const arch::ParsedMachine pm = arch::parse_machine(kFixture);
  const Report r = lint_machine_file(pm, "broken.machine");
  for (const auto& [rule, line] : fixture_expectations()) {
    const auto hits = r.by_rule(rule);
    ASSERT_EQ(hits.size(), 1u) << rule;
    EXPECT_EQ(hits[0].loc.line, line) << rule << ": " << hits[0].format();
    EXPECT_EQ(hits[0].loc.file, "broken.machine");
  }
}

TEST(Fixture, ContradictoryMemoryParametersYieldA001WithLineNumber) {
  // The acceptance-criteria case in isolation: DDR4-3200 cannot move
  // 51.2 GB/s down one channel (25.6 GB/s theoretical peak).
  const auto hits = lint_machine_file(arch::parse_machine(kFixture),
                                      "broken.machine")
                        .by_rule("A001");
  ASSERT_EQ(hits.size(), 1u);
  EXPECT_EQ(hits[0].severity, Severity::Error);
  EXPECT_EQ(hits[0].field, "memory.channel_bw_gbs");
  EXPECT_EQ(hits[0].loc.line, 19);
}

TEST(Fixture, OpaqueDdrKindYieldsA002NoteOnly) {
  arch::MachineModel m = arch::machine(MachineId::Sg2044);
  m.memory.ddr_kind = "HBM3";
  const Report r = lint_machine(m);
  ASSERT_EQ(r.diagnostics.size(), 1u) << r.format();
  EXPECT_EQ(r.by_rule("A002").size(), 1u);
  EXPECT_EQ(r.diagnostics[0].severity, Severity::Note);
}

// ---------------------------------------------------------------------------
// Suppression and werror semantics.

TEST(Options, SuppressionByPrefixAndFullId) {
  Report r = lint_machine(arch::parse_machine(kFixture).model);
  LintOptions opts;
  opts.suppressed = {"A001", "A006-isa-vector-mismatch"};
  const Report filtered = apply(std::move(r), opts);
  EXPECT_TRUE(filtered.by_rule("A001").empty());
  EXPECT_TRUE(filtered.by_rule("A006").empty());
  EXPECT_EQ(filtered.by_rule("A007").size(), 1u);  // untouched
}

TEST(Options, WerrorPromotesWarningsToErrors) {
  Report r = lint_machine(arch::parse_machine(kFixture).model);
  const std::size_t warns = r.count(Severity::Warn);
  ASSERT_GT(warns, 0u);
  const std::size_t errors = r.count(Severity::Error);
  LintOptions opts;
  opts.werror = true;
  const Report promoted = apply(std::move(r), opts);
  EXPECT_EQ(promoted.count(Severity::Warn), 0u);
  EXPECT_EQ(promoted.count(Severity::Error), errors + warns);
}

TEST(Options, MachineFileDirectiveSuppressesRules) {
  const std::string text =
      std::string("# rvhpc-lint: disable=A010,A013-inorder-deep-mlp\n") +
      kFixture;
  const arch::ParsedMachine pm = arch::parse_machine(text);
  const Report r = lint_machine_file(pm, "broken.machine");
  EXPECT_TRUE(r.by_rule("A010").empty()) << r.format();
  EXPECT_TRUE(r.by_rule("A013").empty()) << r.format();
  EXPECT_EQ(r.by_rule("A001").size(), 1u);
}

TEST(Options, RuleMatchingIsExactOrPrefix) {
  EXPECT_TRUE(rule_matches("A001-bw-channel-mismatch", "A001"));
  EXPECT_TRUE(rule_matches("A001-bw-channel-mismatch",
                           "A001-bw-channel-mismatch"));
  EXPECT_FALSE(rule_matches("A001-bw-channel-mismatch", "A00"));
  EXPECT_FALSE(rule_matches("A001-bw-channel-mismatch", "A002"));
  EXPECT_FALSE(rule_matches("A001-bw-channel-mismatch", ""));
}

// ---------------------------------------------------------------------------
// Signature rules: one bad signature per rule id.

model::WorkloadSignature good() {
  return model::signature(Kernel::MG, ProblemClass::C);
}

TEST(SignatureRules, FractionOutOfRangeIsA101) {
  auto s = good();
  s.vectorisable_fraction = 1.5;
  EXPECT_EQ(lint_signature(s).by_rule("A101").size(), 1u);
}

TEST(SignatureRules, MissingRandomFootprintIsA102) {
  auto s = good();
  s.random_access_per_op = 0.5;
  s.random_footprint_mib = 0.0;
  EXPECT_EQ(lint_signature(s).by_rule("A102").size(), 1u);
}

TEST(SignatureRules, FootprintBeyondWorkingSetIsA102) {
  auto s = good();
  s.random_access_per_op = 0.5;
  s.random_footprint_mib = s.working_set_mib * 2.0;
  EXPECT_EQ(lint_signature(s).by_rule("A102").size(), 1u);
}

TEST(SignatureRules, NonPositiveWorkIsA103) {
  auto s = good();
  s.total_mop = 0.0;
  EXPECT_EQ(lint_signature(s).by_rule("A103").size(), 1u);
}

TEST(SignatureRules, OddElementWidthIsA104) {
  auto s = good();
  s.element_bits = 16;
  EXPECT_EQ(lint_signature(s).by_rule("A104").size(), 1u);
}

TEST(SignatureRules, CacheLinePerOpExceededIsA105) {
  auto s = good();
  s.streamed_bytes_per_op = 128.0;
  EXPECT_EQ(lint_signature(s).by_rule("A105").size(), 1u);
}

TEST(SignatureRules, GatherWithoutVectorisationIsA106) {
  auto s = good();
  s.vectorisable_fraction = 0.0;
  s.gather_fraction = 0.5;
  EXPECT_EQ(lint_signature(s).by_rule("A106").size(), 1u);
}

TEST(SignatureRules, AlwaysHittingRandomAccessesAreA107) {
  auto s = good();
  s.random_access_per_op = 0.5;
  s.random_footprint_mib = 1.0;
  s.random_llc_hit_fraction = 1.0;
  EXPECT_EQ(lint_signature(s).by_rule("A107").size(), 1u);
}

TEST(SignatureRules, MoreBarriersThanOpsIsA108) {
  auto s = good();
  s.global_syncs = s.total_mop * 1e6 * 2.0;
  EXPECT_EQ(lint_signature(s).by_rule("A108").size(), 1u);
}

// ---------------------------------------------------------------------------
// Catalogue and rendering.

TEST(Catalogue, RuleIdsAreUniqueAndWellFormed) {
  std::set<std::string> seen;
  for (const RuleInfo& info : rule_catalogue()) {
    EXPECT_TRUE(seen.insert(info.id).second) << "duplicate id " << info.id;
    // A-family rules lint models/signatures/calibration; B-family lints
    // bench C++ sources; S-family lints the main sources (concurrency,
    // hot-path hygiene, syscall robustness).
    EXPECT_TRUE(info.id[0] == 'A' || info.id[0] == 'B' || info.id[0] == 'S')
        << info.id;
    EXPECT_NE(info.id.find('-'), std::string::npos) << info.id;
    EXPECT_FALSE(info.summary.empty()) << info.id;
  }
}

TEST(BenchSource, FlagsModelCallsInsideLoopsOnly) {
  const std::string src =
      "int main() {\n"
      "  double s = 0;\n"
      "  for (int c = 1; c <= 64; c *= 2) {\n"
      "    s += model::predict(m, sig, cfg).mops;\n"
      "  }\n"
      "  while (more()) s += model::at_cores(id, k, cls, 1).mops;\n"
      "  s += model::predict(m, sig, cfg).mops;  // straight-line: fine\n"
      "  for (int i = 0; i < 3; ++i) s += cache.predict(i);  // member: fine\n"
      "  for (int i = 0; i < 2; ++i) log(\"predict(x)\");  // string: fine\n"
      "  return s > 0;\n"
      "}\n";
  const Report r = lint_bench_source(src, "probe.cpp");
  ASSERT_EQ(r.diagnostics.size(), 2u);
  EXPECT_EQ(r.diagnostics[0].rule, "B001-direct-predict-sweep");
  EXPECT_EQ(r.diagnostics[0].loc.line, 4);
  EXPECT_EQ(r.diagnostics[0].field, "predict");
  EXPECT_EQ(r.diagnostics[1].loc.line, 6);
  EXPECT_EQ(r.diagnostics[1].field, "at_cores");
}

TEST(BenchSource, CommentsAndNestedBracesDoNotConfuseTheScanner) {
  const std::string src =
      "void f() {\n"
      "  /* for (;;) predict(a, b, c); */\n"
      "  // while (1) at_cores(i, k, c, 1);\n"
      "  for (int i = 0; i < 2; ++i) {\n"
      "    if (i) { g(); }\n"
      "  }\n"
      "  scale_cores(id, k, cls);\n"
      "}\n";
  EXPECT_TRUE(lint_bench_source(src, "clean.cpp").empty());
}

TEST(BenchSource, InFileDirectiveSuppressesB001) {
  const std::string src =
      "// rvhpc-lint: disable=B001 — times the raw call on purpose\n"
      "void bench() {\n"
      "  for (int i = 0; i < 9; ++i) keep(model::predict(m, sig, cfg));\n"
      "}\n";
  EXPECT_TRUE(lint_bench_source(src, "suppressed.cpp").empty());
}

TEST(BenchSource, ShippedBenchSourcesAreClean) {
  // The migration contract: no bench/example source sweeps the model
  // directly any more.  Runs over the two suppressed benches too — their
  // in-file directives must keep working.
  for (const char* rel :
       {"/bench/suite_summary.cpp", "/bench/calibration_check.cpp",
        "/bench/future_work.cpp", "/bench/micro_benchmarks.cpp",
        "/bench/obs_overhead.cpp", "/examples/paper_tour.cpp"}) {
    const std::string path = std::string(RVHPC_SOURCE_DIR) + rel;
    std::ifstream in(path);
    ASSERT_TRUE(in.good()) << path;
    std::ostringstream source;
    source << in.rdbuf();
    const Report r = lint_bench_source(source.str(), path);
    EXPECT_TRUE(r.empty()) << path << "\n" << r.format();
  }
}

TEST(Render, TableHasOneRowPerFinding) {
  const Report r = lint_machine(arch::parse_machine(kFixture).model);
  EXPECT_EQ(render_table(r).rows(), r.diagnostics.size());
  EXPECT_EQ(render_catalogue().rows(), rule_catalogue().size());
  EXPECT_NE(summarize(r).find("error"), std::string::npos);
}

TEST(Render, JsonCarriesFindingsAndSummary) {
  const std::string src =
      "struct Server { void run(); };\n"
      "void Server::run() { std::system(\"ls\"); system(cmd); }\n";
  const Report r = lint_source(src, "probe \"quoted\".cpp");
  ASSERT_FALSE(r.empty());
  const std::string json = render_json(r);
  EXPECT_NE(json.find("\"rule\": \"S001-blocking-call-in-event-loop\""),
            std::string::npos) << json;
  EXPECT_NE(json.find("\"summary\""), std::string::npos);
  EXPECT_NE(json.find("probe \\\"quoted\\\".cpp"), std::string::npos)
      << "file names must be JSON-escaped\n" << json;
  const Report none;
  EXPECT_NE(render_json(none).find("\"findings\": []"), std::string::npos);
}

// ---------------------------------------------------------------------------
// The token-stream source model (source_model.hpp).

TEST(SourceModel, LexesRawStringsWithoutDesync) {
  // The old char-level B001 machine treated the `"` inside `)"` as a
  // string opener and swallowed the rest of the file.  The loop after the
  // raw string must still be scanned.
  const std::string src =
      "void f() {\n"
      "  const char* q = R\"(quote \" and predict( inside)\";\n"
      "  for (int i = 0; i < 2; ++i) keep(model::predict(m, sig, cfg));\n"
      "}\n";
  const Report r = lint_bench_source(src, "raw.cpp");
  ASSERT_EQ(r.by_rule("B001").size(), 1u) << r.format();
  EXPECT_EQ(r.diagnostics[0].loc.line, 3);
}

TEST(SourceModel, LexesEscapedCharLiteralsWithoutDesync) {
  // '\'' used to leave the scanner stuck in char-literal mode.
  const std::string src =
      "void f() {\n"
      "  char c = '\\'';\n"
      "  char d = '\\\\';\n"
      "  for (int i = 0; i < 2; ++i) keep(model::predict(m, sig, cfg));\n"
      "}\n";
  const Report r = lint_bench_source(src, "chars.cpp");
  ASSERT_EQ(r.by_rule("B001").size(), 1u) << r.format();
  EXPECT_EQ(r.diagnostics[0].loc.line, 4);
}

TEST(SourceModel, TokensCarryLinesAndDepths) {
  const SourceModel m = build_source_model(
      "int f(int a) {\n  return g(a, 1);\n}\n", "t.cpp");
  ASSERT_FALSE(m.tokens.empty());
  EXPECT_EQ(m.tokens.front().text, "int");
  EXPECT_EQ(m.tokens.front().line, 1);
  bool saw_g = false;
  for (const Token& t : m.tokens) {
    if (t.ident("g")) {
      saw_g = true;
      EXPECT_EQ(t.line, 2);
      EXPECT_EQ(t.brace_depth, 1);
    }
  }
  EXPECT_TRUE(saw_g);
}

TEST(SourceModel, HotRegionsComeFromAnnotationComments) {
  const std::string src =
      "int a;\n"
      "// rvhpc: hot-path begin — lookup\n"
      "int b;\n"
      "int c;\n"
      "// rvhpc: hot-path end\n"
      "int d;\n";
  const SourceModel m = build_source_model(src, "hot.cpp");
  ASSERT_EQ(m.hot_regions.size(), 1u);
  EXPECT_FALSE(m.in_hot_region(1));
  EXPECT_TRUE(m.in_hot_region(3));
  EXPECT_TRUE(m.in_hot_region(4));
  EXPECT_FALSE(m.in_hot_region(6));
}

TEST(SourceModel, DirectivesMustStartTheComment) {
  // Prose that merely mentions the markers (like engine.hpp's own docs)
  // must not disable rules or open hot regions.
  const std::string src =
      "// the directive `rvhpc-lint: disable=B001` is described here\n"
      "// and `rvhpc: hot-path begin` is only mentioned, not used\n"
      "int x;\n";
  const SourceModel m = build_source_model(src, "prose.cpp");
  EXPECT_TRUE(m.disabled_rules.empty());
  EXPECT_TRUE(m.hot_regions.empty());
}

TEST(SourceModel, DirectivesInsideStringLiteralsAreInert) {
  const std::string src =
      "const char* s = \"// rvhpc-lint: disable=S201\";\n"
      "void f() { write(1, s, 2); }\n";
  const Report r = lint_source(src, "str.cpp");
  EXPECT_EQ(r.by_rule("S201").size(), 1u) << r.format();
}

TEST(SourceStructure, FindsQualifiedFunctionNames) {
  const SourceModel m = build_source_model(
      "namespace n {\n"
      "struct Server {\n"
      "  void run();\n"
      "};\n"
      "void Server::run() {\n"
      "  go();\n"
      "}\n"
      "int free_fn(int a) { return a; }\n"
      "}  // namespace n\n",
      "s.cpp");
  const Structure st = analyze_structure(m);
  ASSERT_EQ(st.functions.size(), 2u);
  EXPECT_EQ(st.functions[0].name, "Server::run");
  EXPECT_EQ(st.functions[1].name, "free_fn");
}

TEST(SourceStructure, NamespaceScopeExcludesBodies) {
  const SourceModel m = build_source_model(
      "int g_flag = 0;\n"
      "void f() { int local = 0; use(local); }\n",
      "ns.cpp");
  const Structure st = analyze_structure(m);
  ASSERT_EQ(m.tokens.size(), st.namespace_scope.size());
  for (std::size_t i = 0; i < m.tokens.size(); ++i) {
    if (m.tokens[i].ident("g_flag")) EXPECT_TRUE(st.namespace_scope[i]);
    if (m.tokens[i].ident("local")) EXPECT_FALSE(st.namespace_scope[i]);
  }
}

// ---------------------------------------------------------------------------
// S-family rules: seeded fixtures under tests/data/lint/ and clean twins.

std::string read_fixture(const std::string& name) {
  const std::string path =
      std::string(RVHPC_SOURCE_DIR) + "/tests/data/lint/" + name;
  std::ifstream in(path);
  EXPECT_TRUE(in.good()) << "missing fixture " << path;
  std::ostringstream src;
  src << in.rdbuf();
  return src.str();
}

Report lint_fixture(const std::string& name) {
  return lint_source(read_fixture(name), name);
}

TEST(SourceRules, BlockingCallFixtureTripsS001Only) {
  const Report r = lint_fixture("s001_blocking_loop.cpp");
  EXPECT_EQ(r.by_rule("S001").size(), 2u) << r.format();  // handle_line, flush
  EXPECT_EQ(r.diagnostics.size(), 2u) << r.format();
  EXPECT_EQ(r.by_rule("S001")[0].subject, "Server::run");
}

TEST(SourceRules, BlockingCallCleanTwinPasses) {
  EXPECT_TRUE(lint_fixture("s001_clean.cpp").empty());
}

TEST(SourceRules, SharedFlagFixtureTripsS002Only) {
  const Report r = lint_fixture("s002_flag.cpp");
  ASSERT_EQ(r.by_rule("S002").size(), 1u) << r.format();
  EXPECT_EQ(r.diagnostics.size(), 1u) << r.format();
  EXPECT_EQ(r.diagnostics[0].field, "g_done");
  EXPECT_EQ(r.diagnostics[0].loc.line, 7);
}

TEST(SourceRules, SharedFlagCleanTwinPasses) {
  EXPECT_TRUE(lint_fixture("s002_clean.cpp").empty());
}

TEST(SourceRules, LockOrderFixtureTripsS003Only) {
  const Report r = lint_fixture("s003_lock_order.cpp");
  ASSERT_EQ(r.by_rule("S003").size(), 1u) << r.format();
  EXPECT_EQ(r.diagnostics.size(), 1u) << r.format();
  EXPECT_NE(r.diagnostics[0].message.find("stats_mu"), std::string::npos);
  EXPECT_NE(r.diagnostics[0].message.find("save_mu"), std::string::npos);
}

TEST(SourceRules, LockOrderCleanTwinPasses) {
  EXPECT_TRUE(lint_fixture("s003_clean.cpp").empty());
}

TEST(SourceRules, HotAllocationFixtureTripsS101Only) {
  const Report r = lint_fixture("s101_hot_alloc.cpp");
  EXPECT_EQ(r.by_rule("S101").size(), 2u)  // make_unique + new
      << r.format();
  EXPECT_EQ(r.diagnostics.size(), 2u) << r.format();
}

TEST(SourceRules, HotAllocationCleanTwinPasses) {
  EXPECT_TRUE(lint_fixture("s101_clean.cpp").empty());
}

TEST(SourceRules, IgnoredWriteFixtureTripsS201Only) {
  const Report r = lint_fixture("s201_ignored_write.cpp");
  EXPECT_EQ(r.by_rule("S201").size(), 2u) << r.format();  // write + rename
  EXPECT_EQ(r.diagnostics.size(), 2u) << r.format();
}

TEST(SourceRules, IgnoredWriteCleanTwinPasses) {
  EXPECT_TRUE(lint_fixture("s201_clean.cpp").empty());
}

// Inline cases for the rules without standalone fixtures.

TEST(SourceRules, DetachedThreadIsS004) {
  const std::string src =
      "#include <thread>\n"
      "void spawn() {\n"
      "  std::thread t(work);\n"
      "  t.detach();\n"
      "}\n";
  const Report r = lint_source(src, "detach.cpp");
  ASSERT_EQ(r.by_rule("S004").size(), 1u) << r.format();
  EXPECT_NE(r.diagnostics[0].message.find("detached"), std::string::npos);
}

TEST(SourceRules, UnjoinedThreadIsS004AndJoinedIsClean) {
  const std::string leak =
      "void spawn() {\n"
      "  std::thread t(work);\n"
      "  other();\n"
      "}\n";
  EXPECT_EQ(lint_source(leak, "leak.cpp").by_rule("S004").size(), 1u);
  const std::string joined =
      "void spawn() {\n"
      "  std::thread t(work);\n"
      "  t.join();\n"
      "}\n";
  EXPECT_TRUE(lint_source(joined, "joined.cpp").empty());
  const std::string moved =
      "void spawn(std::vector<std::thread>& pool) {\n"
      "  std::thread t(work);\n"
      "  pool.push_back(std::move(t));\n"
      "}\n";
  EXPECT_TRUE(lint_source(moved, "moved.cpp").by_rule("S004").empty());
}

TEST(SourceRules, HotPathStringCopiesAreS102) {
  const std::string src =
      "// rvhpc: hot-path begin — respond fast path\n"
      "std::string render(std::string key) {\n"
      "  return key;\n"
      "}\n"
      "// rvhpc: hot-path end\n";
  const Report r = lint_source(src, "copy.cpp");
  EXPECT_EQ(r.by_rule("S102").size(), 2u)  // by-value param + return
      << r.format();
  const std::string by_ref =
      "// rvhpc: hot-path begin\n"
      "void render(const std::string& key, std::string* out);\n"
      "// rvhpc: hot-path end\n";
  EXPECT_TRUE(lint_source(by_ref, "ref.cpp").empty());
}

TEST(SourceRules, HotPathToStringIsS103) {
  const std::string src =
      "void f(int v) {\n"
      "  // rvhpc: hot-path begin\n"
      "  use(std::to_string(v));\n"
      "  // rvhpc: hot-path end\n"
      "  use(std::to_string(v));  // cold: fine\n"
      "}\n";
  const Report r = lint_source(src, "tostring.cpp");
  EXPECT_EQ(r.by_rule("S103").size(), 1u) << r.format();
}

TEST(SourceRules, HotPathTemporaryKeysAreS104) {
  const std::string src =
      "int f(const std::map<std::string, int>& m, const std::string& k) {\n"
      "  // rvhpc: hot-path begin\n"
      "  int a = m.count(\"literal\");\n"
      "  auto it = m.find(std::string(\"built\"));\n"
      "  int b = m.count(k);  // existing string: fine\n"
      "  // rvhpc: hot-path end\n"
      "  return a + b + (it != m.end());\n"
      "}\n";
  const Report r = lint_source(src, "keys.cpp");
  EXPECT_EQ(r.by_rule("S104").size(), 2u) << r.format();
}

TEST(SourceRules, HotPathRegistryLookupsByNameAreS104) {
  const std::string src =
      "obs::Histogram* cached() {\n"
      "  if (!obs::metrics_enabled()) return nullptr;\n"
      "  // rvhpc: hot-path begin\n"
      "  static obs::Histogram& h =\n"
      "      obs::Registry::global().histogram(\"once_seconds\");  // fine\n"
      "  return &h;\n"
      "}\n"
      "void predict() {\n"
      "  obs::ScopedTimer t(obs::timer_target(\"wall_seconds\"));\n"
      "  obs::Registry::global().counter(\"calls_total\").add();\n"
      "  obs::ScopedTimer c(cached());  // fine\n"
      "  // rvhpc: hot-path end\n"
      "  obs::Registry::global().gauge(\"cold\").set(1);  // cold: fine\n"
      "}\n";
  const Report r = lint_source(src, "registry.cpp");
  ASSERT_EQ(r.by_rule("S104").size(), 2u) << r.format();
  EXPECT_EQ(r.by_rule("S104")[0].field, "timer_target");
  EXPECT_EQ(r.by_rule("S104")[1].field, "counter");
}

TEST(SourceRules, S002NeedsConcurrencyEvidence) {
  // The same flag pattern without any thread/signal machinery in the file
  // is a single-threaded counter, not a race.
  const std::string src =
      "int g_checks = 0;\n"
      "void claim() { ++g_checks; }\n"
      "int total() { return g_checks; }\n";
  EXPECT_TRUE(lint_source(src, "counter.cpp").empty());
}

TEST(SourceRules, S002SkipsLockProtectedGlobals) {
  const std::string src =
      "#include <mutex>\n"
      "#include <thread>\n"
      "std::mutex g_mu;\n"
      "int g_jobs = 0;\n"
      "void set(int n) { std::lock_guard lock(g_mu); g_jobs = n; }\n"
      "int get() { std::lock_guard lock(g_mu); return g_jobs; }\n";
  EXPECT_TRUE(lint_source(src, "locked.cpp").empty());
}

TEST(SourceRules, DisableDirectiveSuppressesSFamily) {
  const std::string src =
      "// rvhpc-lint: disable=S201 — demo code, failures acceptable\n"
      "void f(int fd) { write(fd, \"x\", 1); }\n";
  EXPECT_TRUE(lint_source(src, "off.cpp").empty());
}

// ---------------------------------------------------------------------------
// Baseline files.

TEST(Baseline, ParsesEntriesAndSkipsComments) {
  const Baseline b = parse_baseline(
      "# header comment\n"
      "\n"
      "S001 src/net/net.cpp handle_line\n"
      "B001 calibration_rules.cpp *\n",
      "bl.txt");
  ASSERT_EQ(b.entries.size(), 2u);
  EXPECT_EQ(b.entries[0].rule, "S001");
  EXPECT_EQ(b.entries[0].field, "handle_line");
  EXPECT_EQ(b.entries[1].field, "*");
}

TEST(Baseline, MalformedLineThrows) {
  EXPECT_THROW(parse_baseline("S001 only-two\n", "bad.txt"),
               std::runtime_error);
  EXPECT_THROW(parse_baseline("S001 a b c-four\n", "bad.txt"),
               std::runtime_error);
}

TEST(Baseline, PathSuffixMatchesAtSlashBoundary) {
  Diagnostic d{"S001-blocking-call-in-event-loop", Severity::Warn,
               "Server::run", "flush", "msg", {"src/net/net.cpp", 10}};
  Baseline b;
  b.entries.push_back({"S001", "net.cpp", "*", 1});
  EXPECT_TRUE(b.matches(d));
  d.loc.file = "src/net/subnet.cpp";
  EXPECT_FALSE(b.matches(d)) << "suffix must anchor at a / boundary";
}

TEST(Baseline, ApplyDropsMatchesAndReportsStale) {
  Report r;
  r.add({"S001-blocking-call-in-event-loop", Severity::Warn, "s", "flush",
         "m", {"src/net/net.cpp", 1}});
  r.add({"S201-ignored-syscall-result", Severity::Warn, "s", "write", "m",
         {"src/serve/persist.cpp", 2}});
  Baseline b;
  b.entries.push_back({"S001", "net.cpp", "flush", 1});
  b.entries.push_back({"S003", "never.cpp", "*", 2});
  std::vector<BaselineEntry> stale;
  const Report left = apply_baseline(std::move(r), b, &stale);
  ASSERT_EQ(left.diagnostics.size(), 1u);
  EXPECT_EQ(left.diagnostics[0].rule, "S201-ignored-syscall-result");
  ASSERT_EQ(stale.size(), 1u);
  EXPECT_EQ(stale[0].rule, "S003");
}

TEST(Baseline, AppliedBeforeWerrorPromotion) {
  // The gate contract: a baselined warning must never fail --werror.
  Report r;
  r.add({"S001-blocking-call-in-event-loop", Severity::Warn, "s",
         "handle_line", "m", {"src/net/net.cpp", 1}});
  Baseline b;
  b.entries.push_back({"S001", "net.cpp", "*", 1});
  Report left = apply_baseline(std::move(r), b, nullptr);
  LintOptions opts;
  opts.werror = true;
  left = apply(std::move(left), opts);
  EXPECT_FALSE(left.has_errors());
  EXPECT_TRUE(left.empty());
}

// ---------------------------------------------------------------------------
// The self-scan: the shipped src/ tree is clean modulo the checked-in
// baseline, and the baseline carries no stale entries.

TEST(SourceLint, SrcTreeIsCleanModuloBaseline) {
  const std::string root(RVHPC_SOURCE_DIR);
  Report r = lint_sources(root + "/src");
  const Baseline b = load_baseline(root + "/scripts/lint_baseline.txt");
  std::vector<BaselineEntry> stale;
  r = apply_baseline(std::move(r), b, &stale);
  EXPECT_TRUE(r.empty()) << "new findings in src/ — fix them or baseline "
                            "with a comment:\n"
                         << r.format();
  std::string stale_list;
  for (const BaselineEntry& e : stale) {
    stale_list += e.rule + " " + e.path + " " + e.field + "\n";
  }
  EXPECT_TRUE(stale.empty())
      << "stale baseline entries (fixed findings?):\n" << stale_list;
}

TEST(SourceLint, FindSourcesIsSortedAndThrowsOnMissingDir) {
  const std::vector<std::string> paths =
      find_sources(std::string(RVHPC_SOURCE_DIR) + "/src/analysis");
  ASSERT_FALSE(paths.empty());
  for (std::size_t i = 1; i < paths.size(); ++i) {
    EXPECT_LE(paths[i - 1], paths[i]);
  }
  EXPECT_THROW(find_sources("/nonexistent/rvhpc"), std::runtime_error);
}

}  // namespace
}  // namespace rvhpc::analysis
