// Self-tests of the benchmark's own machinery: seeded generation is
// reproducible, the response checker catches a one-digit corruption, and
// the percentile helper returns known values.
//
//   cmake --build .bench_build --target rvbench_selftest
//   .bench_build/rvbench_selftest        (exit 0 = all passed)

#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "check.hpp"
#include "gen.hpp"
#include "serve/service.hpp"
#include "stats.hpp"

namespace {

int g_failures = 0;

void expect(bool ok, const char* what) {
  std::printf("%s %s\n", ok ? "PASS" : "FAIL", what);
  if (!ok) ++g_failures;
}

bool near(double a, double b) { return std::fabs(a - b) < 1e-9; }

void test_seeded_generation() {
  using rvbench::WorkloadKind;
  for (const auto w : {WorkloadKind::WireHot, WorkloadKind::HttpCold}) {
    const std::string a = rvbench::render_stream(w, 7, 300);
    const std::string b = rvbench::render_stream(w, 7, 300);
    const std::string c = rvbench::render_stream(w, 8, 300);
    expect(!a.empty() && a == b, "same seed gives identical bytes");
    expect(a != c, "another seed gives other bytes");
  }
  const std::string cold = rvbench::render_stream(WorkloadKind::HttpCold, 3, 400);
  expect(cold.find("machine_text") != std::string::npos,
         "http_cold carries inline machines");
  expect(cold.find("\"interval\"") != std::string::npos,
         "http_cold carries interval requests");
}

void test_checker_catches_corruption() {
  rvhpc::serve::Service svc(rvhpc::serve::Service::Options{});
  rvbench::Spec s;
  s.machine = "sg2044";
  s.kernel = "CG";
  s.cls = "B";
  s.cores = 16;
  const std::string live = svc.handle_line(rvbench::render_line(s, "42"));
  expect(rvbench::classify(live) == rvbench::Outcome::Ok, "live answer is ok");
  expect(rvbench::response_id(live) == "42", "id is recovered");
  expect(rvbench::response_latency_us(live) >= 0.0, "latency field is read");

  // Reference: the same request under another id, without live fields.
  rvhpc::serve::Service::Options quiet;
  quiet.live_fields = false;
  rvhpc::serve::Service ref_svc(quiet);
  const std::string reference = ref_svc.handle_line(rvbench::render_line(s, "0"));
  rvbench::Reference ref;
  ref.set_expected({rvbench::fnv1a(rvbench::normalize(reference))});
  expect(ref.matches(0, rvbench::fnv1a(rvbench::normalize(live))),
         "live answer matches its reference");

  const std::size_t at = live.find("\"seconds\": ");
  std::size_t digit = live.find_first_of("0123456789", at + 11);
  std::string corrupt = live;
  corrupt[digit] = corrupt[digit] == '9' ? '8' : static_cast<char>(corrupt[digit] + 1);
  expect(!ref.matches(0, rvbench::fnv1a(rvbench::normalize(corrupt))),
         "a one-digit corruption is caught");
}

void test_percentiles() {
  std::vector<double> v;
  for (int i = 100; i >= 1; --i) v.push_back(i);
  expect(near(rvbench::percentile(v, 0.5), 50.5), "p50 of 1..100 is 50.5");
  expect(near(rvbench::percentile(v, 0.99), 99.01), "p99 of 1..100 is 99.01");
  expect(near(rvbench::percentile(v, 0.0), 1.0), "p0 is the minimum");
  expect(near(rvbench::percentile(v, 1.0), 100.0), "p100 is the maximum");
  expect(near(rvbench::percentile({1, 2, 3, 4}, 0.25), 1.75), "p25 of 1..4 is 1.75");
  expect(near(rvbench::median({7}), 7.0), "median of one sample");
  expect(near(rvbench::median({}), 0.0), "median of no samples is 0");

  // Three windows of 1000; a stall fills the tail of the middle one only.
  std::vector<double> w(3000, 1.0);
  for (int i = 0; i < 1000; ++i) w[static_cast<std::size_t>(i)] = 1.0 + i * 1e-3;
  for (int i = 1000; i < 3000; ++i) w[static_cast<std::size_t>(i)] = w[static_cast<std::size_t>(i % 1000)];
  for (int i = 1900; i < 2000; ++i) w[static_cast<std::size_t>(i)] = 500.0;
  expect(near(rvbench::windowed_percentile(w, 0.99, 1000),
              rvbench::percentile(std::vector<double>(w.begin(), w.begin() + 1000), 0.99)),
         "a stall in one window does not move the windowed p99");
  expect(near(rvbench::windowed_percentile({1, 2, 3, 4}, 0.25, 1000), 1.75),
         "a short sample is one window");
}

}  // namespace

int main() {
  test_seeded_generation();
  test_checker_catches_corruption();
  test_percentiles();
  std::printf("%d failure(s)\n", g_failures);
  return g_failures == 0 ? 0 : 1;
}
