#pragma once
// The benchmark's own span recorder.
//
// The traced run records a span around each call the benchmark makes into
// a public function of the program — name, start, end, parent span and
// request id — into this in-memory buffer, and writes it out when the run
// ends.  The program's own instrumentation (obs::SessionScope) stays off:
// an active session turns on the program's spans and makes the engine
// bypass its memo cache, which would measure a different program.
//
// A span may stand for `count` back-to-back calls of one layer (a cache
// probe costs tens of nanoseconds, below what a per-call clock read
// resolves); per-call figures divide by it.

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace rvbench {

[[nodiscard]] inline double now_us() {
  return std::chrono::duration<double, std::micro>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

struct SpanRec {
  std::uint32_t name = 0;
  std::int32_t parent = -1;  ///< index of the enclosing span, -1 = root
  std::uint64_t request = 0;
  double start_us = 0.0;
  double end_us = 0.0;
  std::uint32_t count = 1;   ///< calls this span covers
};

/// Per-name totals derived from the spans.
struct LayerTime {
  std::uint64_t spans = 0;
  std::uint64_t calls = 0;  ///< sum of span counts
  double total_us = 0.0;
  double self_us = 0.0;     ///< total minus the time child spans cover
  std::vector<double> per_call_us;  ///< one value per span (dur / count)

  [[nodiscard]] double self_ns_per_call() const {
    return calls ? self_us * 1e3 / static_cast<double>(calls) : 0.0;
  }
};

class SpanBuffer {
 public:
  [[nodiscard]] std::uint32_t name_id(const std::string& name);

  /// Opens a span starting now; close it with end().
  std::int32_t begin(std::uint32_t name, std::int32_t parent = -1,
                     std::uint64_t request = 0);
  void end(std::int32_t span, std::uint32_t count = 1);
  /// Records an already-timed span.
  std::int32_t add(std::uint32_t name, std::int32_t parent,
                   std::uint64_t request, double start_us, double end_us,
                   std::uint32_t count = 1);

  [[nodiscard]] std::size_t size() const { return spans_.size(); }
  [[nodiscard]] const std::vector<SpanRec>& spans() const { return spans_; }

  /// Self time per span name: each span's duration minus the union of its
  /// children's intervals (clipped to the span).
  [[nodiscard]] std::map<std::string, LayerTime> layer_times() const;

  /// Chrome trace_event JSON ("X" events; args carry parent and request).
  void write_json(const std::string& path) const;

 private:
  std::vector<std::string> names_;
  std::map<std::string, std::uint32_t> ids_;
  std::vector<SpanRec> spans_;
};

}  // namespace rvbench
