#include "trace.hpp"

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <stdexcept>
#include <utility>

namespace rvbench {

std::uint32_t SpanBuffer::name_id(const std::string& name) {
  const auto [it, fresh] =
      ids_.try_emplace(name, static_cast<std::uint32_t>(names_.size()));
  if (fresh) names_.push_back(name);
  return it->second;
}

std::int32_t SpanBuffer::begin(std::uint32_t name, std::int32_t parent,
                               std::uint64_t request) {
  return add(name, parent, request, now_us(), 0.0);
}

void SpanBuffer::end(std::int32_t span, std::uint32_t count) {
  SpanRec& s = spans_.at(static_cast<std::size_t>(span));
  s.end_us = now_us();
  s.count = count;
}

std::int32_t SpanBuffer::add(std::uint32_t name, std::int32_t parent,
                             std::uint64_t request, double start_us,
                             double end_us, std::uint32_t count) {
  spans_.push_back({name, parent, request, start_us, end_us, count});
  return static_cast<std::int32_t>(spans_.size() - 1);
}

std::map<std::string, LayerTime> SpanBuffer::layer_times() const {
  std::vector<std::vector<std::pair<double, double>>> children(spans_.size());
  for (const SpanRec& s : spans_) {
    if (s.parent >= 0) {
      children[static_cast<std::size_t>(s.parent)].emplace_back(s.start_us,
                                                                s.end_us);
    }
  }
  std::map<std::string, LayerTime> out;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const SpanRec& s = spans_[i];
    const double dur = s.end_us - s.start_us;
    auto& kids = children[i];
    std::sort(kids.begin(), kids.end());
    double covered = 0.0;
    double reach = s.start_us;
    for (const auto& [a, b] : kids) {
      const double lo = std::max(a, reach);
      const double hi = std::min(b, s.end_us);
      if (hi > lo) covered += hi - lo;
      reach = std::max(reach, hi);
    }
    LayerTime& lt = out[names_[s.name]];
    ++lt.spans;
    lt.calls += s.count;
    lt.total_us += dur;
    lt.self_us += dur - covered;
    lt.per_call_us.push_back(dur / std::max<std::uint32_t>(1, s.count));
  }
  return out;
}

void SpanBuffer::write_json(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (!f) throw std::runtime_error("cannot write " + path);
  std::fputs("{\"traceEvents\": [\n", f);
  const double t0 = spans_.empty() ? 0.0 : spans_.front().start_us;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const SpanRec& s = spans_[i];
    std::fprintf(f,
                 "%s{\"name\": \"%s\", \"ph\": \"X\", \"pid\": 1, \"tid\": 1, "
                 "\"ts\": %.3f, \"dur\": %.3f, \"args\": {\"span\": %zu, "
                 "\"parent\": %d, \"request\": %llu, \"count\": %u}}\n",
                 i ? "," : "", names_[s.name].c_str(), s.start_us - t0,
                 s.end_us - s.start_us, i, s.parent,
                 static_cast<unsigned long long>(s.request), s.count);
  }
  std::fputs("]}\n", f);
  if (std::fclose(f) != 0) throw std::runtime_error("cannot write " + path);
}

}  // namespace rvbench
