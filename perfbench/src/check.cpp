#include "check.hpp"

#include <bit>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <stdexcept>

#include "serve/service.hpp"

namespace rvbench {

namespace {
constexpr std::string_view kIdPrefix = "{\"id\": \"";
constexpr std::string_view kLive = ", \"cache\": \"";
}  // namespace

std::uint64_t fnv1a(std::string_view bytes) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const char c : bytes) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ULL;
  }
  return h;
}

std::string_view response_id(std::string_view r) {
  if (r.substr(0, kIdPrefix.size()) != kIdPrefix) return {};
  const std::size_t end = r.find('"', kIdPrefix.size());
  if (end == std::string_view::npos) return {};
  return r.substr(kIdPrefix.size(), end - kIdPrefix.size());
}

std::string normalize(std::string_view r) {
  while (!r.empty() && (r.back() == '\n' || r.back() == '\r')) {
    r.remove_suffix(1);
  }
  std::string out;
  std::size_t from = 0;
  if (r.substr(0, kIdPrefix.size()) == kIdPrefix) {
    const std::size_t end = r.find('"', kIdPrefix.size());
    if (end != std::string_view::npos) {
      out.append(kIdPrefix);
      from = end;
    }
  }
  // The live fields are the last members of an ok response.
  const std::size_t live = r.rfind(kLive);
  if (live != std::string_view::npos && live >= from) {
    out.append(r.substr(from, live - from));
    out += '}';
  } else {
    out.append(r.substr(from));
  }
  return out;
}

double response_latency_us(std::string_view r) {
  constexpr std::string_view key = "\"latency_us\": ";
  const std::size_t at = r.rfind(key);
  if (at == std::string_view::npos) return -1.0;
  const std::string num(r.substr(at + key.size(), 32));
  return std::strtod(num.c_str(), nullptr);
}

Outcome classify(std::string_view r) {
  if (r.find("\"status\": \"ok\"") != std::string_view::npos) {
    return Outcome::Ok;
  }
  if (r.find("\"error\": \"overloaded\"") != std::string_view::npos) {
    return Outcome::Refused;
  }
  return Outcome::Failed;
}

bool response_hit(std::string_view r) {
  return r.rfind("\"cache\": \"hit\"") != std::string_view::npos;
}

bool identical(const rvhpc::model::Prediction& a,
               const rvhpc::model::Prediction& b) {
  const auto same = [](double x, double y) {
    return std::bit_cast<std::uint64_t>(x) == std::bit_cast<std::uint64_t>(y);
  };
  const auto& va = a.vector;
  const auto& vb = b.vector;
  const auto& ba = a.breakdown;
  const auto& bb = b.breakdown;
  return a.ran == b.ran && a.dnr_reason == b.dnr_reason &&
         same(a.seconds, b.seconds) && same(a.mops, b.mops) &&
         same(a.achieved_bw_gbs, b.achieved_bw_gbs) &&
         va.vectorised == vb.vectorised &&
         same(va.unit_stride_speedup, vb.unit_stride_speedup) &&
         same(va.gather_speedup, vb.gather_speedup) &&
         same(va.blended_speedup, vb.blended_speedup) &&
         same(ba.compute_s, bb.compute_s) && same(ba.stream_s, bb.stream_s) &&
         same(ba.latency_s, bb.latency_s) && same(ba.sync_s, bb.sync_s) &&
         same(ba.imbalance, bb.imbalance) && ba.dominant == bb.dominant;
}

std::uint32_t Reference::intern(const Spec& spec) {
  std::string key = render_line(spec, "");
  const auto [it, fresh] =
      index_.try_emplace(std::move(key), static_cast<std::uint32_t>(lines_.size()));
  if (fresh) lines_.push_back(render_line(spec, std::to_string(it->second)));
  return it->second;
}

void Reference::build(const std::string& work_dir, int jobs) {
  const std::string path = work_dir + "/reference.jsonl";
  {
    std::ofstream f(path);
    for (const std::string& line : lines_) f << line << '\n';
    if (!f.good()) throw std::runtime_error("cannot write " + path);
  }
  rvhpc::serve::Service::Options opts;
  opts.jobs = jobs;
  rvhpc::serve::Service svc(opts);
  std::ostringstream out;
  std::ostringstream log;
  (void)svc.replay(path, out, log);
  expected_.clear();
  std::istringstream in(out.str());
  for (std::string line; std::getline(in, line);) {
    expected_.push_back(fnv1a(normalize(line)));
  }
  if (expected_.size() != lines_.size()) {
    throw std::runtime_error("reference replay answered " +
                             std::to_string(expected_.size()) + " of " +
                             std::to_string(lines_.size()) + " lines");
  }
}

}  // namespace rvbench
