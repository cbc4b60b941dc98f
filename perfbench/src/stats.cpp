#include "stats.hpp"

#include <algorithm>
#include <cmath>

namespace rvbench {

double percentile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  q = std::clamp(q, 0.0, 1.0);
  const double pos = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

double median(std::vector<double> values) {
  return percentile(std::move(values), 0.5);
}

double windowed_percentile(const std::vector<double>& values, double q,
                           std::size_t min_window) {
  const std::size_t windows =
      std::clamp<std::size_t>(values.size() / std::max<std::size_t>(1, min_window), 1, 25);
  std::vector<double> per_window;
  for (std::size_t w = 0; w < windows; ++w) {
    const auto begin = values.begin() + static_cast<std::ptrdiff_t>(values.size() * w / windows);
    const auto end = values.begin() + static_cast<std::ptrdiff_t>(values.size() * (w + 1) / windows);
    per_window.push_back(percentile(std::vector<double>(begin, end), q));
  }
  return median(std::move(per_window));
}

}  // namespace rvbench
