#pragma once
// Order statistics for the rvhpc benchmark.

#include <cstddef>
#include <vector>

namespace rvbench {

/// The q-quantile (0 <= q <= 1) of `values` by linear interpolation
/// between closest ranks (position q·(n−1), the common "type 7"
/// definition).  Sorts a copy; 0 for an empty sample.
[[nodiscard]] double percentile(std::vector<double> values, double q);

/// percentile(values, 0.5).
[[nodiscard]] double median(std::vector<double> values);

/// The median, over consecutive windows of `values` (kept in time order),
/// of each window's q-quantile.  Windows hold at least `min_window`
/// samples (at most 25 windows; fewer samples form one window), so one
/// stall of the host moves one window, not the figure.
[[nodiscard]] double windowed_percentile(const std::vector<double>& values,
                                         double q, std::size_t min_window);

}  // namespace rvbench
