// Dispersion statistics for the benchmark's per-op samples: median,
// quartiles and MAD. Quartiles follow Python's
// statistics.quantiles(values, n=4) (the "exclusive" method), so the spread
// a run reports matches what a reader recomputes from the raw samples.
#pragma once

#include <cstddef>
#include <vector>

namespace perfbench {

struct Summary {
  std::size_t n = 0;
  double median = 0.0;
  double q1 = 0.0;
  double q3 = 0.0;
  double mad = 0.0;  ///< median absolute deviation from the median
  double min = 0.0;
  double max = 0.0;
};

[[nodiscard]] double median(std::vector<double> values);

/// {q1, median, q3} by Python's statistics.quantiles(values, n=4). A single
/// value is its own quartiles; an empty input yields zeros.
[[nodiscard]] std::vector<double> quartiles(std::vector<double> values);

[[nodiscard]] Summary summarize(const std::vector<double>& values);

}  // namespace perfbench
