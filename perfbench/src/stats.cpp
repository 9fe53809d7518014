#include "stats.hpp"

#include <algorithm>
#include <cmath>

namespace perfbench {

double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2]
                    : (values[n / 2 - 1] + values[n / 2]) / 2.0;
}

std::vector<double> quartiles(std::vector<double> values) {
  if (values.empty()) return {0.0, 0.0, 0.0};
  if (values.size() == 1) return {values[0], values[0], values[0]};
  std::sort(values.begin(), values.end());
  const long ld = static_cast<long>(values.size());
  const long m = ld + 1;
  std::vector<double> out;
  for (long i = 1; i < 4; ++i) {
    const long j = std::clamp(i * m / 4, 1L, ld - 1);
    const long delta = i * m - j * 4;
    out.push_back((values[j - 1] * static_cast<double>(4 - delta) +
                   values[j] * static_cast<double>(delta)) /
                  4.0);
  }
  return out;
}

Summary summarize(const std::vector<double>& values) {
  Summary s;
  s.n = values.size();
  if (values.empty()) return s;
  const auto q = quartiles(values);
  s.q1 = q[0];
  s.q3 = q[2];
  s.median = median(values);
  std::vector<double> deviations;
  deviations.reserve(values.size());
  for (const double v : values) deviations.push_back(std::fabs(v - s.median));
  s.mad = median(std::move(deviations));
  s.min = *std::min_element(values.begin(), values.end());
  s.max = *std::max_element(values.begin(), values.end());
  return s;
}

}  // namespace perfbench
