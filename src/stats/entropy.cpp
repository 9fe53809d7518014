#include "stats/entropy.hpp"

#include <cmath>

#include "util/check.hpp"

namespace linkpad::stats {

double CountEntropy::value(EntropyBias bias) const {
  LINKPAD_EXPECTS(n_ > 0);
  double h = h_;
  switch (bias) {
    case EntropyBias::kNone:
      break;
    case EntropyBias::kMillerMadow:
      h += (occupied_ - 1.0) / (2.0 * n_);
      break;
    case EntropyBias::kModdemeijer:
      // Moddemeijer (1989) applies the same first-order (K−1)/(2n) cell
      // correction but counts only cells with ≥ 2 samples as "resolved";
      // singleton cells carry no curvature information.
      h += (resolved_ - 1.0) / (2.0 * n_);
      break;
  }
  return h;
}

double histogram_entropy(const SparseHistogram& hist, EntropyBias bias) {
  CountEntropy entropy(hist.total());
  for (const auto& [bin, count] : hist.cells()) entropy.add(count);
  return entropy.value(bias);
}

double sample_entropy(std::span<const double> xs, double bin_width,
                      EntropyBias bias) {
  LINKPAD_EXPECTS(!xs.empty());
  SparseHistogram hist(bin_width);
  hist.add_all(xs);
  return histogram_entropy(hist, bias);
}

double differential_entropy(std::span<const double> xs, double bin_width,
                            EntropyBias bias) {
  return sample_entropy(xs, bin_width, bias) + std::log(bin_width);
}

double normal_differential_entropy(double sigma_squared) {
  LINKPAD_EXPECTS(sigma_squared > 0.0);
  return 0.5 * std::log(2.0 * M_PI * M_E * sigma_squared);
}

}  // namespace linkpad::stats
