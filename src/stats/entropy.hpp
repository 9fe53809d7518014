// Entropy estimators.
//
// The adversary's third feature statistic is the histogram-based entropy
// estimator of eq. (25): Ĥ = −Σ (k_i/n) log(k_i/n) over bins of constant
// width Δh (the `+ log Δh` differential term of eq. (24) is constant across
// the experiment and dropped, exactly as the paper argues). The estimator is
// robust against outliers because each sample contributes with probability
// weight k_i/n.
//
// Extensions beyond the paper (used by the ablation benches):
//  * Miller–Madow bias correction Ĥ + (K−1)/(2n),
//  * the Moddemeijer-style correction from his 1989 Signal Processing paper,
//  * the closed-form differential entropy of a normal, ½·ln(2πeσ²).
#pragma once

#include <cmath>
#include <cstdint>
#include <span>

#include "stats/histogram.hpp"

namespace linkpad::stats {

/// Bias-correction variants for the histogram entropy estimator.
enum class EntropyBias {
  kNone,        ///< plain plug-in estimator, eq. (25)
  kMillerMadow, ///< + (occupied_bins − 1) / (2n)
  kModdemeijer, ///< + (occupied_bins) / (2n) − 1/(2n) ... small-cell correction
};

/// Eq. (25) fed one occupied bin's count at a time, in ascending bin order:
/// the single estimator behind histogram_entropy and the streaming entropy
/// accumulator, so equal counts give bit-identical estimates whatever
/// structure holds them.
class CountEntropy {
 public:
  /// `total` = the sum of all counts that will be added (> 0).
  explicit CountEntropy(std::uint64_t total)
      : n_(static_cast<double>(total)) {}

  /// One occupied bin (count > 0); bins must arrive in ascending order.
  void add(std::uint64_t count) {
    const double p = static_cast<double>(count) / n_;
    h_ -= p * std::log(p);
    occupied_ += 1.0;
    if (count >= 2) resolved_ += 1.0;
  }

  [[nodiscard]] double value(EntropyBias bias) const;

 private:
  double n_;
  double h_ = 0.0;
  double occupied_ = 0.0;
  double resolved_ = 0.0;  // bins with >= 2 samples (Moddemeijer)
};

/// Discrete (bin-probability) entropy in nats from a sparse histogram;
/// this is eq. (25).
double histogram_entropy(const SparseHistogram& hist,
                         EntropyBias bias = EntropyBias::kNone);

/// Convenience: bins `xs` with constant width `bin_width` and applies
/// histogram_entropy. This is the paper's feature statistic end to end.
double sample_entropy(std::span<const double> xs, double bin_width,
                      EntropyBias bias = EntropyBias::kNone);

/// Differential entropy estimate, eq. (24): histogram_entropy + log Δh.
double differential_entropy(std::span<const double> xs, double bin_width,
                            EntropyBias bias = EntropyBias::kNone);

/// Closed-form differential entropy of N(μ, σ²): ½ ln(2π e σ²).
double normal_differential_entropy(double sigma_squared);

}  // namespace linkpad::stats
