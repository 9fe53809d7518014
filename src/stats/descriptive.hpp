// Descriptive statistics: Welford running moments (mergeable, for parallel
// reduction) and free functions over contiguous samples.
//
// Sample mean and sample variance here are exactly the adversary's feature
// statistics of the paper (eqs. 17 and 19): variance uses the unbiased n−1
// denominator.
#pragma once

#include <algorithm>
#include <cstddef>
#include <span>
#include <vector>

namespace linkpad::stats {

/// The increments of one Welford step for the running mean and second
/// central moment: mean += delta_n, M2 += term1.
struct WelfordStep {
  double delta_n;  ///< (x − mean) / n
  double term1;    ///< (x − mean) · delta_n · (n − 1)
};

/// One Welford step for sample x joining `count_before` samples of mean
/// `mean`. RunningStats::add and the variance window kernels share it, so
/// their mean/M2 recurrences cannot drift apart.
inline WelfordStep welford_step(double x, double mean, double count_before) {
  const double delta = x - mean;
  const double delta_n = delta / (count_before + 1.0);
  return {delta_n, delta * delta_n * count_before};
}

/// Numerically stable running moments (Welford / Chan et al. merge).
/// Tracks up to 4th central moment so skewness / kurtosis are available.
class RunningStats {
 public:
  // Inline: this is the innermost operation of the streaming detection
  // pipeline (every PIAT of every capture passes through it at least once).
  void add(double x) {
    if (n_ == 0) {
      min_ = max_ = x;
    } else {
      min_ = std::min(min_, x);
      max_ = std::max(max_, x);
    }
    const double n1 = static_cast<double>(n_);
    ++n_;
    const double n = static_cast<double>(n_);
    const auto [delta_n, term1] = welford_step(x, mean_, n1);
    const double delta_n2 = delta_n * delta_n;
    mean_ += delta_n;
    m4_ += term1 * delta_n2 * (n * n - 3.0 * n + 3.0) + 6.0 * delta_n2 * m2_ -
           4.0 * delta_n * m3_;
    m3_ += term1 * delta_n * (n - 2.0) - 3.0 * delta_n * m2_;
    m2_ += term1;
  }

  /// Combine with another accumulator (parallel reduction step).
  void merge(const RunningStats& other);

  /// O(1) snapshot of the partially-consumed state. Resuming the original
  /// and the fork with the same suffix yields bit-identical moments — the
  /// checkpoint primitive behind the prefix-replay engine (each sample-size
  /// prefix forks the shared training moments at its boundary instead of
  /// re-consuming the stream). Plain copies carry the same guarantee;
  /// fork() exists so call sites read as intent.
  [[nodiscard]] RunningStats fork() const { return *this; }

  [[nodiscard]] std::size_t count() const { return n_; }
  [[nodiscard]] double mean() const;
  /// Unbiased sample variance (n−1 denominator), eq. (19).
  [[nodiscard]] double variance() const;
  [[nodiscard]] double stddev() const;
  [[nodiscard]] double min() const;
  [[nodiscard]] double max() const;
  /// g1 skewness (0 for symmetric data).
  [[nodiscard]] double skewness() const;
  /// Excess kurtosis (0 for a normal distribution).
  [[nodiscard]] double excess_kurtosis() const;

 private:
  std::size_t n_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double m3_ = 0.0;
  double m4_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
};

/// Sample mean, eq. (17). Expects a non-empty sample.
double mean(std::span<const double> xs);

/// Unbiased sample variance, eq. (19). Expects at least two points.
double sample_variance(std::span<const double> xs);

/// Square root of sample_variance().
double sample_stddev(std::span<const double> xs);

/// Linear-interpolated quantile of an ALREADY SORTED sample, q in [0,1].
double quantile_sorted(std::span<const double> sorted, double q);

/// Median. Copies once and selects (std::nth_element) instead of sorting;
/// the value is quantile_sorted's over the sorted copy, bit for bit.
double median(std::span<const double> xs);

/// Interquartile range Q3 − Q1, by selection like median().
double iqr(std::span<const double> xs);

/// Median absolute deviation about the median, by selection like median().
double mad(std::span<const double> xs);

/// Summary of one sample: handy for test diagnostics and figure drivers.
struct Summary {
  std::size_t count = 0;
  double mean = 0;
  double variance = 0;
  double stddev = 0;
  double min = 0;
  double max = 0;
  double skewness = 0;
  double excess_kurtosis = 0;
};

/// Compute the full Summary in one pass.
Summary summarize(std::span<const double> xs);

}  // namespace linkpad::stats
