// Gaussian kernel density estimation.
//
// The paper's adversary does not trust raw histograms for the conditional
// feature densities f(s|ω): "we assume that the adversary uses the Gaussian
// kernel estimator of PDF [Silverman 1986]" (Sec 3.3). This class implements
// exactly that, with Silverman's rule-of-thumb bandwidth as the default and
// Scott's rule / fixed bandwidth for the ablation bench.
//
// Evaluation sorts the training points once and only visits kernels within
// ±8h of the query, so pdf() is O(log N + window) instead of O(N).
#pragma once

#include <span>
#include <vector>

namespace linkpad::stats {

/// A closed interval [lo, hi] of log-density values.
struct LogPdfBounds {
  double lo;
  double hi;
};

/// Bandwidth selection rule for GaussianKde.
enum class BandwidthRule {
  kSilverman,  ///< 0.9 · min(σ̂, IQR/1.34) · n^(−1/5)   (Silverman 1986)
  kScott,      ///< 1.06 · σ̂ · n^(−1/5)
  kFixed,      ///< caller-supplied bandwidth
};

/// Gaussian KDE over a 1-D sample.
class GaussianKde {
 public:
  /// Fits the estimator; `fixed_bandwidth` is used only with kFixed.
  explicit GaussianKde(std::span<const double> data,
                       BandwidthRule rule = BandwidthRule::kSilverman,
                       double fixed_bandwidth = 0.0);

  [[nodiscard]] double bandwidth() const { return bandwidth_; }
  [[nodiscard]] std::size_t sample_size() const { return sorted_.size(); }

  /// Density estimate f̂(x) ≥ 0.
  [[nodiscard]] double pdf(double x) const;

  /// log f̂(x); returns a very negative floor (not −inf) far from the data so
  /// Bayes comparisons stay well-defined.
  [[nodiscard]] double log_pdf(double x) const;

  /// An interval that contains the double log_pdf(x) returns, for deciding
  /// comparisons without computing it (DESIGN.md §2.5). On an AVX2+FMA
  /// host, a window of 4 to 2^14 kernels is summed in vector lanes with a
  /// polynomial exp and widened by kLaneHalfWidth, ≥ 100× the proven
  /// distance to log_pdf(x). Otherwise (another host, an empty, short or
  /// very long window, a non-finite x, or any other guard of the proof in
  /// kde.cpp failing) the interval is log_pdf(x) itself, lo == hi.
  [[nodiscard]] LogPdfBounds log_pdf_bounds(double x) const;

  /// Half-width of a lane-summed enclosure, in log-density units.
  static constexpr double kLaneHalfWidth = 1e-9;

 private:
  /// The kernels pdf() sums for x: those within ±8h, [first, last).
  struct Window {
    const double* first;
    const double* last;
  };
  [[nodiscard]] Window window(double x) const;
  /// pdf(x) and log_pdf(x) over x's window.
  [[nodiscard]] double pdf_in(double x, Window w) const;
  [[nodiscard]] double log_pdf_in(double x, Window w) const;

  std::vector<double> sorted_;
  double bandwidth_ = 0.0;
};

/// Whether this host sums KDE kernel windows in AVX2+FMA lanes
/// (GaussianKde::log_pdf_bounds); otherwise the bounds are exact values.
[[nodiscard]] bool kde_sums_in_lanes();

/// Compute the bandwidth a rule would choose for a sample (exposed for the
/// bandwidth ablation and for tests).
double select_bandwidth(std::span<const double> data, BandwidthRule rule,
                        double fixed_bandwidth = 0.0);

}  // namespace linkpad::stats
