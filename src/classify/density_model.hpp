// Class-conditional density models f(s|ω) for the Bayes adversary.
//
// The paper's adversary fits a Gaussian-kernel density estimate to the
// training features of each payload rate ("histograms are usually too
// coarse", Sec 3.3 step 2). We provide the KDE model plus a parametric
// Gaussian fit and a plain histogram model so the design choice can be
// ablated — the histogram model is exactly what the paper warns against.
#pragma once

#include <memory>
#include <span>
#include <string>

#include "stats/histogram.hpp"
#include "stats/kde.hpp"

namespace linkpad::classify {

/// Density model selection.
enum class DensityKind { kKde, kGaussian, kHistogram };

/// One-dimensional density with log-pdf evaluation.
class DensityModel {
 public:
  virtual ~DensityModel() = default;
  [[nodiscard]] virtual double log_pdf(double x) const = 0;
  [[nodiscard]] virtual double pdf(double x) const = 0;
  /// An interval that contains log_pdf(x), enough to decide a comparison
  /// without the exact value (BayesClassifier::classify). The default is
  /// the exact value, lo == hi.
  [[nodiscard]] virtual stats::LogPdfBounds log_pdf_bounds(double x) const {
    const double v = log_pdf(x);
    return {v, v};
  }
  [[nodiscard]] virtual std::string name() const = 0;
  /// Deep copy — lets a trained classifier (and with it a whole detector
  /// bank) be checkpointed/forked.
  [[nodiscard]] virtual std::unique_ptr<DensityModel> clone() const = 0;
};

/// Gaussian kernel density estimator (the paper's choice).
class KdeDensity final : public DensityModel {
 public:
  explicit KdeDensity(std::span<const double> data,
                      stats::BandwidthRule rule = stats::BandwidthRule::kSilverman,
                      double fixed_bandwidth = 0.0);

  [[nodiscard]] double log_pdf(double x) const override;
  [[nodiscard]] double pdf(double x) const override;
  [[nodiscard]] stats::LogPdfBounds log_pdf_bounds(double x) const override {
    return kde_.log_pdf_bounds(x);
  }
  [[nodiscard]] std::string name() const override { return "kde"; }
  [[nodiscard]] std::unique_ptr<DensityModel> clone() const override {
    return std::make_unique<KdeDensity>(*this);
  }
  [[nodiscard]] const stats::GaussianKde& kde() const { return kde_; }

 private:
  stats::GaussianKde kde_;
};

/// Maximum-likelihood Gaussian fit.
class GaussianDensity final : public DensityModel {
 public:
  explicit GaussianDensity(std::span<const double> data);
  GaussianDensity(double mean, double sigma);

  [[nodiscard]] double log_pdf(double x) const override;
  [[nodiscard]] double pdf(double x) const override;
  [[nodiscard]] std::string name() const override { return "gaussian"; }
  [[nodiscard]] std::unique_ptr<DensityModel> clone() const override {
    return std::make_unique<GaussianDensity>(*this);
  }
  [[nodiscard]] double mean() const { return mean_; }
  [[nodiscard]] double sigma() const { return sigma_; }

 private:
  double mean_;
  double sigma_;
};

/// Dense histogram density with Laplace smoothing for empty bins.
class HistogramDensity final : public DensityModel {
 public:
  HistogramDensity(std::span<const double> data, std::size_t bins);

  [[nodiscard]] double log_pdf(double x) const override;
  [[nodiscard]] double pdf(double x) const override;
  [[nodiscard]] std::string name() const override { return "histogram"; }
  [[nodiscard]] std::unique_ptr<DensityModel> clone() const override {
    return std::make_unique<HistogramDensity>(*this);
  }

 private:
  stats::Histogram hist_;
  double smoothing_mass_;  // pseudo-density assigned outside/empty bins
};

/// Factory used by the classifier trainer.
std::unique_ptr<DensityModel> make_density(
    DensityKind kind, std::span<const double> data,
    stats::BandwidthRule rule = stats::BandwidthRule::kSilverman,
    double fixed_bandwidth = 0.0, std::size_t histogram_bins = 32);

}  // namespace linkpad::classify
