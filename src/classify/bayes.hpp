// Bayes decision rule over m payload-rate classes (paper eq. 1–2).
//
// classify(s) = argmax_i  P(ω_i) · f(s|ω_i), evaluated in log space.
// A decision needs only the argmax: classify() first compares per-class
// enclosures of the log scores (DensityModel::log_pdf_bounds) and runs the
// exact loop only when they cannot separate the winner. For the two-class
// case the decision threshold d of eq. (3)/Fig 2 — the feature value where
// the weighted densities cross — is recovered numerically for inspection
// and for the numeric Bayes-error integral.
#pragma once

#include <memory>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "classify/density_model.hpp"
#include "util/types.hpp"

namespace linkpad::classify {

/// Trained Bayes classifier: priors + one density model per class.
class BayesClassifier {
 public:
  /// Train from per-class feature samples. `priors` must sum to ~1 and
  /// match the number of classes; each class needs ≥ 2 training features.
  static BayesClassifier train(
      const std::vector<std::vector<double>>& class_features,
      std::vector<double> priors, DensityKind kind = DensityKind::kKde,
      stats::BandwidthRule rule = stats::BandwidthRule::kSilverman,
      double fixed_bandwidth = 0.0);

  // Deep-copyable (density models are cloned) so a trained detector bank
  // can be checkpointed; moves stay cheap.
  BayesClassifier(const BayesClassifier& other);
  BayesClassifier& operator=(const BayesClassifier& other);
  BayesClassifier(BayesClassifier&&) noexcept = default;
  BayesClassifier& operator=(BayesClassifier&&) noexcept = default;
  ~BayesClassifier() = default;

  /// Maximum-a-posteriori class of feature value s: the first class whose
  /// score log P(ω_i) + log_pdf_i(s) is largest. When one class's lower
  /// score bound beats every other class's upper bound, that class is the
  /// answer; otherwise the scores are computed exactly.
  [[nodiscard]] ClassLabel classify(double s) const;

  /// Posterior probabilities P(ω_i | s) (normalized).
  [[nodiscard]] std::vector<double> posteriors(double s) const;

  [[nodiscard]] std::size_t num_classes() const { return models_.size(); }
  [[nodiscard]] double prior(ClassLabel c) const { return priors_[c]; }
  [[nodiscard]] const DensityModel& density(ClassLabel c) const {
    return *models_[c];
  }

  /// Two-class only: the decision threshold d where
  /// P(ω_0)f(s|ω_0) = P(ω_1)f(s|ω_1) within the observed feature range,
  /// found by scanning + bisection. Empty if no single crossing exists
  /// (e.g. equal-mean Gaussians cross twice).
  [[nodiscard]] std::optional<double> decision_threshold() const;

 private:
  BayesClassifier() = default;

  /// The class whose score enclosure lies above every other class's, if
  /// there is one.
  [[nodiscard]] std::optional<ClassLabel> certified_label(double s) const;

  std::vector<double> priors_;
  std::vector<double> log_priors_;  // log(priors_[i]), computed once
  std::vector<std::unique_ptr<DensityModel>> models_;
  double feature_lo_ = 0.0;  // training feature range (for threshold scan)
  double feature_hi_ = 0.0;
};

}  // namespace linkpad::classify
