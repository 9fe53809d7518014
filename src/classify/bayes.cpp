#include "classify/bayes.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "util/check.hpp"

namespace linkpad::classify {

BayesClassifier BayesClassifier::train(
    const std::vector<std::vector<double>>& class_features,
    std::vector<double> priors, DensityKind kind, stats::BandwidthRule rule,
    double fixed_bandwidth) {
  LINKPAD_EXPECTS(class_features.size() >= 2);
  LINKPAD_EXPECTS(priors.size() == class_features.size());
  double prior_sum = 0.0;
  for (double p : priors) {
    LINKPAD_EXPECTS(p > 0.0);
    prior_sum += p;
  }
  LINKPAD_EXPECTS(std::abs(prior_sum - 1.0) < 1e-6);

  BayesClassifier clf;
  clf.priors_ = std::move(priors);
  for (const double p : clf.priors_) clf.log_priors_.push_back(std::log(p));
  clf.feature_lo_ = std::numeric_limits<double>::infinity();
  clf.feature_hi_ = -clf.feature_lo_;
  for (const auto& features : class_features) {
    LINKPAD_EXPECTS(features.size() >= 2);
    clf.models_.push_back(make_density(kind, features, rule, fixed_bandwidth));
    const auto [mn, mx] = std::minmax_element(features.begin(), features.end());
    clf.feature_lo_ = std::min(clf.feature_lo_, *mn);
    clf.feature_hi_ = std::max(clf.feature_hi_, *mx);
  }
  return clf;
}

BayesClassifier::BayesClassifier(const BayesClassifier& other)
    : priors_(other.priors_),
      log_priors_(other.log_priors_),
      feature_lo_(other.feature_lo_),
      feature_hi_(other.feature_hi_) {
  models_.reserve(other.models_.size());
  for (const auto& model : other.models_) models_.push_back(model->clone());
}

BayesClassifier& BayesClassifier::operator=(const BayesClassifier& other) {
  if (this == &other) return *this;
  BayesClassifier copy(other);
  *this = std::move(copy);
  return *this;
}

std::optional<ClassLabel> BayesClassifier::certified_label(double s) const {
  // Rounding is monotone, so lo_i ≤ the exact loop's score_i ≤ hi_i holds
  // for the rounded sums too, and lo_i > hi_j for every j ≠ i makes class
  // i the loop's unique maximum. Only the class with the largest lower
  // bound can qualify; it is checked against the largest upper bound of
  // the others.
  std::size_t best = 0;
  std::size_t top = 0;
  double best_lo = 0.0;
  double top_hi = -std::numeric_limits<double>::infinity();
  double runner_up_hi = top_hi;
  for (std::size_t i = 0; i < models_.size(); ++i) {
    const auto bounds = models_[i]->log_pdf_bounds(s);
    const double lo = log_priors_[i] + bounds.lo;
    const double hi = log_priors_[i] + bounds.hi;
    if (!(lo <= hi)) return std::nullopt;  // NaN
    if (i == 0 || lo > best_lo) {
      best = i;
      best_lo = lo;
    }
    if (i == 0 || hi > top_hi) {
      runner_up_hi = top_hi;
      top = i;
      top_hi = hi;
    } else if (hi > runner_up_hi) {
      runner_up_hi = hi;
    }
  }
  const double rival_hi = top == best ? runner_up_hi : top_hi;
  if (best_lo > rival_hi) return static_cast<ClassLabel>(best);
  return std::nullopt;
}

ClassLabel BayesClassifier::classify(double s) const {
  if (const auto label = certified_label(s)) return *label;
  ClassLabel best = 0;
  double best_score = -std::numeric_limits<double>::infinity();
  for (std::size_t i = 0; i < models_.size(); ++i) {
    const double score = log_priors_[i] + models_[i]->log_pdf(s);
    if (score > best_score) {
      best_score = score;
      best = static_cast<ClassLabel>(i);
    }
  }
  return best;
}

std::vector<double> BayesClassifier::posteriors(double s) const {
  std::vector<double> scores(models_.size());
  double max_score = -std::numeric_limits<double>::infinity();
  for (std::size_t i = 0; i < models_.size(); ++i) {
    scores[i] = std::log(priors_[i]) + models_[i]->log_pdf(s);
    max_score = std::max(max_score, scores[i]);
  }
  double total = 0.0;
  for (double& sc : scores) {
    sc = std::exp(sc - max_score);  // log-sum-exp stabilization
    total += sc;
  }
  for (double& sc : scores) sc /= total;
  return scores;
}

std::optional<double> BayesClassifier::decision_threshold() const {
  if (models_.size() != 2) return std::nullopt;
  const double lo = feature_lo_;
  const double hi = feature_hi_;
  if (!(hi > lo)) return std::nullopt;

  auto diff = [this](double s) {
    return (std::log(priors_[0]) + models_[0]->log_pdf(s)) -
           (std::log(priors_[1]) + models_[1]->log_pdf(s));
  };

  // Scan for sign changes; accept only a unique crossing.
  constexpr int kGrid = 512;
  std::optional<double> bracket_lo;
  int crossings = 0;
  double prev_s = lo;
  double prev_v = diff(lo);
  for (int i = 1; i <= kGrid; ++i) {
    const double s = lo + (hi - lo) * i / kGrid;
    const double v = diff(s);
    if (std::isfinite(prev_v) && std::isfinite(v) &&
        ((prev_v < 0.0) != (v < 0.0))) {
      ++crossings;
      if (crossings == 1) bracket_lo = prev_s;
    }
    prev_s = s;
    prev_v = v;
  }
  if (crossings != 1 || !bracket_lo) return std::nullopt;

  // Bisection inside the bracketing cell.
  double a = *bracket_lo;
  double b = a + (hi - lo) / kGrid;
  double fa = diff(a);
  for (int iter = 0; iter < 80; ++iter) {
    const double m = 0.5 * (a + b);
    const double fm = diff(m);
    if ((fa < 0.0) == (fm < 0.0)) {
      a = m;
      fa = fm;
    } else {
      b = m;
    }
  }
  return 0.5 * (a + b);
}

}  // namespace linkpad::classify
