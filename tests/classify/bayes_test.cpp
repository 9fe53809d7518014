#include "classify/bayes.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <limits>
#include <string>
#include <vector>

#include "stats/distributions.hpp"
#include "util/check.hpp"
#include "util/rng.hpp"

namespace linkpad::classify {
namespace {

std::vector<double> normal_sample(double mu, double sigma, int n,
                                  std::uint64_t seed) {
  util::Xoshiro256pp rng(seed);
  stats::Normal dist(mu, sigma);
  std::vector<double> xs(n);
  for (auto& x : xs) x = dist.sample(rng);
  return xs;
}

TEST(BayesClassifier, SeparableClassesClassifyPerfectly) {
  const auto a = normal_sample(0.0, 0.5, 2000, 1);
  const auto b = normal_sample(100.0, 0.5, 2000, 2);
  auto clf = BayesClassifier::train({a, b}, {0.5, 0.5});
  EXPECT_EQ(clf.classify(0.0), 0);
  EXPECT_EQ(clf.classify(100.0), 1);
  EXPECT_EQ(clf.classify(-3.0), 0);
  EXPECT_EQ(clf.classify(103.0), 1);
}

TEST(BayesClassifier, MidpointThresholdForSymmetricClasses) {
  const auto a = normal_sample(0.0, 1.0, 5000, 3);
  const auto b = normal_sample(4.0, 1.0, 5000, 4);
  auto clf = BayesClassifier::train({a, b}, {0.5, 0.5});
  const auto d = clf.decision_threshold();
  ASSERT_TRUE(d.has_value());
  EXPECT_NEAR(*d, 2.0, 0.25);
}

TEST(BayesClassifier, PriorsShiftTheDecision) {
  const auto a = normal_sample(0.0, 1.0, 5000, 5);
  const auto b = normal_sample(2.0, 1.0, 5000, 6);
  auto equal = BayesClassifier::train({a, b}, {0.5, 0.5});
  auto skewed = BayesClassifier::train({a, b}, {0.95, 0.05});
  // At the midpoint, the skewed prior must favour class 0.
  EXPECT_EQ(skewed.classify(1.0), 0);
  const auto d_eq = equal.decision_threshold();
  const auto d_sk = skewed.decision_threshold();
  ASSERT_TRUE(d_eq && d_sk);
  EXPECT_GT(*d_sk, *d_eq);
}

TEST(BayesClassifier, PosteriorsSumToOne) {
  const auto a = normal_sample(0.0, 1.0, 1000, 7);
  const auto b = normal_sample(3.0, 1.0, 1000, 8);
  const auto c = normal_sample(6.0, 1.0, 1000, 9);
  auto clf = BayesClassifier::train({a, b, c},
                                    {1.0 / 3.0, 1.0 / 3.0, 1.0 / 3.0});
  for (double s : {-1.0, 1.5, 4.5, 8.0}) {
    const auto post = clf.posteriors(s);
    double total = 0.0;
    for (double p : post) total += p;
    EXPECT_NEAR(total, 1.0, 1e-9);
  }
}

TEST(BayesClassifier, PosteriorPeaksAtOwnClassMean) {
  const auto a = normal_sample(0.0, 1.0, 2000, 10);
  const auto b = normal_sample(5.0, 1.0, 2000, 11);
  auto clf = BayesClassifier::train({a, b}, {0.5, 0.5});
  EXPECT_GT(clf.posteriors(0.0)[0], 0.9);
  EXPECT_GT(clf.posteriors(5.0)[1], 0.9);
}

TEST(BayesClassifier, GaussianModelMatchesKdeOnGaussians) {
  const auto a = normal_sample(0.0, 1.0, 4000, 12);
  const auto b = normal_sample(2.5, 1.0, 4000, 13);
  auto kde = BayesClassifier::train({a, b}, {0.5, 0.5}, DensityKind::kKde);
  auto gauss =
      BayesClassifier::train({a, b}, {0.5, 0.5}, DensityKind::kGaussian);
  int agreements = 0;
  const int probes = 200;
  for (int i = 0; i < probes; ++i) {
    const double s = -3.0 + 8.5 * i / probes;
    if (kde.classify(s) == gauss.classify(s)) ++agreements;
  }
  EXPECT_GE(agreements, probes * 95 / 100);
}

TEST(BayesClassifier, EqualMeanDifferentVarianceHasNoSingleThreshold) {
  // The Fig 2 situation for sample-mean features: densities cross twice.
  const auto a = normal_sample(0.0, 1.0, 5000, 14);
  const auto b = normal_sample(0.0, 3.0, 5000, 15);
  auto clf = BayesClassifier::train({a, b}, {0.5, 0.5},
                                    DensityKind::kGaussian);
  EXPECT_FALSE(clf.decision_threshold().has_value());
  // Center belongs to the narrow class, tails to the wide one.
  EXPECT_EQ(clf.classify(0.0), 0);
  EXPECT_EQ(clf.classify(6.0), 1);
  EXPECT_EQ(clf.classify(-6.0), 1);
}

TEST(BayesClassifier, TrainingValidatesInputs) {
  const auto a = normal_sample(0.0, 1.0, 100, 16);
  EXPECT_THROW(BayesClassifier::train({a}, {1.0}), linkpad::ContractViolation);
  EXPECT_THROW(BayesClassifier::train({a, a}, {0.7, 0.7}),
               linkpad::ContractViolation);
  const std::vector<double> tiny = {1.0};
  EXPECT_THROW(BayesClassifier::train({a, tiny}, {0.5, 0.5}),
               linkpad::ContractViolation);
}

TEST(BayesClassifier, ThreeClassClassification) {
  const auto a = normal_sample(0.0, 0.8, 3000, 17);
  const auto b = normal_sample(4.0, 0.8, 3000, 18);
  const auto c = normal_sample(8.0, 0.8, 3000, 19);
  auto clf = BayesClassifier::train({a, b, c},
                                    {1.0 / 3.0, 1.0 / 3.0, 1.0 / 3.0});
  EXPECT_EQ(clf.classify(0.0), 0);
  EXPECT_EQ(clf.classify(4.0), 1);
  EXPECT_EQ(clf.classify(8.0), 2);
  EXPECT_EQ(clf.num_classes(), 3u);
}

/// The exact decision loop classify() ran before it compared enclosures:
/// the first class with the largest log P(ω_i) + log f(s|ω_i).
ClassLabel reference_label(const BayesClassifier& clf, double s) {
  ClassLabel best = 0;
  double best_score = -std::numeric_limits<double>::infinity();
  for (std::size_t i = 0; i < clf.num_classes(); ++i) {
    const double score = std::log(clf.prior(static_cast<ClassLabel>(i))) +
                         clf.density(static_cast<ClassLabel>(i)).log_pdf(s);
    if (score > best_score) {
      best_score = score;
      best = static_cast<ClassLabel>(i);
    }
  }
  return best;
}

TEST(BayesClassifier, CertifiedDecisionsMatchExactReference) {
  // 2,000 two-class KDE pairs and 200 three-class sets: training sizes
  // 2–2,000, feature scales 1e-12–1e3, unequal priors, every bandwidth
  // rule. Queries cover both classes' mass, the far field (empty kernel
  // windows), NaN and ±inf, and constructed exact ties: identical samples
  // (every query ties) and mirrored samples queried at the mirror point.
  // Copies must decide like the original (the copy constructor carries
  // every member classify() reads).
  util::Xoshiro256pp rng(2003);
  constexpr double kInf = std::numeric_limits<double>::infinity();
  const stats::BandwidthRule rules[] = {stats::BandwidthRule::kSilverman,
                                        stats::BandwidthRule::kScott,
                                        stats::BandwidthRule::kFixed};
  std::size_t decisions = 0;
  std::size_t exact_ties = 0;
  std::size_t lane_bounds = 0;
  std::size_t mismatches = 0;
  std::string first_mismatch;
  for (std::size_t set = 0; set < 2200; ++set) {
    const std::size_t classes = set < 2000 ? 2 : 3;
    const std::size_t kind = set % 10;  // 0: identical, 1: mirrored
    const double scale = std::pow(10.0, rng.uniform(-12.0, 3.0));
    const double center =
        kind == 1 ? 0.0 : scale * std::pow(10.0, rng.uniform(-1.0, 6.0));
    std::vector<std::vector<double>> samples(classes);
    std::vector<double> means(classes);
    std::vector<double> spreads(classes);
    for (std::size_t c = 0; c < classes; ++c) {
      means[c] = center + scale * rng.uniform(-2.0, 2.0);
      spreads[c] = scale * rng.uniform(0.3, 1.5);
      const auto n = static_cast<std::size_t>(
          std::exp(rng.uniform(std::log(2.0), std::log(2000.5))));
      if (c > 0 && kind == 0) {
        samples[c] = samples[0];
        means[c] = means[0];
        spreads[c] = spreads[0];
      } else if (c > 0 && kind == 1) {
        for (const double x : samples[0]) samples[c].push_back(-x);
        means[c] = -means[0];
        spreads[c] = spreads[0];
      } else {
        samples[c].resize(n);
        for (auto& x : samples[c]) {
          x = means[c] + spreads[c] * stats::sample_standard_normal(rng);
        }
      }
    }
    std::vector<double> priors(classes, 1.0 / static_cast<double>(classes));
    if (kind > 1) {
      double total = 0.0;
      for (auto& p : priors) total += (p = rng.uniform(0.1, 1.0));
      for (auto& p : priors) p /= total;
    }
    const auto clf = BayesClassifier::train(
        samples, priors, DensityKind::kKde, rules[set % 3],
        scale * rng.uniform(0.05, 1.0));
    const BayesClassifier copy(clf);
    auto assigned = BayesClassifier::train({{0.0, 1.0}, {2.0, 3.0}},
                                           {0.5, 0.5});
    assigned = clf;

    const auto check = [&](double s) {
      ++decisions;
      const ClassLabel want = reference_label(clf, s);
      double top = -kInf;
      std::size_t at_top = 0;
      for (std::size_t i = 0; i < classes; ++i) {
        const auto c = static_cast<ClassLabel>(i);
        const double score = std::log(clf.prior(c)) + clf.density(c).log_pdf(s);
        if (score > top) {
          top = score;
          at_top = 1;
        } else if (score == top) {
          ++at_top;
        }
        const auto bounds = clf.density(c).log_pdf_bounds(s);
        if (bounds.lo < bounds.hi) ++lane_bounds;
      }
      if (at_top > 1 && top > -kInf) ++exact_ties;
      const ClassLabel got[] = {clf.classify(s), copy.classify(s),
                                assigned.classify(s)};
      for (const ClassLabel g : got) {
        if (g != want && mismatches++ == 0) {
          char buf[160];
          std::snprintf(buf, sizeof buf, "set %zu: s = %a, got %d, want %d",
                        set, s, static_cast<int>(g), static_cast<int>(want));
          first_mismatch = buf;
        }
      }
    };

    for (int q = 0; q < 24; ++q) {
      const std::size_t c = rng() % classes;
      check(means[c] + 1.3 * spreads[c] * stats::sample_standard_normal(rng));
    }
    for (const double t : {0.25, 0.5, 0.75}) {
      check(means[0] + t * (means[1] - means[0]));
    }
    if (kind == 1) check(0.0);  // the mirror point
    check(center + 1e4 * scale);
    check(center - 1e4 * scale);
    check(std::numeric_limits<double>::quiet_NaN());
    check(kInf);
    check(-kInf);
  }
  EXPECT_EQ(mismatches, 0u) << first_mismatch;
  EXPECT_GT(exact_ties, 1000u);
  if (stats::kde_sums_in_lanes()) EXPECT_GT(lane_bounds, decisions);
}

}  // namespace
}  // namespace linkpad::classify
