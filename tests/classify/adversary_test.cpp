// End-to-end adversary tests on SYNTHETIC PIAT streams drawn directly from
// the paper's model X ~ N(µ, σ²): the classification machinery must
// reproduce the theory without any simulator in the loop.
#include "classify/adversary.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "analysis/theory.hpp"
#include "stats/distributions.hpp"
#include "util/check.hpp"
#include "util/rng.hpp"

namespace linkpad::classify {
namespace {

std::vector<double> synthetic_piats(double mu, double sigma, std::size_t n,
                                    std::uint64_t seed) {
  util::Xoshiro256pp rng(seed);
  stats::Normal dist(mu, sigma);
  std::vector<double> xs(n);
  for (auto& x : xs) x = dist.sample(rng);
  return xs;
}

// Same-mean streams with variance ratio r: the paper's eq. (12)/(14).
struct TwoClassStreams {
  std::vector<std::vector<double>> train;
  std::vector<std::vector<double>> test;
};

TwoClassStreams make_streams(double r, std::size_t piats, std::uint64_t seed) {
  const double mu = 10e-3;
  const double sigma_l = 10e-6;
  const double sigma_h = sigma_l * std::sqrt(r);
  TwoClassStreams s;
  s.train = {synthetic_piats(mu, sigma_l, piats, seed),
             synthetic_piats(mu, sigma_h, piats, seed + 1)};
  s.test = {synthetic_piats(mu, sigma_l, piats, seed + 2),
            synthetic_piats(mu, sigma_h, piats, seed + 3)};
  return s;
}

TEST(Adversary, WindowsOfChopsDisjointWindows) {
  std::vector<double> stream(10);
  for (std::size_t i = 0; i < 10; ++i) stream[i] = static_cast<double>(i);
  const auto windows = Adversary::windows_of(stream, 3);
  ASSERT_EQ(windows.size(), 3u);
  EXPECT_DOUBLE_EQ(windows[0][0], 0.0);
  EXPECT_DOUBLE_EQ(windows[1][0], 3.0);
  EXPECT_DOUBLE_EQ(windows[2][2], 8.0);
}

TEST(Adversary, VarianceFeatureDetectsVarianceRatio) {
  // r = 2 at n = 200: Theorem 2 predicts a high detection rate.
  const auto s = make_streams(2.0, 200 * 150, 1);
  AdversaryConfig cfg;
  cfg.feature = FeatureKind::kSampleVariance;
  cfg.window_size = 200;
  Adversary adv(cfg);
  adv.train(s.train);
  const double v = adv.detection_rate(s.test);
  const double predicted = analysis::detection_rate_variance(2.0, 200.0);
  EXPECT_GT(v, 0.85);
  EXPECT_NEAR(v, predicted, 0.08);
}

TEST(Adversary, EntropyFeatureDetectsVarianceRatio) {
  const auto s = make_streams(2.0, 200 * 150, 2);
  AdversaryConfig cfg;
  cfg.feature = FeatureKind::kSampleEntropy;
  cfg.window_size = 200;
  Adversary adv(cfg);
  adv.train(s.train);
  EXPECT_GT(adv.detection_rate(s.test), 0.8);
}

TEST(Adversary, MeanFeatureIsBlindToEqualMeans) {
  const auto s = make_streams(2.0, 200 * 150, 3);
  AdversaryConfig cfg;
  cfg.feature = FeatureKind::kSampleMean;
  cfg.window_size = 200;
  Adversary adv(cfg);
  adv.train(s.train);
  EXPECT_NEAR(adv.detection_rate(s.test), 0.55, 0.12);
}

TEST(Adversary, NoRatioMeansCoinFlip) {
  const auto s = make_streams(1.0, 200 * 100, 4);
  for (auto feature : {FeatureKind::kSampleVariance,
                       FeatureKind::kSampleEntropy}) {
    AdversaryConfig cfg;
    cfg.feature = feature;
    cfg.window_size = 200;
    Adversary adv(cfg);
    adv.train(s.train);
    EXPECT_NEAR(adv.detection_rate(s.test), 0.5, 0.1)
        << feature_name(feature);
  }
}

TEST(Adversary, DetectionImprovesWithWindowSize) {
  double prev = 0.0;
  for (std::size_t n : {50u, 200u, 800u}) {
    const auto s = make_streams(1.6, n * 120, 5);
    AdversaryConfig cfg;
    cfg.feature = FeatureKind::kSampleVariance;
    cfg.window_size = n;
    Adversary adv(cfg);
    adv.train(s.train);
    const double v = adv.detection_rate(s.test);
    EXPECT_GE(v, prev - 0.05) << n;  // monotone up to Monte-Carlo noise
    prev = v;
  }
  EXPECT_GT(prev, 0.9);
}

TEST(Adversary, AutoBinWidthIsSelectedOnce) {
  const auto s = make_streams(2.0, 200 * 60, 6);
  AdversaryConfig cfg;
  cfg.feature = FeatureKind::kSampleEntropy;
  cfg.window_size = 200;
  Adversary adv(cfg);
  EXPECT_DOUBLE_EQ(adv.entropy_bin_width(), 0.0);
  adv.train(s.train);
  EXPECT_GT(adv.entropy_bin_width(), 0.0);
}

TEST(Adversary, ExplicitBinWidthIsRespected) {
  const auto s = make_streams(2.0, 200 * 60, 7);
  AdversaryConfig cfg;
  cfg.feature = FeatureKind::kSampleEntropy;
  cfg.window_size = 200;
  cfg.entropy_bin_width = 2e-6;
  Adversary adv(cfg);
  adv.train(s.train);
  EXPECT_DOUBLE_EQ(adv.entropy_bin_width(), 2e-6);
}

TEST(Adversary, ClassifyWindowUsesLeadingWindow) {
  const auto s = make_streams(4.0, 200 * 100, 8);
  AdversaryConfig cfg;
  cfg.feature = FeatureKind::kSampleVariance;
  cfg.window_size = 200;
  Adversary adv(cfg);
  adv.train(s.train);
  // A fresh low-variance window should classify as class 0 most of the time.
  int correct = 0;
  for (int i = 0; i < 50; ++i) {
    const auto w = synthetic_piats(10e-3, 10e-6, 200, 1000 + i);
    if (adv.classify_window(w) == 0) ++correct;
  }
  EXPECT_GE(correct, 40);
}

TEST(Adversary, MultiClassConfusionMatrixShape) {
  // Four variance levels — the paper's Sec 6 multi-rate extension.
  const double mu = 10e-3;
  std::vector<std::vector<double>> train, test;
  for (int c = 0; c < 4; ++c) {
    const double sigma = 10e-6 * std::pow(1.8, c);
    train.push_back(synthetic_piats(mu, sigma, 200 * 80, 100 + c));
    test.push_back(synthetic_piats(mu, sigma, 200 * 80, 200 + c));
  }
  AdversaryConfig cfg;
  cfg.feature = FeatureKind::kSampleVariance;
  cfg.window_size = 200;
  Adversary adv(cfg);
  adv.train(train);
  const auto cm = adv.evaluate(test);
  EXPECT_EQ(cm.num_classes(), 4u);
  EXPECT_GT(cm.detection_rate(), 0.5);  // far above 4-way chance (0.25)
  // Extreme classes are easiest: their rates should beat the middle ones.
  EXPECT_GT(cm.per_class_rate(0), 0.6);
  EXPECT_GT(cm.per_class_rate(3), 0.6);
}

TEST(Adversary, UntrainedUseViolatesContract) {
  AdversaryConfig cfg;
  cfg.window_size = 100;
  Adversary adv(cfg);
  const std::vector<double> w(100, 0.01);
  EXPECT_THROW((void)adv.classify_window(w), linkpad::ContractViolation);
  EXPECT_THROW((void)adv.classifier(), linkpad::ContractViolation);
}

TEST(Adversary, TrainingFeatureCountsMatchWindows) {
  const auto s = make_streams(2.0, 200 * 50, 9);
  AdversaryConfig cfg;
  cfg.feature = FeatureKind::kSampleVariance;
  cfg.window_size = 200;
  Adversary adv(cfg);
  adv.train(s.train);
  ASSERT_EQ(adv.training_features().size(), 2u);
  EXPECT_EQ(adv.training_features()[0].size(), 50u);
}

}  // namespace
}  // namespace linkpad::classify
