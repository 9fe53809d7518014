#include "core/experiment.hpp"

#include <gtest/gtest.h>

#include <array>
#include <bit>
#include <cstdint>
#include <stdexcept>
#include <string>

#include "util/check.hpp"

namespace linkpad::core {
namespace {

ExperimentSpec quick_spec(classify::FeatureKind feature, std::size_t n = 400) {
  ExperimentSpec spec;
  spec.scenario = lab_zero_cross(make_cit());
  spec.plan.adversary.feature = feature;
  spec.plan.adversary.window_size = n;
  spec.plan.train_windows = 60;
  spec.plan.test_windows = 60;
  spec.seed = 1;
  return spec;
}

TEST(Experiment, CitLeaksThroughVarianceFeature) {
  const auto r = ExperimentEngine().run(
      quick_spec(classify::FeatureKind::kSampleVariance));
  EXPECT_GT(r.primary().detection_rate, 0.75);
  EXPECT_GT(r.top().r_hat, 1.15);
  ASSERT_TRUE(r.primary().predicted.has_value());
  EXPECT_NEAR(r.primary().detection_rate, *r.primary().predicted, 0.12);
}

TEST(Experiment, CitLeaksThroughEntropyFeature) {
  const auto r = ExperimentEngine().run(
      quick_spec(classify::FeatureKind::kSampleEntropy));
  EXPECT_GT(r.primary().detection_rate, 0.72);
}

TEST(Experiment, MeanFeatureStaysNearChance) {
  const auto r = ExperimentEngine().run(
      quick_spec(classify::FeatureKind::kSampleMean));
  EXPECT_LT(r.primary().detection_rate, 0.65);
}

TEST(Experiment, VitShutsTheLeakDown) {
  auto spec = quick_spec(classify::FeatureKind::kSampleVariance);
  spec.scenario = lab_zero_cross(make_vit(100e-6));
  const auto r = ExperimentEngine().run(spec);
  EXPECT_LT(r.primary().detection_rate, 0.62);
  EXPECT_LT(r.top().r_hat, 1.05);
}

TEST(Experiment, PiatMeansEqualAcrossRates) {
  const auto r = ExperimentEngine().run(
      quick_spec(classify::FeatureKind::kSampleVariance));
  // Paper Sec 4.2 assumption: same mean at both rates.
  EXPECT_NEAR(r.piat_mean_low, r.piat_mean_high,
              0.002 * r.piat_mean_low);
  EXPECT_NEAR(r.piat_mean_low, 10e-3, 1e-4);
  // And the variance order that drives everything: sigma_h^2 > sigma_l^2.
  EXPECT_GT(r.piat_var_high, r.piat_var_low);
}

TEST(Experiment, ConfidenceIntervalBracketsEstimate) {
  const auto r = ExperimentEngine().run(
      quick_spec(classify::FeatureKind::kSampleVariance));
  EXPECT_LE(r.primary().ci.lo, r.primary().detection_rate + 1e-12);
  EXPECT_GE(r.primary().ci.hi, r.primary().detection_rate - 1e-12);
  EXPECT_GT(r.primary().ci.hi - r.primary().ci.lo, 0.0);
}

TEST(Experiment, DeterministicForSameSeed) {
  const auto a = ExperimentEngine().run(
      quick_spec(classify::FeatureKind::kSampleEntropy));
  const auto b = ExperimentEngine().run(
      quick_spec(classify::FeatureKind::kSampleEntropy));
  EXPECT_DOUBLE_EQ(a.primary().detection_rate, b.primary().detection_rate);
  EXPECT_DOUBLE_EQ(a.top().r_hat, b.top().r_hat);
}

TEST(Experiment, SeedChangesResultsSlightly) {
  auto spec_a = quick_spec(classify::FeatureKind::kSampleVariance);
  auto spec_b = spec_a;
  spec_b.seed = 2;
  const auto a = ExperimentEngine().run(spec_a);
  const auto b = ExperimentEngine().run(spec_b);
  EXPECT_NE(a.top().r_hat, b.top().r_hat);  // different noise realization
  EXPECT_NEAR(a.primary().detection_rate, b.primary().detection_rate,
              0.15);  // same physics
}

TEST(Experiment, SweepPreservesOrderAndMatchesSingleRuns) {
  std::vector<ExperimentSpec> specs = {
      quick_spec(classify::FeatureKind::kSampleMean),
      quick_spec(classify::FeatureKind::kSampleVariance),
  };
  const auto sweep = SweepRunner().run(specs);
  ASSERT_EQ(sweep.size(), 2u);
  EXPECT_DOUBLE_EQ(sweep[0].primary().detection_rate,
                   ExperimentEngine().run(specs[0]).primary().detection_rate);
  EXPECT_DOUBLE_EQ(sweep[1].primary().detection_rate,
                   ExperimentEngine().run(specs[1]).primary().detection_rate);
}

TEST(Experiment, MultiRateScenarioProducesBiggerConfusionMatrix) {
  ExperimentSpec spec;
  spec.scenario = lab_multirate(make_cit(), 3);
  spec.plan.adversary.feature = classify::FeatureKind::kSampleVariance;
  spec.plan.adversary.window_size = 400;
  spec.plan.train_windows = 40;
  spec.plan.test_windows = 40;
  const auto r = ExperimentEngine().run(spec);
  EXPECT_EQ(r.primary().confusion.num_classes(), 3u);
  EXPECT_GT(r.primary().detection_rate, 1.0 / 3.0);  // above 3-way chance
  EXPECT_FALSE(r.primary().predicted.has_value());  // no closed form for 3
}

TEST(Experiment, GenerateClassStreamIsDeterministic) {
  const auto spec = quick_spec(classify::FeatureKind::kSampleVariance);
  EXPECT_EQ(ExperimentEngine().class_stream(spec, 0, 500, 1),
            ExperimentEngine().class_stream(spec, 0, 500, 1));
  EXPECT_NE(ExperimentEngine().class_stream(spec, 0, 500, 1),
            ExperimentEngine().class_stream(spec, 1, 500, 1));
}

TEST(Experiment, InvalidSpecRejected) {
  auto spec = quick_spec(classify::FeatureKind::kSampleVariance);
  spec.plan.train_windows = 1;
  EXPECT_THROW(ExperimentEngine().run(spec), linkpad::ContractViolation);
}

TEST(Experiment, CaptureSizesPastTheRunBoundAreRefusedByName) {
  // 2^30 windows of 2^30 PIATs: refused before anything is allocated, with
  // both factors named.
  auto spec = quick_spec(classify::FeatureKind::kSampleVariance);
  spec.plan.adversary.window_size = std::size_t{1} << 30;
  spec.plan.train_windows = std::size_t{1} << 30;
  try {
    (void)ExperimentEngine().run(spec);
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& error) {
    const std::string message = error.what();
    EXPECT_NE(message.find("train_windows"), std::string::npos) << message;
    EXPECT_NE(message.find("window size n"), std::string::npos) << message;
    EXPECT_NE(message.find("1073741824 x 1073741824"), std::string::npos)
        << message;
  }
  // A product that wraps 64 bits is refused the same way.
  spec = quick_spec(classify::FeatureKind::kSampleVariance);
  spec.plan.test_windows = std::size_t{1} << 60;
  EXPECT_THROW((void)ExperimentEngine().run(spec), std::invalid_argument);
}

// ------------------------------------------------------ one detector list

classify::DetectorSpec cpd_entry(classify::CpdKind kind, double far,
                                 std::size_t horizon, std::size_t trials) {
  classify::DetectorSpec detector;
  detector.cpd.emplace();
  detector.cpd->kind = kind;
  detector.cpd->target_far = far;
  detector.cpd->horizon = horizon;
  detector.cpd->trials = trials;
  return detector;
}

std::array<std::uint64_t, 4> counts(const classify::ConfusionMatrix& cm) {
  return {cm.count(0, 0), cm.count(0, 1), cm.count(1, 0), cm.count(1, 1)};
}

std::uint64_t bits(double x) { return std::bit_cast<std::uint64_t>(x); }

// Three features on a three-point axis, two calibrated change-point
// detectors, then an EDF and a further CUSUM. The literals are the bits
// the engine gave when the CPDs rode a separate every-bank list (seeds
// 3 + j) and the EDF and CUSUM a top-bank list after them (seeds
// 3 + 2 + j): listing the CPDs first in the one list keeps every seed.
TEST(DetectorList, MixedRoutesKeepTheirBits) {
  ExperimentSpec spec;
  spec.scenario = lab_zero_cross(make_cit());
  spec.plan.set_features({classify::FeatureKind::kSampleVariance,
                          classify::FeatureKind::kSampleMean,
                          classify::FeatureKind::kSampleEntropy});
  spec.sample_size_axis = {25, 50, 100};
  spec.plan.adversary.window_size = 100;
  spec.plan.train_windows = 20;
  spec.plan.test_windows = 20;
  spec.seed = 20030324;
  classify::DetectorSpec edf;
  edf.adversary.window_size = 50;
  edf.edf = classify::EdfDistance::kKolmogorovSmirnov;
  spec.plan.detectors = {
      cpd_entry(classify::CpdKind::kCusum, 0.05, 400, 40),
      cpd_entry(classify::CpdKind::kAdaptiveEwma, 0.05, 400, 40), edf,
      cpd_entry(classify::CpdKind::kCusum, 0.1, 300, 30)};
  const ExperimentResult r = ExperimentEngine().run(spec);

  struct Feature {
    std::uint64_t rate;
    std::array<std::uint64_t, 4> counts;
  };
  // [point][feature]: variance, mean, entropy at n = 25, 50, 100.
  const Feature want[3][3] = {
      {{0x3fe399999999999aULL, {50, 30, 32, 48}},
       {0x3fe1cccccccccccdULL, {65, 15, 56, 24}},
       {0x3fe3333333333333ULL, {46, 34, 30, 50}}},
      {{0x3fe599999999999aULL, {23, 17, 9, 31}},
       {0x3fe0666666666666ULL, {28, 12, 27, 13}},
       {0x3fe599999999999aULL, {31, 9, 17, 23}}},
      {{0x3fe8000000000000ULL, {14, 6, 4, 16}},
       {0x3fe3333333333333ULL, {15, 5, 11, 9}},
       {0x3fe8000000000000ULL, {12, 8, 2, 18}}}};
  ASSERT_EQ(r.by_sample_size.size(), 3u);
  for (std::size_t i = 0; i < 3; ++i) {
    ASSERT_EQ(r.by_sample_size[i].per_feature.size(), 3u);
    for (std::size_t f = 0; f < 3; ++f) {
      const FeatureOutcome& got = r.by_sample_size[i].per_feature[f];
      EXPECT_EQ(bits(got.detection_rate), want[i][f].rate) << i << "," << f;
      EXPECT_EQ(counts(got.confusion), want[i][f].counts) << i << "," << f;
    }
  }

  ASSERT_EQ(r.detectors.size(), 4u);
  for (const std::size_t j : {0u, 1u, 3u}) {
    ASSERT_TRUE(r.detectors[j].cpd.has_value()) << j;
  }
  const classify::CpdOutcome& cusum = *r.detectors[0].cpd;
  EXPECT_EQ(cusum.kind, classify::CpdKind::kCusum);
  EXPECT_EQ(bits(cusum.threshold), 0x401237e27cb8ad7eULL);
  EXPECT_TRUE(cusum.ttd.detected);
  EXPECT_EQ(cusum.ttd.n_at_detection, 671u);
  EXPECT_EQ(cusum.ttd.false_alarms, 2u);
  const classify::CpdOutcome& ewma = *r.detectors[1].cpd;
  EXPECT_EQ(ewma.kind, classify::CpdKind::kAdaptiveEwma);
  EXPECT_EQ(bits(ewma.threshold), 0x0000000000000000ULL);
  EXPECT_FALSE(ewma.ttd.detected);
  EXPECT_EQ(ewma.ttd.n_at_detection, 0u);
  EXPECT_EQ(ewma.ttd.false_alarms, 0u);

  EXPECT_EQ(r.detectors[2].name, "EDF nearest (KS)");
  EXPECT_FALSE(r.detectors[2].cpd.has_value());
  EXPECT_EQ(counts(r.detectors[2].confusion),
            (std::array<std::uint64_t, 4>{26, 14, 12, 28}));
  EXPECT_EQ(bits(r.detectors[2].attack_score), 0x3fe599999999999aULL);

  const classify::CpdOutcome& late = *r.detectors[3].cpd;
  EXPECT_EQ(bits(late.threshold), 0x4009c8906898d4a4ULL);
  EXPECT_TRUE(late.ttd.detected);
  EXPECT_EQ(late.ttd.n_at_detection, 183u);
  EXPECT_EQ(late.ttd.false_alarms, 6u);
  EXPECT_EQ(bits(r.detectors[3].attack_score), 0x3ff0000000000000ULL);
}

// Entry j of the list calibrates at derive_point_seed(seed, 3 + j): the
// engine's CUSUM at position 2 is a bank run of the same captures with
// that seed, and not one with position 0's.
TEST(DetectorList, CalibrationSeedFollowsListPosition) {
  ExperimentSpec spec = quick_spec(classify::FeatureKind::kSampleVariance, 50);
  spec.plan.train_windows = 20;
  spec.plan.test_windows = 20;
  classify::DetectorSpec edf;
  edf.adversary.window_size = 50;
  edf.edf = classify::EdfDistance::kKolmogorovSmirnov;
  classify::DetectorSpec cvm = edf;
  cvm.edf = classify::EdfDistance::kCramerVonMises;
  const classify::DetectorSpec cusum =
      cpd_entry(classify::CpdKind::kCusum, 0.05, 400, 40);
  spec.plan.detectors = {edf, cvm, cusum};
  const ExperimentEngine engine;
  const ExperimentResult result = engine.run(spec);
  ASSERT_EQ(result.detectors.size(), 3u);
  ASSERT_TRUE(result.detectors[2].cpd.has_value());

  const std::size_t piats = 20 * 50;
  auto bank_outcome = [&](std::uint64_t point) {
    classify::DetectorSpec seeded = cusum;
    seeded.cpd->calibration_seed = derive_point_seed(spec.seed, point);
    classify::DetectorBank bank({seeded}, 2);
    for (std::size_t c = 0; c < 2; ++c) {
      bank.consume_training(c, engine.class_stream(spec, c, piats, 1));
    }
    bank.train();
    for (std::size_t c = 0; c < 2; ++c) {
      bank.consume_test(c, engine.class_stream(spec, c, piats, 2));
    }
    return bank.detector(0).cpd_outcome();
  };
  const classify::CpdOutcome at_two = bank_outcome(3 + 2);
  const classify::CpdOutcome& got = *result.detectors[2].cpd;
  EXPECT_EQ(bits(got.threshold), bits(at_two.threshold));
  EXPECT_EQ(got.ttd.detected, at_two.ttd.detected);
  EXPECT_EQ(got.ttd.n_at_detection, at_two.ttd.n_at_detection);
  EXPECT_EQ(got.ttd.false_alarms, at_two.ttd.false_alarms);
  EXPECT_NE(bits(got.threshold), bits(bank_outcome(3 + 0).threshold));
}

}  // namespace
}  // namespace linkpad::core
