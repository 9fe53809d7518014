// DetectorBank correctness: a bank fed the capture in streaming batches must
// reproduce the batch Adversary (features, classifier, confusion) bit for
// bit, for every feature and any batch chopping; EDF detectors must match
// EdfClassifier when no thinning is involved.
#include "classify/detector_bank.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "classify/adversary.hpp"
#include "classify/edf_classifier.hpp"
#include "stats/distributions.hpp"
#include "util/check.hpp"
#include "util/rng.hpp"

namespace linkpad::classify {
namespace {

/// Two synthetic PIAT classes with the paper's structure: equal means,
/// different variances.
std::vector<std::vector<double>> two_class_streams(std::size_t count,
                                                   std::uint64_t seed) {
  util::Rng rng_low(seed);
  util::Rng rng_high(seed + 1);
  stats::Normal low(10e-3, 10e-6);
  stats::Normal high(10e-3, 14e-6);
  std::vector<std::vector<double>> streams(2);
  streams[0].resize(count);
  streams[1].resize(count);
  for (auto& x : streams[0]) x = low.sample(rng_low);
  for (auto& x : streams[1]) x = high.sample(rng_high);
  return streams;
}

/// Feed per-class data through `consume` in batches of `batch`.
template <typename Consume>
void feed(const std::vector<std::vector<double>>& streams, std::size_t batch,
          const Consume& consume) {
  for (std::size_t c = 0; c < streams.size(); ++c) {
    const auto& stream = streams[c];
    for (std::size_t offset = 0; offset < stream.size(); offset += batch) {
      const std::size_t take = std::min(batch, stream.size() - offset);
      consume(c, std::span<const double>(stream.data() + offset, take));
    }
  }
}

void run_bank(DetectorBank& bank,
              const std::vector<std::vector<double>>& train,
              const std::vector<std::vector<double>>& test,
              std::size_t batch) {
  if (bank.needs_prepass()) {
    feed(train, batch, [&](std::size_t, std::span<const double> b) {
      bank.consume_prepass(b);
    });
    bank.finish_prepass();
  }
  feed(train, batch, [&](std::size_t c, std::span<const double> b) {
    bank.consume_training(c, b);
  });
  bank.train();
  feed(test, batch, [&](std::size_t c, std::span<const double> b) {
    bank.consume_test(c, b);
  });
}

const std::vector<FeatureKind> kAllFeatures = {
    FeatureKind::kSampleMean,          FeatureKind::kSampleVariance,
    FeatureKind::kSampleEntropy,       FeatureKind::kMedianAbsDeviation,
    FeatureKind::kInterquartileRange,
};

TEST(DetectorBank, ReproducesBatchAdversaryBitForBit) {
  const std::size_t n = 200;
  const std::size_t windows = 25;
  const auto train = two_class_streams(windows * n, 21);
  const auto test = two_class_streams(windows * n, 77);

  AdversaryConfig base;
  base.window_size = n;

  for (const std::size_t batch :
       {std::size_t{64}, std::size_t{8192}, windows * n}) {
    DetectorBank bank(base, kAllFeatures, 2);
    run_bank(bank, train, test, batch);

    for (std::size_t f = 0; f < kAllFeatures.size(); ++f) {
      AdversaryConfig cfg = base;
      cfg.feature = kAllFeatures[f];
      Adversary adversary(cfg);
      adversary.train(train);
      const auto cm = adversary.evaluate(test);

      const auto& detector = bank.detector(f);
      // Training features identical (same windows, same recurrences)...
      ASSERT_EQ(detector.training_features().size(), 2u);
      for (std::size_t c = 0; c < 2; ++c) {
        ASSERT_EQ(detector.training_features()[c].size(), windows);
        for (std::size_t w = 0; w < windows; ++w) {
          EXPECT_EQ(detector.training_features()[c][w],
                    adversary.training_features()[c][w])
              << detector.name() << " batch " << batch;
        }
      }
      // ...so the fitted rule and every verdict agree exactly.
      EXPECT_EQ(detector.confusion().total(), cm.total());
      for (std::size_t i = 0; i < 2; ++i) {
        for (std::size_t j = 0; j < 2; ++j) {
          EXPECT_EQ(detector.confusion().count(static_cast<ClassLabel>(i),
                                               static_cast<ClassLabel>(j)),
                    cm.count(static_cast<ClassLabel>(i),
                             static_cast<ClassLabel>(j)))
              << detector.name() << " batch " << batch;
        }
      }
      EXPECT_EQ(detector.detection_rate(), cm.detection_rate())
          << detector.name();
    }
  }
}

/// Feed per-class data in random-sized batches (1 to 3 windows long), so
/// batches straddle windows and armed checkpoints.
template <typename Consume>
void feed_random(const std::vector<std::vector<double>>& streams,
                 std::size_t window, util::Rng& rng, const Consume& consume) {
  for (std::size_t c = 0; c < streams.size(); ++c) {
    const auto& stream = streams[c];
    std::size_t offset = 0;
    while (offset < stream.size()) {
      const std::size_t batch =
          1 + static_cast<std::size_t>(rng.uniform(0.0, 3.0 * window));
      const std::size_t take = std::min(batch, stream.size() - offset);
      consume(c, std::span<const double>(stream.data() + offset, take));
      offset += take;
    }
  }
}

TEST(DetectorBank, WholeWindowFeedMatchesPerSampleFeed) {
  // Batches of one sample never hold a whole window, so the reference bank
  // runs the per-sample add path only; random batches hand whole windows
  // to add_windows. Training features, confusions and every checkpoint row
  // must agree exactly.
  const std::size_t n = 60;
  const auto train = two_class_streams(20 * n + 17, 23);
  const auto test = two_class_streams(15 * n + 29, 79);
  const std::vector<std::size_t> checkpoints = {1,     n - 1,     n,
                                                n + 1, 4 * n + 7, 9 * n,
                                                15 * n + 29};

  std::vector<DetectorSpec> specs;
  for (const auto mode : {QuantileMode::kExact, QuantileMode::kP2Sketch}) {
    for (const auto kind : kAllFeatures) {
      DetectorSpec spec;
      spec.adversary.window_size = n;
      spec.adversary.feature = kind;
      spec.quantile_mode = mode;
      specs.push_back(spec);
    }
  }
  DetectorSpec fixed_width;  // explicit Δh next to the Scott-rule one
  fixed_width.adversary.window_size = n;
  fixed_width.adversary.feature = FeatureKind::kSampleEntropy;
  fixed_width.adversary.entropy_bin_width = 4e-6;
  specs.push_back(fixed_width);

  const auto run = [&](DetectorBank& bank, const auto& feeder) {
    bank.arm_checkpoints(checkpoints);
    if (bank.needs_prepass()) {
      feeder(train, [&](std::size_t, std::span<const double> b) {
        bank.consume_prepass(b);
      });
      bank.finish_prepass();
    }
    feeder(train, [&](std::size_t c, std::span<const double> b) {
      bank.consume_training(c, b);
    });
    bank.train();
    feeder(test, [&](std::size_t c, std::span<const double> b) {
      bank.consume_test(c, b);
    });
  };

  DetectorBank per_sample(specs, 2);
  run(per_sample, [](const auto& streams, const auto& consume) {
    feed(streams, 1, consume);
  });

  for (const std::uint64_t seed : {1u, 2u, 3u}) {
    util::Rng rng(seed);
    DetectorBank whole_windows(specs, 2);
    run(whole_windows, [&](const auto& streams, const auto& consume) {
      feed_random(streams, n, rng, consume);
    });

    for (std::size_t d = 0; d < specs.size(); ++d) {
      const auto& got = whole_windows.detector(d);
      const auto& want = per_sample.detector(d);
      const std::string label = got.name() + " seed " + std::to_string(seed);
      EXPECT_EQ(got.training_features(), want.training_features()) << label;
      for (std::size_t i = 0; i < 2; ++i) {
        for (std::size_t j = 0; j < 2; ++j) {
          const auto ci = static_cast<ClassLabel>(i);
          const auto cj = static_cast<ClassLabel>(j);
          EXPECT_EQ(got.confusion().count(ci, cj),
                    want.confusion().count(ci, cj))
              << label;
          for (const std::size_t m : checkpoints) {
            EXPECT_EQ(got.confusion_at(m).count(ci, cj),
                      want.confusion_at(m).count(ci, cj))
                << label << " checkpoint " << m;
          }
        }
      }
    }
  }
}

TEST(DetectorBank, AutoEntropyBinWidthMatchesAdversary) {
  const std::size_t n = 150;
  const auto train = two_class_streams(20 * n, 31);
  const auto test = two_class_streams(20 * n, 87);

  AdversaryConfig base;
  base.window_size = n;
  base.feature = FeatureKind::kSampleEntropy;  // entropy_bin_width left 0.0

  DetectorBank bank(base, {FeatureKind::kSampleEntropy}, 2);
  ASSERT_TRUE(bank.needs_prepass());
  run_bank(bank, train, test, 256);

  Adversary adversary(base);
  adversary.train(train);
  // Scott-rule Δh selected from the same pooled moments, in the same class
  // order: bit-identical.
  EXPECT_EQ(bank.detector(0).entropy_bin_width(),
            adversary.entropy_bin_width());
  EXPECT_EQ(bank.detector(0).detection_rate(),
            adversary.evaluate(test).detection_rate());
}

TEST(DetectorBank, EdfDetectorMatchesEdfClassifierWithoutThinning) {
  const std::size_t n = 100;
  const auto train = two_class_streams(12 * n, 41);
  const auto test = two_class_streams(12 * n, 97);

  for (const auto distance :
       {EdfDistance::kKolmogorovSmirnov, EdfDistance::kCramerVonMises}) {
    DetectorSpec spec;
    spec.adversary.window_size = n;
    spec.edf = distance;
    // References exceed the stream length: no thinning on either path, so
    // the streamed references equal the batch classifier's exactly.
    spec.edf_max_reference = 10 * 12 * n;

    DetectorBank bank({spec}, 2);
    run_bank(bank, train, test, 512);

    const auto clf =
        EdfClassifier::train(train, distance, spec.edf_max_reference);
    const auto cm = clf.evaluate(test, n);
    EXPECT_EQ(bank.detector(0).confusion().total(), cm.total());
    EXPECT_EQ(bank.detector(0).detection_rate(), cm.detection_rate());
  }
}

TEST(DetectorBank, EdfProgressiveThinningStaysClose) {
  const std::size_t n = 100;
  const auto train = two_class_streams(40 * n, 51);
  const auto test = two_class_streams(20 * n, 107);

  DetectorSpec spec;
  spec.adversary.window_size = n;
  spec.edf = EdfDistance::kKolmogorovSmirnov;
  spec.edf_max_reference = 500;  // forces progressive thinning

  DetectorBank bank({spec}, 2);
  run_bank(bank, train, test, 512);

  const auto clf = EdfClassifier::train(train, *spec.edf,
                                        spec.edf_max_reference);
  const auto batch_rate = clf.evaluate(test, n).detection_rate();
  // Thinned references approximate the full-sort thin; the verdict must
  // stay in the same regime (documented tolerance of the streaming EDF).
  EXPECT_NEAR(bank.detector(0).detection_rate(), batch_rate, 0.1);
}

TEST(DetectorBank, NonUniformPriorsReachEveryDetector) {
  const std::size_t n = 100;
  const auto train = two_class_streams(15 * n, 61);
  const auto test = two_class_streams(15 * n, 117);

  AdversaryConfig base;
  base.window_size = n;
  DetectorBank bank(base, {FeatureKind::kSampleVariance}, 2);
  if (bank.needs_prepass()) bank.finish_prepass();
  feed(train, 4096, [&](std::size_t c, std::span<const double> b) {
    bank.consume_training(c, b);
  });
  bank.train({0.9, 0.1});
  feed(test, 4096, [&](std::size_t c, std::span<const double> b) {
    bank.consume_test(c, b);
  });

  const auto& detector = bank.detector(0);
  EXPECT_DOUBLE_EQ(detector.detection_rate(),
                   detector.confusion().detection_rate({0.9, 0.1}));
}

TEST(DetectorBank, PhaseOrderEnforced) {
  AdversaryConfig base;
  base.window_size = 10;
  DetectorBank bank(base, {FeatureKind::kSampleVariance}, 2);
  const std::vector<double> data(25, 0.01);

  EXPECT_THROW(bank.consume_test(0, data), linkpad::ContractViolation);
  bank.consume_training(0, data);
  // Only one training window per class so far: train() must refuse.
  EXPECT_THROW(bank.train(), linkpad::ContractViolation);
}

TEST(DetectorBank, RejectsEmptyAndMalformedConfigs) {
  EXPECT_THROW(DetectorBank({}, 2), linkpad::ContractViolation);
  AdversaryConfig base;
  base.window_size = 1;  // windows need >= 2 samples
  EXPECT_THROW(DetectorBank(base, {FeatureKind::kSampleMean}, 2),
               linkpad::ContractViolation);
  // Undersized EDF references fail at construction (EdfClassifier's floor),
  // not deep inside train().
  DetectorSpec tiny;
  tiny.adversary.window_size = 10;
  tiny.edf = EdfDistance::kKolmogorovSmirnov;
  tiny.edf_max_reference = 8;
  EXPECT_THROW(DetectorBank({tiny}, 2), linkpad::ContractViolation);
}

}  // namespace
}  // namespace linkpad::classify
