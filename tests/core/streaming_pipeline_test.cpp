// The streaming engine contract of DESIGN.md §2.5:
//
//  1. Equivalence — for every FeatureKind, the streaming DetectorBank
//     pipeline inside ExperimentEngine::run reproduces the batch reference
//     path (materialize streams, classify::Adversary) bit for bit, at any
//     pull batch size and any sweep pool size.
//  2. Work sharing — an N-feature experiment opens each logical stream
//     once and pulls each PIAT once: the simulation cost is independent of
//     how many features are detected (verified by a counting backend).
#include "core/experiment.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <vector>

#include "classify/adversary.hpp"
#include "core/piat_source.hpp"
#include "util/check.hpp"

namespace linkpad::core {
namespace {

const std::vector<classify::FeatureKind> kAllFeatures = {
    classify::FeatureKind::kSampleMean,
    classify::FeatureKind::kSampleVariance,
    classify::FeatureKind::kSampleEntropy,
    classify::FeatureKind::kMedianAbsDeviation,
    classify::FeatureKind::kInterquartileRange,
};

ExperimentSpec small_spec(std::uint64_t seed = 5) {
  ExperimentSpec spec;
  spec.scenario = lab_zero_cross(make_cit());
  spec.plan.adversary.window_size = 100;
  spec.plan.train_windows = 12;
  spec.plan.test_windows = 12;
  spec.seed = seed;
  return spec;
}

/// The pre-streaming reference pipeline: materialize both captures, train a
/// batch Adversary, evaluate window by window.
classify::ConfusionMatrix batch_reference(const ExperimentSpec& spec,
                                          classify::FeatureKind kind) {
  const std::size_t n = spec.plan.adversary.window_size;
  std::vector<std::vector<double>> train(2), test(2);
  for (std::size_t c = 0; c < 2; ++c) {
    train[c] = pull_stream(sim_backend(), spec.scenario, c, spec.seed, 1,
                           spec.plan.train_windows * n);
    test[c] = pull_stream(sim_backend(), spec.scenario, c, spec.seed, 2,
                          spec.plan.test_windows * n);
  }
  classify::AdversaryConfig cfg = spec.plan.adversary;
  cfg.feature = kind;
  classify::Adversary adversary(cfg);
  adversary.train(train);
  return adversary.evaluate(test);
}

void expect_same_confusion(const classify::ConfusionMatrix& a,
                           const classify::ConfusionMatrix& b,
                           const std::string& label) {
  ASSERT_EQ(a.num_classes(), b.num_classes()) << label;
  for (std::size_t i = 0; i < a.num_classes(); ++i) {
    for (std::size_t j = 0; j < a.num_classes(); ++j) {
      EXPECT_EQ(a.count(static_cast<ClassLabel>(i), static_cast<ClassLabel>(j)),
                b.count(static_cast<ClassLabel>(i), static_cast<ClassLabel>(j)))
          << label;
    }
  }
}

TEST(StreamingEquivalence, EveryFeatureMatchesBatchPathAtEveryBatchSize) {
  const auto spec_base = small_spec();
  const std::size_t whole =
      spec_base.plan.train_windows * spec_base.plan.adversary.window_size;

  for (const auto kind : kAllFeatures) {
    const auto reference = batch_reference(spec_base, kind);
    for (const std::size_t batch : {std::size_t{64}, std::size_t{8192},
                                    whole}) {
      ExperimentSpec spec = spec_base;
      spec.plan.adversary.feature = kind;
      const auto result = ExperimentEngine(sim_backend(), batch).run(spec);
      const std::string label = classify::feature_name(kind) + " batch " +
                                std::to_string(batch);
      expect_same_confusion(result.primary().confusion, reference, label);
      EXPECT_EQ(result.primary().detection_rate, reference.detection_rate())
          << label;
    }
  }
}

TEST(StreamingEquivalence, MultiFeatureRunMatchesPerFeatureBatchReferences) {
  ExperimentSpec spec = small_spec(9);
  spec.plan.adversary.feature = kAllFeatures.front();
  spec.plan.extra_features.assign(kAllFeatures.begin() + 1, kAllFeatures.end());

  const auto result = ExperimentEngine(sim_backend(), 256).run(spec);
  ASSERT_EQ(result.top().per_feature.size(), kAllFeatures.size());
  for (const auto kind : kAllFeatures) {
    const auto reference = batch_reference(spec, kind);
    const auto& outcome = result.outcome(kind);
    expect_same_confusion(outcome.confusion, reference,
                          classify::feature_name(kind));
    EXPECT_EQ(outcome.detection_rate, reference.detection_rate());
  }
  EXPECT_EQ(result.primary().feature, kAllFeatures.front());
}

TEST(StreamingEquivalence, SweepPoolsMatchBatchReferences) {
  // Pool sizes {1, 4, 16}: shard scheduling must never leak into the
  // streamed per-feature verdicts.
  SweepGrid grid;
  grid.sigma_timers = {0.0, 100e-6};
  grid.plan.set_features(kAllFeatures);
  grid.plan.adversary.window_size = 100;
  grid.plan.train_windows = 10;
  grid.plan.test_windows = 10;
  grid.seed = 4242;
  const auto specs = grid.expand();

  std::vector<std::vector<classify::ConfusionMatrix>> references;
  for (const auto& spec : specs) {
    std::vector<classify::ConfusionMatrix> per_feature;
    for (const auto kind : kAllFeatures) {
      per_feature.push_back(batch_reference(spec, kind));
    }
    references.push_back(std::move(per_feature));
  }

  for (const std::size_t threads : {std::size_t{1}, std::size_t{4},
                                    std::size_t{16}}) {
    SweepOptions options;
    options.threads = threads;
    const auto results = SweepRunner(sim_backend(), options).run(specs);
    ASSERT_EQ(results.size(), specs.size());
    for (std::size_t i = 0; i < specs.size(); ++i) {
      for (std::size_t f = 0; f < kAllFeatures.size(); ++f) {
        expect_same_confusion(
            results[i].outcome(kAllFeatures[f]).confusion,
            references[i][f],
            classify::feature_name(kAllFeatures[f]) + " threads " +
                std::to_string(threads));
      }
    }
  }
}

// ---------------------------------------------------------------- probing

/// Wraps the sim backend and counts opens / pulled PIATs.
class CountingBackend final : public ExperimentBackend {
 public:
  [[nodiscard]] std::unique_ptr<PiatSource> open(
      const Scenario& scenario, std::size_t class_index, std::uint64_t seed,
      std::uint64_t salt) const override {
    ++opens_;
    return std::make_unique<CountingSource>(
        sim_backend().open(scenario, class_index, seed, salt), piats_);
  }
  [[nodiscard]] std::string name() const override { return "counting"; }

  [[nodiscard]] std::size_t opens() const { return opens_.load(); }
  [[nodiscard]] std::size_t piats() const { return piats_.load(); }

 private:
  class CountingSource final : public PiatSource {
   public:
    CountingSource(std::unique_ptr<PiatSource> inner,
                   std::atomic<std::size_t>& piats)
        : inner_(std::move(inner)), piats_(&piats) {}
    std::size_t collect(std::size_t count, std::vector<double>& out) override {
      const std::size_t got = inner_->collect(count, out);
      piats_->fetch_add(got);
      return got;
    }
    [[nodiscard]] std::string name() const override { return "counting"; }

   private:
    std::unique_ptr<PiatSource> inner_;
    std::atomic<std::size_t>* piats_;
  };

  mutable std::atomic<std::size_t> opens_{0};
  mutable std::atomic<std::size_t> piats_{0};
};

TEST(StreamingWorkSharing, FiveFeaturePointSimulatesOnce) {
  ExperimentSpec spec = small_spec(17);
  spec.plan.adversary.feature = kAllFeatures.front();
  spec.plan.extra_features.assign(kAllFeatures.begin() + 1, kAllFeatures.end());
  // Explicit Δh: no prepass, so the capture is pulled exactly once.
  spec.plan.adversary.entropy_bin_width = 3e-6;

  const std::size_t n = spec.plan.adversary.window_size;
  const std::size_t per_class =
      (spec.plan.train_windows + spec.plan.test_windows) * n;

  CountingBackend backend;
  const auto results = SweepRunner(backend).run({spec});
  ASSERT_EQ(results.size(), 1u);
  EXPECT_EQ(results[0].top().per_feature.size(), 5u);

  // One train + one test stream per class — NOT multiplied by the five
  // features riding the bank.
  EXPECT_EQ(backend.opens(), 4u);
  EXPECT_EQ(backend.piats(), 2 * per_class);
}

TEST(StreamingWorkSharing, AutoBinWidthCostsExactlyOneExtraTrainingPass) {
  ExperimentSpec spec = small_spec(18);
  spec.plan.adversary.feature = classify::FeatureKind::kSampleEntropy;
  spec.plan.extra_features = {classify::FeatureKind::kSampleVariance};
  // entropy_bin_width left at 0.0: the Scott-rule prepass replays the
  // training streams once.
  const std::size_t n = spec.plan.adversary.window_size;
  const std::size_t train = spec.plan.train_windows * n;
  const std::size_t test = spec.plan.test_windows * n;

  CountingBackend backend;
  (void)ExperimentEngine(backend).run(spec);
  EXPECT_EQ(backend.opens(), 6u);  // 2x(prepass + train) + 2x test
  EXPECT_EQ(backend.piats(), 2 * (2 * train + test));
}

TEST(StreamingWorkSharing, CollapsedGridCutsSimulationByFeatureCount) {
  // The headline: a 5-feature sweep grid costs the same simulation work as
  // a 1-feature grid.
  SweepGrid grid;
  grid.sigma_timers = {0.0};
  grid.plan.set_features(kAllFeatures);
  grid.plan.adversary.window_size = 100;
  grid.plan.train_windows = 8;
  grid.plan.test_windows = 8;
  ASSERT_EQ(grid.size(), 1u);

  auto specs = grid.expand();
  for (auto& spec : specs) spec.plan.adversary.entropy_bin_width = 3e-6;

  CountingBackend backend;
  const auto results = SweepRunner(backend).run(specs);
  ASSERT_EQ(results.size(), specs.size());
  EXPECT_EQ(backend.opens(), 4u);  // classes x {train, test}, once per point
}

}  // namespace
}  // namespace linkpad::core
