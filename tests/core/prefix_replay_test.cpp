// The prefix-replay contract of DESIGN.md §2.6:
//
//  1. Equivalence — a sample_size_axis point's outcome is bit-identical to
//     an INDEPENDENT engine run at that window size (same seed): the
//     independent run pulls the same stream keys and therefore consumes
//     exactly the prefix the collapsed axis clipped for it.
//  2. Work collapse — a k-point × f-feature detection-vs-n grid performs
//     ONE simulation: one train + one test stream per class, total PIATs
//     sized by the LARGEST n only (counting backend), even when the
//     entropy Δh prepass is needed (the training capture is materialized,
//     not re-simulated).
//  3. Scheduling independence — axis results are bit-identical across
//     sweep thread pools {1, 4, 16}.
#include "core/experiment.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstring>
#include <stdexcept>
#include <vector>

#include "core/piat_source.hpp"
#include "stats/descriptive.hpp"
#include "stats/distributions.hpp"
#include "util/rng.hpp"

namespace linkpad::core {
namespace {

const std::vector<classify::FeatureKind> kPaperFeatures = {
    classify::FeatureKind::kSampleMean,
    classify::FeatureKind::kSampleVariance,
    classify::FeatureKind::kSampleEntropy,
};

/// Axis spec: capture sized by n_max = 500 with 4 windows per phase.
/// 300 does not divide the capture — its points consume a strict prefix.
ExperimentSpec axis_spec(std::uint64_t seed = 11) {
  ExperimentSpec spec;
  spec.scenario = lab_zero_cross(make_cit());
  spec.plan.adversary.feature = kPaperFeatures.front();
  spec.plan.extra_features.assign(kPaperFeatures.begin() + 1, kPaperFeatures.end());
  spec.sample_size_axis = {100, 250, 300, 500};
  spec.plan.adversary.window_size = 500;
  spec.plan.train_windows = 4;
  spec.plan.test_windows = 4;
  spec.seed = seed;
  return spec;
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

void expect_bitwise_equal(double a, double b, const std::string& label) {
  EXPECT_EQ(std::memcmp(&a, &b, sizeof(double)), 0)
      << label << ": " << a << " vs " << b;
}

void run_axis_equivalence(const ExperimentSpec& spec,
                          const ExperimentResult& collapsed, std::size_t cap);

TEST(PrefixReplay, AxisPointsMatchIndependentRunsBitwise) {
  for (const std::size_t cap : {std::size_t{0}, std::size_t{6}}) {
    auto spec = axis_spec();
    spec.max_windows_per_point = cap;
    const auto collapsed = ExperimentEngine().run(spec);
    const auto ns = spec.sample_sizes();
    ASSERT_EQ(collapsed.by_sample_size.size(), ns.size());
    run_axis_equivalence(spec, collapsed, cap);
  }
}

void run_axis_equivalence(const ExperimentSpec& spec,
                          const ExperimentResult& collapsed,
                          std::size_t cap) {
  const auto ns = spec.sample_sizes();
  const std::size_t n_max = ns.back();
  for (const std::size_t n : ns) {
    // The independent evaluation of this prefix: a fresh single-size run
    // with the same seed and the window count the shared capture affords.
    ExperimentSpec single = spec;
    single.sample_size_axis.clear();
    single.max_windows_per_point = 0;
    single.plan.adversary.window_size = n;
    single.plan.train_windows = spec.plan.train_windows * n_max / n;
    single.plan.test_windows = spec.plan.test_windows * n_max / n;
    if (cap != 0) {
      single.plan.train_windows = std::min(single.plan.train_windows, cap);
      single.plan.test_windows = std::min(single.plan.test_windows, cap);
    }
    const auto reference = ExperimentEngine().run(single);

    const auto& point = collapsed.at_sample_size(n);
    const std::string tag = "n = " + std::to_string(n);
    EXPECT_EQ(point.train_windows, single.plan.train_windows) << tag;
    EXPECT_EQ(point.test_windows, single.plan.test_windows) << tag;
    const SampleSizePoint& expected = reference.top();
    expect_bitwise_equal(point.r_hat, expected.r_hat, tag + " r_hat");
    ASSERT_EQ(point.per_feature.size(), expected.per_feature.size()) << tag;
    for (std::size_t f = 0; f < point.per_feature.size(); ++f) {
      const auto& got = point.per_feature[f];
      const auto& want = expected.per_feature[f];
      const std::string label =
          tag + " " + classify::feature_name(got.feature);
      EXPECT_EQ(got.feature, want.feature) << label;
      expect_same_confusion(got.confusion, want.confusion, label);
      expect_bitwise_equal(got.detection_rate, want.detection_rate, label);
      ASSERT_EQ(got.predicted.has_value(), want.predicted.has_value()) << label;
      if (got.predicted) {
        expect_bitwise_equal(*got.predicted, *want.predicted, label);
      }
    }
  }

  // top() is the largest axis entry.
  EXPECT_EQ(collapsed.top().sample_size, n_max);
}

TEST(PrefixReplay, AxisInvariantToBatchSize) {
  const auto spec = axis_spec(23);
  const auto small = ExperimentEngine(sim_backend(), 137).run(spec);
  const auto big = ExperimentEngine(sim_backend(), 1 << 20).run(spec);
  ASSERT_EQ(small.by_sample_size.size(), big.by_sample_size.size());
  for (std::size_t i = 0; i < small.by_sample_size.size(); ++i) {
    const auto& a = small.by_sample_size[i];
    const auto& b = big.by_sample_size[i];
    expect_bitwise_equal(a.r_hat, b.r_hat, "r_hat");
    for (std::size_t f = 0; f < a.per_feature.size(); ++f) {
      expect_same_confusion(a.per_feature[f].confusion,
                            b.per_feature[f].confusion, "batch size");
    }
  }
}

TEST(PrefixReplay, LookupThrowsOffAxis) {
  const auto result = ExperimentEngine().run(axis_spec(29));
  EXPECT_NO_THROW((void)result.at_sample_size(100));
  EXPECT_THROW((void)result.at_sample_size(101), std::invalid_argument);
  EXPECT_THROW((void)result.by_sample_size.front().outcome(
                   classify::FeatureKind::kMedianAbsDeviation),
               std::invalid_argument);

  // The message must name the requested n and the available axis values.
  try {
    (void)result.at_sample_size(101);
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& err) {
    const std::string what = err.what();
    EXPECT_NE(what.find("101"), std::string::npos) << what;
    for (const char* n : {"100", "250", "300", "500"}) {
      EXPECT_NE(what.find(n), std::string::npos) << what << " missing " << n;
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

TEST(PrefixReplayWorkSharing, EightPointGridSimulatesOnce) {
  // The headline acceptance: an 8-point × 3-feature detection-vs-n grid
  // performs exactly ONE simulation — one train and one test stream per
  // class, sized by the largest n. Explicit Δh ⇒ no prepass at all.
  SweepGrid grid;
  grid.sample_sizes = {100, 200, 400, 700, 1000, 1500, 2000, 3000};
  grid.plan.set_features(kPaperFeatures);
  grid.plan.train_windows = 2;
  grid.plan.test_windows = 2;
  grid.seed = 77;
  EXPECT_EQ(grid.size(), 1u);  // the axis does NOT expand into points

  auto specs = grid.expand();
  ASSERT_EQ(specs.size(), 1u);
  specs[0].plan.adversary.entropy_bin_width = 3e-6;
  EXPECT_EQ(specs[0].sample_sizes().size(), 8u);

  const std::size_t train_capacity = 2 * 3000;
  const std::size_t test_capacity = 2 * 3000;

  CountingBackend backend;
  const auto results = SweepRunner(backend).run(specs);
  ASSERT_EQ(results.size(), 1u);
  EXPECT_EQ(results[0].by_sample_size.size(), 8u);
  EXPECT_EQ(backend.opens(), 4u);  // classes × {train, test} — once, total
  EXPECT_EQ(backend.piats(), 2 * (train_capacity + test_capacity));
}

TEST(PrefixReplayWorkSharing, AutoBinWidthAddsNoSimulationPass) {
  // With several axis points and the Scott-rule prepass, the engine
  // materializes the training capture instead of re-simulating it: still
  // one simulation, within the "at most 1 extra training pass" budget.
  SweepGrid grid;
  grid.sample_sizes = {100, 200, 400, 700, 1000, 1500, 2000, 3000};
  grid.plan.set_features(kPaperFeatures);  // entropy WITHOUT explicit Δh
  grid.plan.train_windows = 2;
  grid.plan.test_windows = 2;
  grid.seed = 78;

  CountingBackend backend;
  const auto results = SweepRunner(backend).run(grid.expand());
  ASSERT_EQ(results.size(), 1u);
  EXPECT_EQ(backend.opens(), 4u);
  EXPECT_EQ(backend.piats(), 2 * (2 * 3000 + 2 * 3000));
}

TEST(PrefixReplay, BitIdenticalAcrossSweepThreadCounts) {
  SweepGrid grid;
  grid.sigma_timers = {0.0, 100e-6};
  grid.sample_sizes = {100, 200, 400};
  grid.plan.set_features(kPaperFeatures);
  grid.plan.train_windows = 3;
  grid.plan.test_windows = 3;
  grid.seed = 4242;
  const auto specs = grid.expand();
  ASSERT_EQ(specs.size(), 2u);

  SweepOptions serial;
  serial.threads = 1;
  const auto reference = SweepRunner(sim_backend(), serial).run(specs);
  ASSERT_EQ(reference.size(), specs.size());

  for (const std::size_t threads : {std::size_t{4}, std::size_t{16}}) {
    SweepOptions options;
    options.threads = threads;
    const auto results = SweepRunner(sim_backend(), options).run(specs);
    ASSERT_EQ(results.size(), specs.size());
    for (std::size_t p = 0; p < specs.size(); ++p) {
      const auto& a = reference[p].by_sample_size;
      const auto& b = results[p].by_sample_size;
      ASSERT_EQ(a.size(), b.size());
      for (std::size_t i = 0; i < a.size(); ++i) {
        expect_bitwise_equal(a[i].r_hat, b[i].r_hat, "r_hat");
        for (std::size_t f = 0; f < a[i].per_feature.size(); ++f) {
          expect_same_confusion(
              a[i].per_feature[f].confusion, b[i].per_feature[f].confusion,
              "threads " + std::to_string(threads));
        }
      }
    }
  }
}

// ------------------------------------------------------- pooled prepass

/// The serial reference for the pooled Δh prepass: one RunningStats per
/// budget over each class's clipped stream, in class order.
std::vector<double> serial_prepass_stddevs(
    const std::vector<std::vector<double>>& train,
    const std::vector<std::size_t>& budgets) {
  std::vector<double> out;
  for (const std::size_t budget : budgets) {
    stats::RunningStats pooled;
    for (const auto& xs : train) {
      for (std::size_t i = 0; i < std::min(budget, xs.size()); ++i) {
        pooled.add(xs[i]);
      }
    }
    out.push_back(pooled.stddev());
  }
  return out;
}

/// A finite backend: each stream delivers at most `limit` PIATs of the
/// sim backend's stream, then comes up short (not replayable, like a live
/// capture).
class FiniteBackend final : public ExperimentBackend {
 public:
  explicit FiniteBackend(std::size_t limit) : limit_(limit) {}
  [[nodiscard]] std::unique_ptr<PiatSource> open(
      const Scenario& scenario, std::size_t class_index, std::uint64_t seed,
      std::uint64_t salt) const override {
    return std::make_unique<Source>(
        sim_backend().open(scenario, class_index, seed, salt), limit_);
  }
  [[nodiscard]] bool replayable() const override { return false; }
  [[nodiscard]] std::string name() const override { return "finite"; }

 private:
  class Source final : public PiatSource {
   public:
    Source(std::unique_ptr<PiatSource> inner, std::size_t left)
        : inner_(std::move(inner)), left_(left) {}
    std::size_t collect(std::size_t count, std::vector<double>& out) override {
      const std::size_t got = inner_->collect(std::min(count, left_), out);
      left_ -= got;
      return got;
    }
    [[nodiscard]] std::string name() const override { return "finite"; }

   private:
    std::unique_ptr<PiatSource> inner_;
    std::size_t left_;
  };

  std::size_t limit_;
};

TEST(PrefixReplay, PooledPrepassLanesMatchSerialMoments) {
  // The prepass runs the class ≥ 1 adds of four budgets side by side; its
  // σ per budget, and so every Δh and every result, must be the serial
  // RunningStats bits. Unit level first: 1–9 distinct budgets (every lane
  // tail), two or three classes, class streams that run dry before the
  // largest budgets.
  util::Xoshiro256pp rng(1931);
  for (std::size_t distinct = 1; distinct <= 9; ++distinct) {
    for (std::size_t trial = 0; trial < 24; ++trial) {
      std::vector<std::size_t> budgets;
      while (budgets.size() < distinct) {
        budgets.push_back(2 + rng() % 3000);
        std::sort(budgets.begin(), budgets.end());
        budgets.erase(std::unique(budgets.begin(), budgets.end()),
                      budgets.end());
      }
      std::vector<std::vector<double>> train(2 + trial % 2);
      for (auto& xs : train) {
        // Some streams end inside the budget range, some past it.
        xs.resize(2 + rng() % (budgets.back() + 200));
        for (auto& x : xs) {
          x = 10e-3 + 1e-5 * stats::sample_standard_normal(rng);
        }
      }
      const auto lanes = detail::pooled_prepass_stddevs(train, budgets);
      const auto serial = serial_prepass_stddevs(train, budgets);
      ASSERT_EQ(lanes.size(), serial.size());
      for (std::size_t b = 0; b < budgets.size(); ++b) {
        expect_bitwise_equal(lanes[b], serial[b],
                             "budget " + std::to_string(budgets[b]) + " of " +
                                 std::to_string(distinct));
      }
    }
  }

  // Engine level: axes whose points share 1–9 distinct prefix budgets
  // (n = 20 and n = 120 always share 240), each point against an
  // independent run whose bank runs the serial prepass.
  const std::vector<std::size_t> extra = {25, 32, 36, 50, 64, 70, 84, 90};
  for (std::size_t distinct = 1; distinct <= 9; ++distinct) {
    auto spec = axis_spec(50 + distinct);
    spec.sample_size_axis = {20};
    spec.sample_size_axis.insert(spec.sample_size_axis.end(), extra.begin(),
                                 extra.begin() + (distinct - 1));
    spec.sample_size_axis.push_back(120);
    spec.plan.adversary.window_size = 120;
    spec.plan.train_windows = 2;
    spec.plan.test_windows = 2;
    std::vector<std::size_t> budgets;
    for (const std::size_t n : spec.sample_size_axis) {
      budgets.push_back(2 * 120 / n * n);
    }
    std::sort(budgets.begin(), budgets.end());
    ASSERT_EQ(std::unique(budgets.begin(), budgets.end()) - budgets.begin(),
              static_cast<std::ptrdiff_t>(distinct));
    const auto collapsed = ExperimentEngine().run(spec);
    run_axis_equivalence(spec, collapsed, 0);
  }

  // A finite backend that runs dry (340 PIATs) before the largest budgets
  // (350, 352, 360): each point must equal a single-size run on the same
  // backend whose Δh is the serial reference's, given explicitly.
  const FiniteBackend finite(340);
  auto spec = axis_spec(71);
  spec.sample_size_axis = {20, 25, 32, 64, 84, 120};
  spec.plan.adversary.window_size = 120;
  spec.plan.train_windows = 3;
  spec.plan.test_windows = 3;
  const auto collapsed = ExperimentEngine(finite).run(spec);
  std::vector<std::vector<double>> train;
  for (std::size_t c = 0; c < 2; ++c) {
    train.push_back(pull_stream(finite, spec.scenario, c, spec.seed,
                                /*salt=*/1, 360));
    ASSERT_EQ(train.back().size(), 340u);
  }
  for (const std::size_t n : spec.sample_size_axis) {
    const std::size_t windows = 3 * 120 / n;
    const double sigma = serial_prepass_stddevs(train, {windows * n})[0];
    ExperimentSpec single = spec;
    single.sample_size_axis.clear();
    single.plan.adversary.window_size = n;
    single.plan.adversary.entropy_bin_width =
        3.49 * sigma * std::pow(static_cast<double>(n), -1.0 / 3.0);
    single.plan.train_windows = windows;
    single.plan.test_windows = windows;
    const auto reference = ExperimentEngine(finite).run(single);
    const auto& point = collapsed.at_sample_size(n);
    const std::string tag = "finite, n = " + std::to_string(n);
    const SampleSizePoint& expected = reference.top();
    expect_bitwise_equal(point.r_hat, expected.r_hat, tag + " r_hat");
    ASSERT_EQ(point.per_feature.size(), expected.per_feature.size()) << tag;
    for (std::size_t f = 0; f < point.per_feature.size(); ++f) {
      expect_same_confusion(point.per_feature[f].confusion,
                            expected.per_feature[f].confusion, tag);
      expect_bitwise_equal(point.per_feature[f].detection_rate,
                           expected.per_feature[f].detection_rate, tag);
    }
  }
}

}  // namespace
}  // namespace linkpad::core
