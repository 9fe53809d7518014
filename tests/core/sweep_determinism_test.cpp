// Sweep determinism and the engine layer's backend seam.
//
// The contract every scaling PR builds on: a sweep's results are a pure
// function of its specs — bit-identical no matter how many threads shard
// the points, because every point derives its RNG streams from
// (seed, salt, class), never from schedule order.
#include "core/experiment.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "core/piat_source.hpp"
#include "util/check.hpp"

namespace linkpad::core {
namespace {

void expect_identical_confusion(const classify::ConfusionMatrix& a,
                                const classify::ConfusionMatrix& b) {
  ASSERT_EQ(a.num_classes(), b.num_classes());
  for (std::size_t i = 0; i < a.num_classes(); ++i) {
    for (std::size_t j = 0; j < a.num_classes(); ++j) {
      EXPECT_EQ(a.count(static_cast<ClassLabel>(i), static_cast<ClassLabel>(j)),
                b.count(static_cast<ClassLabel>(i), static_cast<ClassLabel>(j)));
    }
  }
}

bool same_bits(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

/// Exact (bitwise) equality of two results, field by field, including every
/// per-feature outcome of the bank pass at every sample size.
void expect_identical(const ExperimentResult& a, const ExperimentResult& b) {
  EXPECT_TRUE(same_bits(a.piat_mean_low, b.piat_mean_low));
  EXPECT_TRUE(same_bits(a.piat_mean_high, b.piat_mean_high));
  EXPECT_TRUE(same_bits(a.piat_var_low, b.piat_var_low));
  EXPECT_TRUE(same_bits(a.piat_var_high, b.piat_var_high));
  ASSERT_EQ(a.by_sample_size.size(), b.by_sample_size.size());
  for (std::size_t i = 0; i < a.by_sample_size.size(); ++i) {
    const SampleSizePoint& pa = a.by_sample_size[i];
    const SampleSizePoint& pb = b.by_sample_size[i];
    EXPECT_TRUE(same_bits(pa.r_hat, pb.r_hat));
    ASSERT_EQ(pa.per_feature.size(), pb.per_feature.size());
    for (std::size_t f = 0; f < pa.per_feature.size(); ++f) {
      const auto& fa = pa.per_feature[f];
      const auto& fb = pb.per_feature[f];
      EXPECT_EQ(fa.feature, fb.feature);
      EXPECT_TRUE(same_bits(fa.detection_rate, fb.detection_rate));
      EXPECT_EQ(fa.predicted.has_value(), fb.predicted.has_value());
      if (fa.predicted && fb.predicted) {
        EXPECT_TRUE(same_bits(*fa.predicted, *fb.predicted));
      }
      expect_identical_confusion(fa.confusion, fb.confusion);
    }
  }
}

/// Small but non-trivial 8-point grid (sigma axis; every point detects two
/// features over its single simulated capture).
std::vector<ExperimentSpec> eight_point_grid() {
  SweepGrid grid;
  grid.sigma_timers = {0.0, 10e-6, 20e-6, 50e-6, 100e-6, 200e-6, 500e-6, 1e-3};
  grid.plan.set_features({classify::FeatureKind::kSampleVariance,
                          classify::FeatureKind::kSampleEntropy});
  grid.plan.adversary.window_size = 100;
  grid.plan.train_windows = 10;
  grid.plan.test_windows = 10;
  grid.seed = 99;
  return grid.expand();
}

/// The reference schedule: one thread, every point inline on the caller.
std::vector<ExperimentResult> one_thread_sweep(
    const std::vector<ExperimentSpec>& specs) {
  SweepOptions options;
  options.threads = 1;
  return SweepRunner(sim_backend(), options).run(specs);
}

std::size_t hardware_threads() {
  return std::max<std::size_t>(std::thread::hardware_concurrency(), 2);
}

TEST(SweepDeterminism, BitIdenticalAcrossThreadCounts) {
  const auto specs = eight_point_grid();
  ASSERT_GE(specs.size(), 8u);
  const auto reference = one_thread_sweep(specs);
  for (const std::size_t threads : {std::size_t{2}, std::size_t{4},
                                    std::size_t{16}, hardware_threads()}) {
    SweepOptions options;
    options.threads = threads;
    const auto results = SweepRunner(sim_backend(), options).run(specs);
    ASSERT_EQ(results.size(), specs.size());
    for (std::size_t i = 0; i < specs.size(); ++i) {
      SCOPED_TRACE("threads " + std::to_string(threads) + " point " +
                   std::to_string(i));
      expect_identical(reference[i], results[i]);
    }
  }
}

TEST(SweepDeterminism, SharedPoolMatchesDedicatedPools) {
  const auto specs = eight_point_grid();
  const auto shared = SweepRunner().run(specs);  // global pool
  SweepOptions two;
  two.threads = 2;
  const auto dedicated = SweepRunner(sim_backend(), two).run(specs);
  for (std::size_t i = 0; i < specs.size(); ++i) {
    expect_identical(shared[i], dedicated[i]);
  }
}

TEST(SweepDeterminism, RaggedGrainChunksMatchOneThreadBitwise) {
  // The grain only changes how many points a worker claims at a time —
  // here a ragged partition, 8 points -> chunks of 3, 3, 2 — never what
  // any point computes.
  const auto specs = eight_point_grid();
  const auto reference = one_thread_sweep(specs);
  for (const std::size_t threads :
       {std::size_t{2}, std::size_t{4}, hardware_threads()}) {
    SweepOptions chunked;
    chunked.threads = threads;
    chunked.grain = 3;
    const auto results = SweepRunner(sim_backend(), chunked).run(specs);
    ASSERT_EQ(results.size(), specs.size());
    for (std::size_t i = 0; i < specs.size(); ++i) {
      SCOPED_TRACE("threads " + std::to_string(threads) + " point " +
                   std::to_string(i));
      expect_identical(reference[i], results[i]);
    }
  }
}

TEST(SweepDeterminism, LegacyRunSweepMatchesSingleRuns) {
  // A default SweepRunner's results (what the removed run_sweep wrapper
  // returned) equal independent single-engine runs.
  const auto specs = eight_point_grid();
  const auto swept = SweepRunner().run(specs);
  for (std::size_t i = 0; i < specs.size(); ++i) {
    expect_identical(swept[i], ExperimentEngine().run(specs[i]));
  }
}

TEST(SweepRunnerTest, ProgressCoversEveryPoint) {
  const auto specs = eight_point_grid();
  // Progress fires from the workers outside any lock (so a slow observer
  // can't stall the sweep) — callbacks may arrive concurrently and the
  // observer owns its own synchronization.
  std::mutex mutex;
  std::vector<std::size_t> done_values;
  SweepOptions options;
  options.threads = 4;
  options.progress = [&](std::size_t done, std::size_t total) {
    EXPECT_EQ(total, specs.size());
    const std::lock_guard<std::mutex> lock(mutex);
    done_values.push_back(done);
  };
  const auto results = SweepRunner(sim_backend(), options).run(specs);
  EXPECT_EQ(results.size(), specs.size());
  EXPECT_EQ(done_values.size(), specs.size());
  // Every count 1..N is reported exactly once, though possibly out of order.
  std::sort(done_values.begin(), done_values.end());
  for (std::size_t i = 0; i < done_values.size(); ++i) {
    EXPECT_EQ(done_values[i], i + 1);
  }
}

TEST(SweepGridTest, ExpandsRowMajorWithDistinctSeeds) {
  SweepGrid grid;
  grid.environment = SweepGrid::Environment::kLabCrossTraffic;
  grid.sigma_timers = {0.0, 50e-6};
  grid.utilizations = {0.1, 0.3, 0.5};
  grid.plan.set_features({classify::FeatureKind::kSampleVariance,
                          classify::FeatureKind::kSampleMean});
  // The feature axis rides each point's DetectorBank instead of multiplying
  // the number of points (and simulations).
  EXPECT_EQ(grid.size(), 2u * 3u);
  const auto specs = grid.expand();
  ASSERT_EQ(specs.size(), grid.size());

  // All per-point seeds distinct.
  for (std::size_t i = 0; i < specs.size(); ++i) {
    for (std::size_t j = i + 1; j < specs.size(); ++j) {
      EXPECT_NE(specs[i].seed, specs[j].seed) << i << "," << j;
    }
  }
  // Every point carries the full feature list, grid order preserved.
  for (const auto& spec : specs) {
    EXPECT_EQ(spec.plan.adversary.feature, classify::FeatureKind::kSampleVariance);
    const auto features = spec.features();
    ASSERT_EQ(features.size(), 2u);
    EXPECT_EQ(features[0], classify::FeatureKind::kSampleVariance);
    EXPECT_EQ(features[1], classify::FeatureKind::kSampleMean);
  }
  // Expansion is deterministic.
  const auto again = grid.expand();
  for (std::size_t i = 0; i < specs.size(); ++i) {
    EXPECT_EQ(specs[i].seed, again[i].seed);
  }
}

TEST(SweepGridTest, TapHopsTruncateThePath) {
  SweepGrid grid;
  grid.environment = SweepGrid::Environment::kWan;
  grid.hours = {12.0};
  grid.tap_hops = {0, 4, 100};
  const auto specs = grid.expand();
  ASSERT_EQ(specs.size(), 3u);
  EXPECT_EQ(specs[0].scenario.base.hops_before_tap.size(), 0u);
  EXPECT_EQ(specs[1].scenario.base.hops_before_tap.size(), 4u);
  // Clamped to the WAN path's actual length (15 hops).
  EXPECT_EQ(specs[2].scenario.base.hops_before_tap.size(), 15u);
}

TEST(PiatSourceTest, BatchedPullsMatchOneBigPull) {
  // The backend streams contiguously: pulling 3 x 400 PIATs gives exactly
  // the same series as pulling 1200 at once.
  const auto scenario = lab_zero_cross(make_cit());
  auto batched_src = sim_backend().open(scenario, 0, /*seed=*/7, /*salt=*/1);
  std::vector<double> batched;
  for (int i = 0; i < 3; ++i) {
    EXPECT_EQ(batched_src->collect(400, batched), 400u);
  }

  auto oneshot_src = sim_backend().open(scenario, 0, 7, 1);
  std::vector<double> oneshot;
  EXPECT_EQ(oneshot_src->collect(1200, oneshot), 1200u);

  EXPECT_EQ(batched, oneshot);
}

TEST(PiatSourceTest, StreamsAreKeyedBySeedSaltAndClass) {
  const auto scenario = lab_zero_cross(make_cit());
  std::vector<double> base, other_seed, other_salt, other_class, same;
  sim_backend().open(scenario, 0, 7, 1)->collect(200, base);
  sim_backend().open(scenario, 0, 8, 1)->collect(200, other_seed);
  sim_backend().open(scenario, 0, 7, 2)->collect(200, other_salt);
  sim_backend().open(scenario, 1, 7, 1)->collect(200, other_class);
  sim_backend().open(scenario, 0, 7, 1)->collect(200, same);
  EXPECT_EQ(base, same);
  EXPECT_NE(base, other_seed);
  EXPECT_NE(base, other_salt);
  EXPECT_NE(base, other_class);
}

TEST(ExperimentEngineTest, BatchSizeDoesNotChangeResults) {
  ExperimentSpec spec;
  spec.scenario = lab_zero_cross(make_cit());
  spec.plan.adversary.feature = classify::FeatureKind::kSampleVariance;
  spec.plan.adversary.window_size = 100;
  spec.plan.train_windows = 10;
  spec.plan.test_windows = 10;
  spec.seed = 3;

  const auto small_batches = ExperimentEngine(sim_backend(), 256).run(spec);
  const auto big_batches = ExperimentEngine(sim_backend(), 1 << 20).run(spec);
  expect_identical(small_batches, big_batches);
}

}  // namespace
}  // namespace linkpad::core
