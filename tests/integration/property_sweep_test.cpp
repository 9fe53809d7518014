// Cross-module property sweeps (TEST_P): invariants that must hold across
// parameter ranges, not just at hand-picked points.
#include <gtest/gtest.h>

#include <cmath>
#include <tuple>

#include "analysis/theory.hpp"
#include "classify/adversary.hpp"
#include "core/experiment.hpp"
#include "core/piat_model.hpp"
#include "core/scenarios.hpp"
#include "sim/testbed.hpp"
#include "util/rng.hpp"

namespace linkpad {
namespace {

// ---------------------------------------------------------------------
// Determinism: identical spec + seed => identical result, across seeds and
// scenario kinds (the foundation of every figure's reproducibility).

class DeterminismSweep
    : public ::testing::TestWithParam<std::tuple<std::uint64_t, int>> {};

TEST_P(DeterminismSweep, ExperimentIsAPureFunctionOfSpec) {
  const auto [seed, scenario_kind] = GetParam();
  core::ExperimentSpec spec;
  switch (scenario_kind) {
    case 0: spec.scenario = core::lab_zero_cross(core::make_cit()); break;
    case 1: spec.scenario = core::lab_zero_cross(core::make_vit(30e-6)); break;
    default: spec.scenario = core::lab_cross_traffic(core::make_cit(), 0.3);
  }
  spec.plan.adversary.feature = classify::FeatureKind::kSampleVariance;
  spec.plan.adversary.window_size = 300;
  spec.plan.train_windows = 25;
  spec.plan.test_windows = 25;
  spec.seed = seed;

  const auto a = core::ExperimentEngine().run(spec);
  const auto b = core::ExperimentEngine().run(spec);
  EXPECT_DOUBLE_EQ(a.primary().detection_rate, b.primary().detection_rate);
  EXPECT_DOUBLE_EQ(a.top().r_hat, b.top().r_hat);
  EXPECT_DOUBLE_EQ(a.piat_var_low, b.piat_var_low);
}

INSTANTIATE_TEST_SUITE_P(
    SeedsAndScenarios, DeterminismSweep,
    ::testing::Combine(::testing::Values(1u, 42u, 20030324u),
                       ::testing::Values(0, 1, 2)));

// ---------------------------------------------------------------------
// Perfect-secrecy invariant: across every scenario preset, the first-order
// observables of the wire (rate, PIAT mean) are payload-independent.

class SecrecyInvariantSweep : public ::testing::TestWithParam<int> {};

TEST_P(SecrecyInvariantSweep, WireLooksIdenticalAcrossPayloadRates) {
  core::Scenario scenario;
  switch (GetParam()) {
    case 0: scenario = core::lab_zero_cross(core::make_cit()); break;
    case 1: scenario = core::lab_cross_traffic(core::make_cit(), 0.4); break;
    case 2: scenario = core::campus(core::make_cit(), 14.0); break;
    default: scenario = core::wan(core::make_cit(), 14.0);
  }
  double means[2];
  for (std::size_t c = 0; c < 2; ++c) {
    util::RngFactory factory(5);
    auto rng = factory.make(c);
    sim::Testbed bed(scenario.config_for(c), rng);
    means[c] = stats::mean(bed.collect_piats(8000));
  }
  EXPECT_NEAR(means[0], means[1], 8e-6) << scenario.name;
  EXPECT_NEAR(means[0], core::constants::kTau, 5e-5) << scenario.name;
}

INSTANTIATE_TEST_SUITE_P(Scenarios, SecrecyInvariantSweep,
                         ::testing::Values(0, 1, 2, 3));

// ---------------------------------------------------------------------
// Monotone protection: increasing sigma_T can only lower (never raise)
// the PREDICTED variance ratio and detection rates of the whole system.

class SigmaMonotoneSweep : public ::testing::TestWithParam<double> {};

TEST_P(SigmaMonotoneSweep, MoreTimerSpreadNeverHurts) {
  const double sigma = GetParam();
  const auto base = core::lab_zero_cross(core::make_vit(sigma));
  const auto more = core::lab_zero_cross(core::make_vit(sigma * 2.0));
  const auto r_base =
      core::predict_components(base.config_for(0), base.config_for(1)).ratio();
  const auto r_more =
      core::predict_components(more.config_for(0), more.config_for(1)).ratio();
  EXPECT_LE(r_more, r_base + 1e-12);
  for (double n : {200.0, 2000.0}) {
    EXPECT_LE(analysis::detection_rate_variance_clt(r_more, n),
              analysis::detection_rate_variance_clt(r_base, n) + 1e-9);
    EXPECT_LE(analysis::detection_rate_entropy(r_more, n),
              analysis::detection_rate_entropy(r_base, n) + 1e-9);
  }
}

INSTANTIATE_TEST_SUITE_P(Sigmas, SigmaMonotoneSweep,
                         ::testing::Values(2e-6, 10e-6, 50e-6, 200e-6));

// ---------------------------------------------------------------------
// Theory consistency: across the (r, n) plane the CLT law dominates the
// clamped theorem estimate whenever the theorem clamps, and both live in
// [0.5, 1].

class TheoryPlaneSweep
    : public ::testing::TestWithParam<std::tuple<double, double>> {};

TEST_P(TheoryPlaneSweep, CltAndTheoremFormsAreConsistent) {
  const auto [r, n] = GetParam();
  const double thm_v = analysis::detection_rate_variance(r, n);
  const double clt_v = analysis::detection_rate_variance_clt(r, n);
  const double thm_h = analysis::detection_rate_entropy(r, n);
  const double clt_h = analysis::detection_rate_entropy_clt(r, n);
  for (double v : {thm_v, clt_v, thm_h, clt_h}) {
    EXPECT_GE(v, 0.5);
    EXPECT_LE(v, 1.0);
  }
  // When the theorem is clamped at 0.5 the CLT form must dominate it.
  if (thm_v == 0.5) EXPECT_GE(clt_v, thm_v);
  if (thm_h == 0.5) EXPECT_GE(clt_h, thm_h);
  // Both CLT forms increase with n.
  EXPECT_LE(clt_v, analysis::detection_rate_variance_clt(r, n * 4.0) + 1e-9);
  EXPECT_LE(clt_h, analysis::detection_rate_entropy_clt(r, n * 4.0) + 1e-9);
}

INSTANTIATE_TEST_SUITE_P(
    Plane, TheoryPlaneSweep,
    ::testing::Combine(::testing::Values(1.01, 1.1, 1.3, 2.0, 5.0),
                       ::testing::Values(50.0, 500.0, 5000.0)));

// ---------------------------------------------------------------------
// Thread-count independence: a sweep executed via the pool must equal the
// same sweep executed serially (counter-based RNG substreams).

TEST(ParallelReproducibility, SweepEqualsSerialExecution) {
  std::vector<core::ExperimentSpec> specs;
  for (int i = 0; i < 4; ++i) {
    core::ExperimentSpec spec;
    spec.scenario = core::lab_zero_cross(core::make_cit());
    spec.plan.adversary.feature = classify::FeatureKind::kSampleEntropy;
    spec.plan.adversary.window_size = 250;
    spec.plan.train_windows = 20;
    spec.plan.test_windows = 20;
    spec.seed = 100 + static_cast<std::uint64_t>(i);
    specs.push_back(std::move(spec));
  }
  const auto parallel = core::SweepRunner().run(specs);
  for (std::size_t i = 0; i < specs.size(); ++i) {
    const auto serial = core::ExperimentEngine().run(specs[i]);
    EXPECT_DOUBLE_EQ(parallel[i].primary().detection_rate,
                     serial.primary().detection_rate)
        << i;
    EXPECT_DOUBLE_EQ(parallel[i].top().r_hat, serial.top().r_hat) << i;
  }
}

}  // namespace
}  // namespace linkpad
