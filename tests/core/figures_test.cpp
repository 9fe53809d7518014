// Shape tests for every reproduced figure, run at reduced effort. These
// encode what "the reproduction matches the paper" MEANS, mechanically:
// who wins, what is flat, what rises or falls, and roughly where.
#include "core/figures.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <stdexcept>
#include <string>

namespace linkpad::core {
namespace {

FigureOptions quick() {
  FigureOptions o;
  o.effort = 0.15;
  o.seed = 5;
  return o;
}

TEST(Fig4a, BellShapedSameMeanDifferentVariance) {
  const auto fig = fig4a_piat_pdf(quick());
  // Same mean (tau = 10 ms) at both rates.
  EXPECT_NEAR(fig.summary_low.mean, 10e-3, 2e-5);
  EXPECT_NEAR(fig.summary_high.mean, fig.summary_low.mean, 5e-6);
  // Variance ratio near the calibrated r ~ 1.3.
  EXPECT_GT(fig.r_hat, 1.1);
  EXPECT_LT(fig.r_hat, 1.6);
  // Roughly symmetric around the mean (bell-shaped).
  EXPECT_NEAR(fig.summary_low.skewness, 0.0, 0.5);
  // KDE curves integrate to ~1 over the grid.
  double mass = 0.0;
  for (std::size_t i = 1; i < fig.grid.size(); ++i) {
    mass += fig.pdf_low[i] * (fig.grid[i] - fig.grid[i - 1]);
  }
  EXPECT_NEAR(mass, 1.0, 0.15);
}

TEST(Fig4b, MeanFlatVarianceAndEntropyRise) {
  const auto fig = fig4b_detection_vs_n(quick());
  const auto& mean_exp = fig.curve("sample mean experiment").y;
  const auto& var_exp = fig.curve("sample variance experiment").y;
  const auto& ent_exp = fig.curve("sample entropy experiment").y;
  const auto& var_thy = fig.curve("sample variance theory").y;

  // Sample mean hovers near 0.5 at every n.
  for (double v : mean_exp) EXPECT_NEAR(v, 0.5, 0.15);
  // Variance and entropy climb with n and end high.
  EXPECT_GT(var_exp.back(), 0.9);
  EXPECT_GT(ent_exp.back(), 0.9);
  EXPECT_GT(var_exp.back(), var_exp.front() - 0.05);
  // Experiment tracks theory (the paper's headline validation). Small n
  // sits in the regime where Theorem 2's Chebyshev-style estimate
  // undershoots the adversary (see theory.hpp) — with the prefix-replay
  // axis the small-n points get many more test windows from the shared
  // capture, so their rates are tight enough to expose that one-sided
  // undershoot; assert the direction there and closeness from n = 400 on.
  for (std::size_t i = 0; i < var_exp.size(); ++i) {
    if (fig.x[i] >= 400.0) {
      EXPECT_NEAR(var_exp[i], var_thy[i], 0.2) << "n = " << fig.x[i];
    } else {
      EXPECT_GT(var_exp[i], var_thy[i] - 0.1) << "n = " << fig.x[i];
    }
  }
}

TEST(Fig5a, DetectionCollapsesAsSigmaGrows) {
  const auto fig = fig5a_detection_vs_sigma(quick());
  const auto& var_exp = fig.curve("sample variance experiment").y;
  const auto& ent_exp = fig.curve("sample entropy experiment").y;
  // Small sigma_T: still detectable. Large sigma_T: near coin flip (the
  // handful of windows at quick effort leaves ~0.05 sampling noise on the
  // empirical rate, so "collapsed" is asserted with slack).
  EXPECT_GT(var_exp.front(), 0.8);
  EXPECT_LT(var_exp.back(), 0.65);
  EXPECT_GT(ent_exp.front(), 0.8);
  EXPECT_LT(ent_exp.back(), 0.65);
}

TEST(Fig5b, SampleSizeExplodesWithSigmaT) {
  const auto fig = fig5b_n99_vs_sigma(FigureOptions{});
  const auto& var_n = fig.curve("sample variance").y;
  const auto& ent_n = fig.curve("sample entropy").y;
  ASSERT_EQ(fig.x.size(), var_n.size());
  // Monotone increasing in sigma_T.
  for (std::size_t i = 1; i < var_n.size(); ++i) {
    EXPECT_GE(var_n[i], var_n[i - 1]);
    EXPECT_GE(ent_n[i], ent_n[i - 1]);
  }
  // Paper anchor: n(99%) > 1e11 at sigma_T = 1 ms (the last sweep point).
  EXPECT_NEAR(fig.x.back(), 1e-3, 1e-9);
  EXPECT_GT(var_n.back(), 1e11);
  EXPECT_GT(ent_n.back(), 1e11);
  // ... but tractable (< 1e6) at sigma_T ~ 1 us.
  EXPECT_LT(ent_n.front(), 1e6);
}

TEST(Fig5bEmpirical, MeasuredN99GrowsWithSigmaAndTracksTheoryDirection) {
  const auto fig = fig5b_n99_vs_sigma_empirical(quick());
  const auto& var_emp = fig.curve("sample variance empirical").y;
  const auto& var_thy = fig.curve("sample variance theory").y;
  ASSERT_EQ(fig.x.size(), var_emp.size());
  ASSERT_EQ(fig.x.size(), var_thy.size());

  // Weak padding (smallest sigma): the adversary reaches 99% within the
  // axis (granularity is coarse at quick effort — few windows per rate).
  ASSERT_TRUE(std::isfinite(var_emp.front()));
  EXPECT_LE(var_emp.front(), 3000.0);
  // Strong padding (largest sigma): theory demands more samples than weak
  // padding did — the n(99%) inversion the figure exists to show. The
  // empirical curve either grows too or goes off scale (NaN: never 99%).
  EXPECT_GT(var_thy.back(), var_thy.front());
  if (std::isfinite(var_emp.back())) {
    EXPECT_GE(var_emp.back(), var_emp.front());
  }
  // Finite measured points sit on the evaluated axis.
  for (const double v : var_emp) {
    if (std::isfinite(v)) EXPECT_GE(v, 100.0);
  }
}

TEST(Fig6, DetectionDecreasesWithUtilization) {
  const auto fig = fig6_detection_vs_utilization(quick());
  const auto& var = fig.curve("sample variance").y;
  const auto& ent = fig.curve("sample entropy").y;
  const auto& mean = fig.curve("sample mean").y;
  // Low utilization: strong detection; high: weakened substantially.
  EXPECT_GT(ent.front(), 0.85);
  EXPECT_LT(ent.back(), ent.front() - 0.1);
  EXPECT_LT(var.back(), var.front() - 0.1);
  // The mean feature hovers near chance (wider margin at quick effort:
  // few training windows make the KDE boundary noisy).
  for (double v : mean) EXPECT_NEAR(v, 0.5, 0.18);
}

TEST(Fig8, CampusStaysHotWanCoolsDown) {
  auto opts = quick();
  const auto campus_fig = fig8_detection_vs_hour(false, opts);
  const auto wan_fig = fig8_detection_vs_hour(true, opts);
  const auto& campus_ent = campus_fig.curve("sample entropy").y;
  const auto& wan_ent = wan_fig.curve("sample entropy").y;

  // Campus: high detection essentially all day (paper: don't use CIT there).
  double campus_min = 1.0;
  for (double v : campus_ent) campus_min = std::min(campus_min, v);
  EXPECT_GT(campus_min, 0.6);

  // WAN: clearly weaker than campus during the afternoon peak.
  double campus_avg = 0.0, wan_avg = 0.0;
  for (double v : campus_ent) campus_avg += v;
  for (double v : wan_ent) wan_avg += v;
  campus_avg /= static_cast<double>(campus_ent.size());
  wan_avg /= static_cast<double>(wan_ent.size());
  EXPECT_GT(campus_avg, wan_avg);

  // WAN at night (first slot, 0:00) beats WAN at the 15:00 peak: the
  // paper's "still over 65% at 2:00AM" observation, shape-wise.
  std::size_t peak_idx = 0;
  for (std::size_t i = 0; i < wan_fig.x.size(); ++i) {
    if (std::abs(wan_fig.x[i] - 15.0) < std::abs(wan_fig.x[peak_idx] - 15.0)) {
      peak_idx = i;
    }
  }
  EXPECT_GT(wan_ent.front(), wan_ent[peak_idx] - 0.05);
}

TEST(FigureSeries, CurveLookupByNameThrowsOnMiss) {
  const auto fig = fig5b_n99_vs_sigma(FigureOptions{});
  EXPECT_NO_THROW((void)fig.curve("sample variance"));
  EXPECT_THROW((void)fig.curve("nonexistent"), std::invalid_argument);
}

TEST(FigureOptions, EffortOutsideItsRangeIsRefusedByName) {
  // Negative, zero, NaN and huge efforts would wrap the window counts to
  // about 2^64; each must be refused with an error that names the effort.
  for (const double effort : {-1.0, 0.0, std::nan(""), 1e30}) {
    FigureOptions options;
    options.effort = effort;
    try {
      (void)fig4b_detection_vs_n(options);
      ADD_FAILURE() << "effort " << effort << " was accepted";
    } catch (const std::invalid_argument& error) {
      EXPECT_NE(std::string(error.what()).find("effort"), std::string::npos)
          << error.what();
    }
  }
}

TEST(SharedHelper, DetectionRatesOnScenarioOrdersFeatures) {
  const auto scenario = lab_zero_cross(make_cit());
  const auto rates = detection_rates_on_scenario(
      scenario,
      {classify::FeatureKind::kSampleMean,
       classify::FeatureKind::kSampleVariance},
      400, 50, 50, 3);
  ASSERT_EQ(rates.size(), 2u);
  EXPECT_LT(rates[0], rates[1]);  // mean is blind; variance detects
}

}  // namespace
}  // namespace linkpad::core
