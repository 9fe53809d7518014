#include "stats/kde.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <cstring>
#include <limits>
#include <vector>

#include "stats/distributions.hpp"
#include "util/check.hpp"
#include "util/rng.hpp"

namespace linkpad::stats {
namespace {

std::vector<double> normal_sample(double mu, double sigma, int n,
                                  std::uint64_t seed) {
  util::Xoshiro256pp rng(seed);
  Normal dist(mu, sigma);
  std::vector<double> xs(n);
  for (auto& x : xs) x = dist.sample(rng);
  return xs;
}

TEST(GaussianKde, IntegratesToOne) {
  const auto xs = normal_sample(0.0, 1.0, 2000, 3);
  GaussianKde kde(xs);
  // Trapezoid over ±8 sigma.
  double mass = 0.0;
  const double lo = -8.0, hi = 8.0;
  const int steps = 4000;
  const double dx = (hi - lo) / steps;
  for (int i = 0; i <= steps; ++i) {
    const double w = (i == 0 || i == steps) ? 0.5 : 1.0;
    mass += w * kde.pdf(lo + i * dx) * dx;
  }
  EXPECT_NEAR(mass, 1.0, 1e-3);
}

TEST(GaussianKde, RecoversNormalDensity) {
  const auto xs = normal_sample(2.0, 0.5, 20000, 5);
  GaussianKde kde(xs);
  Normal truth(2.0, 0.5);
  for (double x : {1.0, 1.5, 2.0, 2.5, 3.0}) {
    EXPECT_NEAR(kde.pdf(x), truth.pdf(x), 0.05) << x;
  }
}

TEST(GaussianKde, SilvermanBandwidthMatchesFormula) {
  const auto xs = normal_sample(0.0, 1.0, 1000, 7);
  const double h = select_bandwidth(xs, BandwidthRule::kSilverman);
  // 0.9 * min(sd, iqr/1.34) * n^{-1/5}; with normal data both ≈ sigma.
  EXPECT_GT(h, 0.9 * 0.8 * std::pow(1000.0, -0.2));
  EXPECT_LT(h, 0.9 * 1.2 * std::pow(1000.0, -0.2));
}

TEST(GaussianKde, ScottBandwidthLargerThanSilvermanOnNormal) {
  const auto xs = normal_sample(0.0, 1.0, 1000, 9);
  EXPECT_GT(select_bandwidth(xs, BandwidthRule::kScott),
            select_bandwidth(xs, BandwidthRule::kSilverman));
}

TEST(GaussianKde, FixedBandwidthIsUsedVerbatim) {
  const std::vector<double> xs = {0.0, 1.0, 2.0};
  GaussianKde kde(xs, BandwidthRule::kFixed, 0.37);
  EXPECT_DOUBLE_EQ(kde.bandwidth(), 0.37);
}

TEST(GaussianKde, FixedRuleRequiresPositiveBandwidth) {
  const std::vector<double> xs = {0.0, 1.0};
  EXPECT_THROW(GaussianKde(xs, BandwidthRule::kFixed, 0.0), ContractViolation);
}

TEST(GaussianKde, DegenerateConstantSampleStaysFinite) {
  const std::vector<double> xs = {5.0, 5.0, 5.0, 5.0};
  GaussianKde kde(xs);
  EXPECT_GT(kde.pdf(5.0), 0.0);
  EXPECT_TRUE(std::isfinite(kde.pdf(5.0)));
}

TEST(GaussianKde, LogPdfFiniteFarFromData) {
  const auto xs = normal_sample(0.0, 1.0, 100, 11);
  GaussianKde kde(xs);
  const double lp = kde.log_pdf(1000.0);
  EXPECT_TRUE(std::isfinite(lp));
  EXPECT_LT(lp, kde.log_pdf(0.0));
}

TEST(GaussianKde, LogPdfOrdersByDistanceOutsideSupport) {
  const auto xs = normal_sample(0.0, 0.1, 200, 13);
  GaussianKde kde(xs);
  EXPECT_GT(kde.log_pdf(50.0), kde.log_pdf(100.0));
}

TEST(GaussianKde, EmptySampleRejected) {
  const std::vector<double> empty;
  EXPECT_THROW(GaussianKde{empty}, ContractViolation);
}

class KdeBandwidthSweep : public ::testing::TestWithParam<double> {};

TEST_P(KdeBandwidthSweep, MassStaysNormalizedAcrossBandwidths) {
  const auto xs = normal_sample(0.0, 1.0, 500, 21);
  GaussianKde kde(xs, BandwidthRule::kFixed, GetParam());
  double mass = 0.0;
  const double lo = -12.0, hi = 12.0;
  const int steps = 6000;
  const double dx = (hi - lo) / steps;
  for (int i = 0; i <= steps; ++i) {
    mass += kde.pdf(lo + i * dx) * dx;
  }
  EXPECT_NEAR(mass, 1.0, 5e-3) << "bandwidth " << GetParam();
}

INSTANTIATE_TEST_SUITE_P(Bandwidths, KdeBandwidthSweep,
                         ::testing::Values(0.05, 0.2, 0.5, 1.0));

// ------------------------------------------- lane-summed enclosures

TEST(GaussianKde, LogPdfEnclosureContainsExactValue) {
  // log_pdf_bounds must contain the double log_pdf returns at every query:
  // samples of 2–2000 points at scales 1e-12–1e3 (PIAT variances are
  // ~1e-10) under all three bandwidth rules, queried near the data, at
  // both ends of the sorted sample (windows of every length mod 4 that
  // stop at the first or the last kernel, so a sanitizer sees any read
  // past the sample), far away (empty windows) and at NaN / ±inf.
  util::Xoshiro256pp rng(1903);
  constexpr double kInf = std::numeric_limits<double>::infinity();
  std::size_t queries = 0;
  std::size_t lane_sums = 0;
  std::size_t failures = 0;
  std::string first_failure;
  // [0] windows starting at the first kernel, [1] ending at the last one;
  // indexed by the lane-summed window length mod 4.
  std::array<std::array<std::size_t, 4>, 2> end_cover{};
  const BandwidthRule rules[] = {BandwidthRule::kSilverman,
                                 BandwidthRule::kScott, BandwidthRule::kFixed};
  for (std::size_t set = 0; queries < 400000; ++set) {
    const auto n = static_cast<std::size_t>(
        std::exp(rng.uniform(std::log(2.0), std::log(2000.5))));
    const double scale = std::pow(10.0, rng.uniform(-12.0, 3.0));
    const double center = scale * std::pow(10.0, rng.uniform(-1.0, 6.0)) *
                          (rng.uniform01() < 0.5 ? -1.0 : 1.0);
    std::vector<double> data(n);
    for (auto& x : data) x = center + scale * sample_standard_normal(rng);
    const BandwidthRule rule = rules[set % 3];
    const GaussianKde kde(data, rule, scale * rng.uniform(0.02, 2.0));
    std::sort(data.begin(), data.end());
    const double h = kde.bandwidth();

    const auto check = [&](double x) {
      ++queries;
      const double v = kde.log_pdf(x);
      const LogPdfBounds b = kde.log_pdf_bounds(x);
      bool ok = false;
      if (std::memcmp(&b.lo, &b.hi, sizeof(double)) == 0) {
        ok = std::memcmp(&b.lo, &v, sizeof(double)) == 0 ||
             (std::isnan(b.lo) && std::isnan(v));
      } else {
        ++lane_sums;
        ok = b.lo <= v && v <= b.hi &&
             b.hi - b.lo <= 2.0 * GaussianKde::kLaneHalfWidth + 1e-12;
        const auto first = std::lower_bound(data.begin(), data.end(),
                                            x - 8.0 * h);
        const auto last = std::upper_bound(first, data.end(), x + 8.0 * h);
        const auto residue = static_cast<std::size_t>(last - first) % 4;
        if (first == data.begin()) ++end_cover[0][residue];
        if (last == data.end()) ++end_cover[1][residue];
      }
      if (!ok && failures++ == 0) {
        char buf[256];
        std::snprintf(buf, sizeof buf,
                      "set %zu (n %zu, h %a): x %a, log_pdf %a, [%a, %a]",
                      set, n, h, x, v, b.lo, b.hi);
        first_failure = buf;
      }
    };

    for (int q = 0; q < 48; ++q) {
      const double near = data[rng() % n];
      check(near + h * rng.uniform(-3.0, 3.0));
      check(center + 1.5 * scale * sample_standard_normal(rng));
    }
    // Windows that stop at the first / last kernel, of length j.
    for (std::size_t j = 1; j < std::min<std::size_t>(n, 14); ++j) {
      check(0.5 * (data[j - 1] + data[j]) - 8.0 * h);
      check(0.5 * (data[n - j] + data[n - j - 1]) + 8.0 * h);
    }
    for (const double edge : {data.front(), data.back()}) {
      for (const double offset : {-8.0, -1.0, 0.0, 1.0, 8.0}) {
        check(edge + offset * h);
      }
    }
    check(center + 1e4 * scale + 100.0 * h);  // beyond every kernel
    check(center - 1e4 * scale - 100.0 * h);
    check(std::numeric_limits<double>::quiet_NaN());
    check(kInf);
    check(-kInf);
  }
  EXPECT_EQ(failures, 0u) << first_failure;
  if (kde_sums_in_lanes()) {
    EXPECT_GT(lane_sums, queries / 2);
    for (std::size_t end = 0; end < 2; ++end) {
      for (std::size_t r = 0; r < 4; ++r) {
        EXPECT_GT(end_cover[end][r], 0u)
            << "end " << end << ", m mod 4 = " << r;
      }
    }
  }
}

}  // namespace
}  // namespace linkpad::stats
