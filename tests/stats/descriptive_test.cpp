#include "stats/descriptive.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <vector>

#include "util/check.hpp"
#include "util/rng.hpp"

namespace linkpad::stats {
namespace {

TEST(RunningStats, MatchesNaiveMeanAndVariance) {
  const std::vector<double> xs = {1.0, 2.0, 4.0, 8.0, 16.0};
  RunningStats rs;
  for (double x : xs) rs.add(x);
  EXPECT_DOUBLE_EQ(rs.mean(), mean(xs));
  EXPECT_NEAR(rs.variance(), sample_variance(xs), 1e-12);
  EXPECT_DOUBLE_EQ(rs.min(), 1.0);
  EXPECT_DOUBLE_EQ(rs.max(), 16.0);
}

TEST(RunningStats, MergeEqualsSequential) {
  util::Xoshiro256pp rng(3);
  std::vector<double> xs(5000);
  for (auto& x : xs) x = rng.uniform(-5.0, 5.0);

  RunningStats all;
  for (double x : xs) all.add(x);

  RunningStats a, b;
  for (std::size_t i = 0; i < xs.size(); ++i) {
    (i < 1700 ? a : b).add(xs[i]);
  }
  a.merge(b);

  EXPECT_EQ(a.count(), all.count());
  EXPECT_NEAR(a.mean(), all.mean(), 1e-12);
  EXPECT_NEAR(a.variance(), all.variance(), 1e-10);
  EXPECT_NEAR(a.skewness(), all.skewness(), 1e-8);
  EXPECT_NEAR(a.excess_kurtosis(), all.excess_kurtosis(), 1e-8);
}

TEST(RunningStats, MergeWithEmptyIsIdentity) {
  RunningStats a;
  a.add(1.0);
  a.add(2.0);
  RunningStats empty;
  a.merge(empty);
  EXPECT_EQ(a.count(), 2u);
  RunningStats b;
  b.merge(a);
  EXPECT_EQ(b.count(), 2u);
  EXPECT_DOUBLE_EQ(b.mean(), 1.5);
}

TEST(RunningStats, SymmetricDataHasZeroSkew) {
  RunningStats rs;
  for (double x : {-2.0, -1.0, 0.0, 1.0, 2.0}) rs.add(x);
  EXPECT_NEAR(rs.skewness(), 0.0, 1e-12);
}

TEST(RunningStats, GaussianSampleMomentsMatchTheory) {
  util::Xoshiro256pp rng(5);
  RunningStats rs;
  for (int i = 0; i < 200000; ++i) {
    // Box-Muller-free: sum of 12 uniforms minus 6 is near-normal; good
    // enough for moment sanity at this tolerance.
    double s = 0.0;
    for (int k = 0; k < 12; ++k) s += rng.uniform01();
    rs.add(s - 6.0);
  }
  EXPECT_NEAR(rs.mean(), 0.0, 0.01);
  EXPECT_NEAR(rs.variance(), 1.0, 0.02);
  EXPECT_NEAR(rs.skewness(), 0.0, 0.05);
}

TEST(RunningStats, PreconditionsFire) {
  RunningStats rs;
  EXPECT_THROW((void)rs.mean(), ContractViolation);
  rs.add(1.0);
  EXPECT_THROW((void)rs.variance(), ContractViolation);
}

TEST(Descriptive, QuantileSortedInterpolates) {
  const std::vector<double> xs = {0.0, 1.0, 2.0, 3.0, 4.0};
  EXPECT_DOUBLE_EQ(quantile_sorted(xs, 0.0), 0.0);
  EXPECT_DOUBLE_EQ(quantile_sorted(xs, 1.0), 4.0);
  EXPECT_DOUBLE_EQ(quantile_sorted(xs, 0.5), 2.0);
  EXPECT_DOUBLE_EQ(quantile_sorted(xs, 0.625), 2.5);
}

TEST(Descriptive, MedianOddAndEven) {
  EXPECT_DOUBLE_EQ(median(std::vector<double>{3.0, 1.0, 2.0}), 2.0);
  EXPECT_DOUBLE_EQ(median(std::vector<double>{4.0, 1.0, 2.0, 3.0}), 2.5);
}

TEST(Descriptive, QuantileNextToAnInfinityIsNotNan) {
  // At an exact position the interpolation partner has weight zero; an
  // infinite partner must not turn that into inf · 0 = NaN.
  const double inf = std::numeric_limits<double>::infinity();
  EXPECT_EQ(median(std::vector<double>{1.0, 2.0, inf}), 2.0);
  EXPECT_EQ(iqr(std::vector<double>{1.0, 2.0, 3.0, 4.0, inf}), 2.0);
  EXPECT_EQ(mad(std::vector<double>{1.0, 2.0, inf}), 1.0);
}

std::uint64_t bits(double x) {
  std::uint64_t out = 0;
  std::memcpy(&out, &x, sizeof out);
  return out;
}

/// median / iqr / mad as sort-then-quantile_sorted: the reference the
/// selection in descriptive.cpp must match bit for bit.
double sorted_median(std::vector<double> xs) {
  std::sort(xs.begin(), xs.end());
  return quantile_sorted(xs, 0.5);
}

double sorted_iqr(std::vector<double> xs) {
  std::sort(xs.begin(), xs.end());
  return quantile_sorted(xs, 0.75) - quantile_sorted(xs, 0.25);
}

double sorted_mad(const std::vector<double>& xs) {
  const double med = sorted_median(xs);
  std::vector<double> dev;
  for (const double x : xs) dev.push_back(std::abs(x - med));
  return sorted_median(dev);
}

TEST(Descriptive, SelectionEqualsSortingBitForBit) {
  // Heavy ties (a handful of levels) as well as continuous draws. Every
  // value is finite and no input holds -0 (std::sort leaves the order of
  // +0 and -0 unspecified, so neither side could be pinned).
  util::Xoshiro256pp rng(20030324);
  std::vector<std::size_t> sizes;
  for (std::size_t n = 1; n <= 64; ++n) sizes.push_back(n);
  for (const std::size_t n : {100u, 200u, 400u, 4096u}) sizes.push_back(n);
  std::size_t cases = 0;
  for (const std::size_t n : sizes) {
    for (const std::uint64_t levels : {1u, 2u, 3u, 5u, 17u, 0u}) {
      std::vector<double> xs(n);
      for (auto& x : xs) {
        x = levels == 0 ? rng.uniform(-1.0, 3.0)
                        : static_cast<double>(rng() % levels) * 0.5 - 1.0;
      }
      const std::vector<double> original = xs;
      EXPECT_EQ(bits(median(xs)), bits(sorted_median(xs)))
          << "median n " << n << " levels " << levels;
      EXPECT_EQ(bits(iqr(xs)), bits(sorted_iqr(xs)))
          << "iqr n " << n << " levels " << levels;
      EXPECT_EQ(bits(mad(xs)), bits(sorted_mad(xs)))
          << "mad n " << n << " levels " << levels;
      EXPECT_EQ(xs, original) << "the input must stay untouched";
      ++cases;
    }
  }
  EXPECT_EQ(cases, 68u * 6u);
}

TEST(Descriptive, IqrOfUniformGrid) {
  std::vector<double> xs;
  for (int i = 0; i <= 100; ++i) xs.push_back(i);
  EXPECT_NEAR(iqr(xs), 50.0, 1e-9);
}

TEST(Descriptive, SampleVarianceUsesUnbiasedDenominator) {
  // Var of {0, 2} with n-1 denominator is 2, not 1.
  EXPECT_DOUBLE_EQ(sample_variance(std::vector<double>{0.0, 2.0}), 2.0);
}

TEST(Descriptive, SummarizeAgreesWithPieces) {
  const std::vector<double> xs = {1.0, 5.0, 2.0, 8.0, 3.0};
  const auto s = summarize(xs);
  EXPECT_EQ(s.count, xs.size());
  EXPECT_DOUBLE_EQ(s.mean, mean(xs));
  EXPECT_NEAR(s.variance, sample_variance(xs), 1e-12);
  EXPECT_DOUBLE_EQ(s.min, 1.0);
  EXPECT_DOUBLE_EQ(s.max, 8.0);
}

TEST(Descriptive, EmptySpanViolatesContract) {
  const std::vector<double> empty;
  EXPECT_THROW(mean(empty), ContractViolation);
  const std::vector<double> one = {1.0};
  EXPECT_THROW(sample_variance(one), ContractViolation);
}


TEST(RunningStats, ForkResumesBitIdentically) {
  // The prefix-replay engine forks the shared training moments at each
  // sample-size boundary; the snapshot must continue exactly like the
  // uninterrupted accumulator.
  std::vector<double> xs;
  util::Xoshiro256pp rng(17);
  for (int i = 0; i < 3000; ++i) xs.push_back(rng.uniform(0.0, 2.0));

  RunningStats uninterrupted;
  RunningStats first_half;
  for (int i = 0; i < 1500; ++i) {
    uninterrupted.add(xs[static_cast<std::size_t>(i)]);
    first_half.add(xs[static_cast<std::size_t>(i)]);
  }
  RunningStats fork = first_half.fork();
  for (int i = 1500; i < 3000; ++i) {
    uninterrupted.add(xs[static_cast<std::size_t>(i)]);
    fork.add(xs[static_cast<std::size_t>(i)]);
  }
  EXPECT_EQ(fork.count(), uninterrupted.count());
  EXPECT_EQ(fork.mean(), uninterrupted.mean());
  EXPECT_EQ(fork.variance(), uninterrupted.variance());
  EXPECT_EQ(fork.skewness(), uninterrupted.skewness());
  EXPECT_EQ(fork.excess_kurtosis(), uninterrupted.excess_kurtosis());
  // The snapshot did not disturb its source.
  EXPECT_EQ(first_half.count(), 1500u);
}

}  // namespace
}  // namespace linkpad::stats
