#include "stats/quantile_sketch.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "stats/descriptive.hpp"
#include "stats/distributions.hpp"
#include "util/check.hpp"
#include "util/rng.hpp"

namespace linkpad::stats {
namespace {

std::vector<double> normal_sample(std::size_t n, std::uint64_t seed) {
  util::Rng rng(seed);
  Normal dist(10e-3, 10e-6);
  std::vector<double> xs(n);
  for (auto& x : xs) x = dist.sample(rng);
  return xs;
}

double exact_quantile(std::vector<double> xs, double q) {
  std::sort(xs.begin(), xs.end());
  return quantile_sorted(xs, q);
}

TEST(P2Quantile, ExactForFiveOrFewerSamples) {
  P2Quantile median(0.5);
  const std::vector<double> xs = {5.0, 1.0, 4.0, 2.0, 3.0};
  for (std::size_t i = 0; i < xs.size(); ++i) {
    median.add(xs[i]);
    std::vector<double> prefix(xs.begin(), xs.begin() + i + 1);
    EXPECT_DOUBLE_EQ(median.value(), exact_quantile(prefix, 0.5)) << i;
  }
}

TEST(P2Quantile, TracksNormalQuantilesWithinDocumentedTolerance) {
  const auto xs = normal_sample(20000, 11);
  const double spread = exact_quantile(xs, 0.75) - exact_quantile(xs, 0.25);
  for (const double q : {0.25, 0.5, 0.75, 0.9}) {
    P2Quantile sketch(q);
    for (double x : xs) sketch.add(x);
    EXPECT_EQ(sketch.count(), xs.size());
    // quantile_sketch.hpp documents ~1% relative accuracy; assert a few
    // percent of the IQR so the test has margin without being vacuous.
    EXPECT_NEAR(sketch.value(), exact_quantile(xs, q), 0.05 * spread) << q;
  }
}

TEST(P2Quantile, TracksSkewedDataWithinTolerance) {
  util::Rng rng(12);
  Exponential dist(10e-3);
  std::vector<double> xs(20000);
  for (auto& x : xs) x = dist.sample(rng);
  const double exact = exact_quantile(xs, 0.5);
  P2Quantile sketch(0.5);
  for (double x : xs) sketch.add(x);
  EXPECT_NEAR(sketch.value(), exact, 0.05 * exact);
}

TEST(P2Quantile, ResetForgetsSamplesButKeepsTarget) {
  P2Quantile sketch(0.25);
  for (double x : normal_sample(1000, 13)) sketch.add(x);
  sketch.reset();
  EXPECT_EQ(sketch.count(), 0u);
  EXPECT_DOUBLE_EQ(sketch.quantile(), 0.25);
  sketch.add(7.0);
  EXPECT_DOUBLE_EQ(sketch.value(), 7.0);
}

TEST(P2Quantile, RejectsDegenerateTargets) {
  EXPECT_THROW(P2Quantile(0.0), linkpad::ContractViolation);
  EXPECT_THROW(P2Quantile(1.0), linkpad::ContractViolation);
  EXPECT_THROW((void)P2Quantile(0.5).value(), linkpad::ContractViolation);
}


TEST(P2Quantile, ForkResumesBitIdentically) {
  // Checkpoint contract: fork mid-stream, feed BOTH the same suffix, and
  // they stay exactly equal — while adds to the fork never touch the
  // original.
  const auto xs = normal_sample(5000, 99);
  P2Quantile original(0.5);
  for (std::size_t i = 0; i < 1234; ++i) original.add(xs[i]);

  P2Quantile fork = original.fork();
  EXPECT_EQ(fork.count(), original.count());
  EXPECT_EQ(fork.value(), original.value());

  const double before = original.value();
  P2Quantile scratch = original.fork();
  for (std::size_t i = 1234; i < xs.size(); ++i) scratch.add(xs[i]);
  EXPECT_EQ(original.value(), before);  // fork consumption is independent

  for (std::size_t i = 1234; i < xs.size(); ++i) {
    original.add(xs[i]);
    fork.add(xs[i]);
  }
  EXPECT_EQ(original.count(), fork.count());
  EXPECT_EQ(original.value(), fork.value());
  EXPECT_EQ(scratch.value(), original.value());
}

// ---------------------------------------------------------------- merging

TEST(P2QuantileMerge, ExactWhileCombinedCountAtMostFive) {
  // merge(a, b) == feed(a ∥ b) whenever the combined count still fits the
  // raw-sample phase — every split of a ≤5-sample stream must agree with
  // the serially fed sketch exactly.
  const std::vector<double> xs = {5.0, 1.0, 4.0, 2.0, 3.0};
  for (std::size_t split = 0; split <= xs.size(); ++split) {
    P2Quantile serial(0.5), left(0.5), right(0.5);
    for (std::size_t i = 0; i < xs.size(); ++i) {
      serial.add(xs[i]);
      (i < split ? left : right).add(xs[i]);
    }
    left.merge(right);
    EXPECT_EQ(left.count(), serial.count()) << split;
    EXPECT_DOUBLE_EQ(left.value(), serial.value()) << split;
  }
}

TEST(P2QuantileMerge, EmptySidesAreIdentities) {
  P2Quantile fed(0.25);
  for (double x : normal_sample(500, 21)) fed.add(x);

  P2Quantile left = fed.fork();
  left.merge(P2Quantile(0.25));  // empty right: no-op
  EXPECT_EQ(left.count(), fed.count());
  EXPECT_EQ(left.value(), fed.value());

  P2Quantile empty(0.25);
  empty.merge(fed);  // empty left: adopt the right side wholesale
  EXPECT_EQ(empty.count(), fed.count());
  EXPECT_EQ(empty.value(), fed.value());
}

TEST(P2QuantileMerge, RejectsMismatchedTargets) {
  P2Quantile a(0.25), b(0.75);
  EXPECT_THROW(a.merge(b), linkpad::ContractViolation);
}

TEST(P2QuantileMerge, RawSamplesFoldIntoSummarizedSketchBothWays) {
  // One summarized side (> 5 samples) plus one raw side (≤ 5): the raw
  // samples replay exactly, so both merge orders track the serially fed
  // sketch within the documented tolerance.
  const auto xs = normal_sample(4000, 31);
  const double spread = exact_quantile(xs, 0.75) - exact_quantile(xs, 0.25);
  P2Quantile serial(0.5), big(0.5), small(0.5);
  for (std::size_t i = 0; i < xs.size(); ++i) {
    serial.add(xs[i]);
    (i + 4 < xs.size() ? big : small).add(xs[i]);
  }
  P2Quantile big_into_small = small.fork();
  big_into_small.merge(big);
  P2Quantile small_into_big = big.fork();
  small_into_big.merge(small);
  EXPECT_EQ(small_into_big.count(), xs.size());
  EXPECT_EQ(big_into_small.count(), xs.size());
  EXPECT_NEAR(small_into_big.value(), serial.value(), 0.05 * spread);
  EXPECT_NEAR(big_into_small.value(), serial.value(), 0.05 * spread);
}

TEST(P2QuantileMerge, ToleranceBoundedOnSummarizedHalves) {
  // Property bound for the approximate regime: two summarized halves merged
  // via the 5-marker inverse-CDF replay must land within a bounded fraction
  // of the p05–p95 spread of the exact quantile. The replay linearly
  // interpolates between markers, so the bound is looser on the heavy-tailed
  // exponential stream than on the near-symmetric normal one.
  util::Rng rng(41);
  Exponential expo(10e-3);
  std::vector<double> exp_xs(6000);
  for (auto& x : exp_xs) x = expo.sample(rng);
  const auto norm_xs = normal_sample(6000, 42);

  struct Case {
    const std::vector<double>* xs;
    double tolerance;  // fraction of the exact p05–p95 spread
  };
  for (const Case c : {Case{&norm_xs, 0.1}, Case{&exp_xs, 0.2}}) {
    const std::vector<double>& xs = *c.xs;
    const double spread = exact_quantile(xs, 0.95) - exact_quantile(xs, 0.05);
    for (const double q : {0.05, 0.25, 0.5, 0.75, 0.95}) {
      P2Quantile left(q), right(q);
      for (std::size_t i = 0; i < xs.size(); ++i) {
        (i < xs.size() / 2 ? left : right).add(xs[i]);
      }
      left.merge(right);
      EXPECT_EQ(left.count(), xs.size());
      EXPECT_NEAR(left.value(), exact_quantile(xs, q), c.tolerance * spread)
          << q;
    }
  }
}

TEST(P2QuantileMerge, DeterministicAcrossRepeats) {
  // merge is a pure function of the two sketch states — a fixed-shape
  // reduction tree relies on replays being bit-identical.
  const auto xs = normal_sample(3000, 51);
  auto merged = [&] {
    P2Quantile left(0.75), right(0.75);
    for (std::size_t i = 0; i < xs.size(); ++i) {
      (i % 2 == 0 ? left : right).add(xs[i]);
    }
    left.merge(right);
    return left.value();
  };
  EXPECT_EQ(merged(), merged());
}

}  // namespace
}  // namespace linkpad::stats
