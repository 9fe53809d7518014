#include "stats/histogram.hpp"

#include "util/rng.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <limits>
#include <stdexcept>
#include <string>
#include <vector>

#include "util/check.hpp"

namespace linkpad::stats {
namespace {

TEST(Histogram, CountsLandInCorrectBins) {
  Histogram h(0.0, 10.0, 10);
  h.add(0.5);   // bin 0
  h.add(9.99);  // bin 9
  h.add(5.0);   // bin 5
  EXPECT_EQ(h.count(0), 1u);
  EXPECT_EQ(h.count(9), 1u);
  EXPECT_EQ(h.count(5), 1u);
  EXPECT_EQ(h.total(), 3u);
}

TEST(Histogram, UnderAndOverflowTracked) {
  Histogram h(0.0, 1.0, 4);
  h.add(-0.1);
  h.add(1.0);  // hi is exclusive
  h.add(2.0);
  EXPECT_EQ(h.underflow(), 1u);
  EXPECT_EQ(h.overflow(), 2u);
  EXPECT_EQ(h.total(), 3u);
}

TEST(Histogram, DensityIntegratesToOneInRange) {
  Histogram h(0.0, 1.0, 20);
  for (int i = 0; i < 1000; ++i) h.add((i % 100) / 100.0);
  double mass = 0.0;
  for (std::size_t b = 0; b < h.bins(); ++b) mass += h.density(b) * h.bin_width();
  EXPECT_NEAR(mass, 1.0, 1e-12);
}

TEST(Histogram, FromDataCoversEveryPoint) {
  const std::vector<double> xs = {1.0, 2.0, 3.0, 4.0, 5.0};
  const auto h = Histogram::from_data(xs, 5);
  EXPECT_EQ(h.underflow(), 0u);
  EXPECT_EQ(h.overflow(), 0u);
  EXPECT_EQ(h.total(), xs.size());
}

TEST(Histogram, FromDataHandlesConstantSample) {
  const std::vector<double> xs = {3.0, 3.0, 3.0};
  const auto h = Histogram::from_data(xs, 4);
  EXPECT_EQ(h.total(), 3u);
  EXPECT_EQ(h.underflow() + h.overflow(), 0u);
}

TEST(Histogram, BinCenterIsMidpoint) {
  Histogram h(0.0, 10.0, 10);
  EXPECT_DOUBLE_EQ(h.bin_center(0), 0.5);
  EXPECT_DOUBLE_EQ(h.bin_center(9), 9.5);
}

TEST(Histogram, InvalidConstructionRejected) {
  EXPECT_THROW(Histogram(1.0, 1.0, 4), ContractViolation);
  EXPECT_THROW(Histogram(0.0, 1.0, 0), ContractViolation);
}

TEST(Histogram, MergeEqualsSequentialAdds) {
  // Dense merge is exact: integer counts make merge(a, b) equal feeding
  // a's and b's samples into one histogram, including the out-of-range
  // tallies.
  util::Rng rng(17);
  std::vector<double> first(500), second(300);
  for (auto& x : first) x = rng.uniform(-1.0, 11.0);
  for (auto& x : second) x = rng.uniform(-1.0, 11.0);

  Histogram a(0.0, 10.0, 16), b(0.0, 10.0, 16), combined(0.0, 10.0, 16);
  a.add_all(first);
  b.add_all(second);
  a.merge(b);
  combined.add_all(first);
  combined.add_all(second);

  EXPECT_EQ(a.total(), combined.total());
  EXPECT_EQ(a.underflow(), combined.underflow());
  EXPECT_EQ(a.overflow(), combined.overflow());
  EXPECT_EQ(a.counts(), combined.counts());
}

TEST(Histogram, MergeRejectsShapeMismatch) {
  Histogram a(0.0, 10.0, 16);
  Histogram range(0.0, 9.0, 16);
  Histogram bins(0.0, 10.0, 8);
  EXPECT_THROW(a.merge(range), ContractViolation);
  EXPECT_THROW(a.merge(bins), ContractViolation);
}

TEST(SparseHistogram, BinsAnchoredAtZero) {
  SparseHistogram h(1.0);
  h.add(0.5);    // bin 0
  h.add(1.5);    // bin 1
  h.add(-0.5);   // bin -1
  h.add(0.7);    // bin 0
  ASSERT_EQ(h.occupied_bins(), 3u);
  EXPECT_EQ(h.cells().at(0), 2u);
  EXPECT_EQ(h.cells().at(1), 1u);
  EXPECT_EQ(h.cells().at(-1), 1u);
}

TEST(SparseHistogram, OutliersGetOwnDistantBins) {
  SparseHistogram h(0.001);
  h.add(0.0100);
  h.add(0.0101);
  h.add(5.0);  // far outlier must not be clamped
  EXPECT_EQ(h.occupied_bins(), 2u);
  EXPECT_EQ(h.cells().at(5000), 1u);
}

TEST(BinIndex, EqualsFloorOfTheQuotient) {
  // Truncating and stepping down must give std::floor's integer for every
  // in-range quotient: negative non-integers, exact integers, signed zero,
  // and quotients at and beyond 2^52 where every double is an integer.
  util::Rng rng(20030324);
  std::vector<double> xs = {0.0,   -0.0,  1.0,    -1.0,  0.5,
                            -0.5,  2.999, -2.999, 1e-300, -1e-300,
                            0x1p52, -0x1p52, 0x1p52 + 1.0, -0x1p52 - 1.0,
                            0x1p62, -0x1p62, 4.6e18, -4.6e18};
  for (int i = 0; i < 2000; ++i) xs.push_back(rng.uniform(-1e6, 1e6));
  for (const double x : xs) {
    EXPECT_EQ(bin_index(x, 1.0), static_cast<std::int64_t>(std::floor(x)))
        << x;
  }
  for (const double width : {3e-6, 0.7, 1e3}) {
    for (int i = 0; i < 2000; ++i) {
      const double x = rng.uniform(-5e-2, 5e-2);
      EXPECT_EQ(bin_index(x, width),
                static_cast<std::int64_t>(std::floor(x / width)))
          << x << " / " << width;
    }
  }
}

TEST(BinIndex, RejectsQuotientsWithoutAnIntegerBin) {
  // NaN, ±inf and |x / Δh| > 2^62 have no int64 bin (converting them is
  // undefined behaviour); both the helper and SparseHistogram::add must
  // throw the named error instead.
  for (const double bad : {std::numeric_limits<double>::quiet_NaN(),
                           std::numeric_limits<double>::infinity(),
                           -std::numeric_limits<double>::infinity(), 1e300,
                           -1e300, 0x1p62 * 1.0000001}) {
    EXPECT_THROW((void)bin_index(bad, 1.0), std::invalid_argument) << bad;
    SparseHistogram h(1.0);
    EXPECT_THROW(h.add(bad), std::invalid_argument) << bad;
    EXPECT_EQ(h.total(), 0u);
  }
  // A finite x can still overflow through a tiny width.
  EXPECT_THROW((void)bin_index(1.0, 1e-300), std::invalid_argument);
  try {
    (void)bin_index(std::numeric_limits<double>::quiet_NaN(), 1e-3);
    FAIL() << "NaN must not get a bin";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("stats::bin_index"),
              std::string::npos)
        << e.what();
  }
}

TEST(SparseHistogram, TotalMatchesAdds) {
  SparseHistogram h(0.5);
  const std::vector<double> xs = {0.1, 0.2, 0.3, 1.7, 2.9};
  h.add_all(xs);
  EXPECT_EQ(h.total(), xs.size());
}

TEST(SparseHistogram, RejectsNonPositiveWidth) {
  EXPECT_THROW(SparseHistogram(0.0), ContractViolation);
  EXPECT_THROW(SparseHistogram(-1.0), ContractViolation);
}

TEST(SparseHistogram, MergeEqualsSequentialAdds) {
  const std::vector<double> first = {0.1, 0.2, 1.7, -0.4};
  const std::vector<double> second = {0.15, 2.9, 1.7};

  SparseHistogram a(0.5), b(0.5), combined(0.5);
  a.add_all(first);
  b.add_all(second);
  a.merge(b);
  combined.add_all(first);
  combined.add_all(second);

  EXPECT_EQ(a.total(), combined.total());
  ASSERT_EQ(a.occupied_bins(), combined.occupied_bins());
  EXPECT_EQ(a.cells(), combined.cells());
}

TEST(SparseHistogram, MergeRejectsWidthMismatch) {
  SparseHistogram a(0.5), b(0.25);
  EXPECT_THROW(a.merge(b), ContractViolation);
}


TEST(SparseHistogram, ForkResumesExactly) {
  util::Xoshiro256pp rng(23);
  SparseHistogram uninterrupted(0.25);
  SparseHistogram prefix(0.25);
  std::vector<double> tail;
  for (int i = 0; i < 4000; ++i) {
    const double x = rng.uniform(-20.0, 20.0);
    uninterrupted.add(x);
    if (i < 2000) {
      prefix.add(x);
    } else {
      tail.push_back(x);
    }
  }
  SparseHistogram fork = prefix.fork();
  fork.add_all(tail);
  EXPECT_EQ(fork.total(), uninterrupted.total());
  EXPECT_EQ(fork.cells(), uninterrupted.cells());
  EXPECT_EQ(prefix.total(), 2000u);  // source untouched
}

}  // namespace
}  // namespace linkpad::stats
