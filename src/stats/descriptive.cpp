#include "stats/descriptive.hpp"

#include <algorithm>
#include <cmath>

#include "util/check.hpp"

namespace linkpad::stats {

void RunningStats::merge(const RunningStats& other) {
  if (other.n_ == 0) return;
  if (n_ == 0) {
    *this = other;
    return;
  }
  const double na = static_cast<double>(n_);
  const double nb = static_cast<double>(other.n_);
  const double n = na + nb;
  const double delta = other.mean_ - mean_;
  const double delta2 = delta * delta;
  const double delta3 = delta2 * delta;
  const double delta4 = delta2 * delta2;

  const double m2 = m2_ + other.m2_ + delta2 * na * nb / n;
  const double m3 = m3_ + other.m3_ + delta3 * na * nb * (na - nb) / (n * n) +
                    3.0 * delta * (na * other.m2_ - nb * m2_) / n;
  const double m4 =
      m4_ + other.m4_ +
      delta4 * na * nb * (na * na - na * nb + nb * nb) / (n * n * n) +
      6.0 * delta2 * (na * na * other.m2_ + nb * nb * m2_) / (n * n) +
      4.0 * delta * (na * other.m3_ - nb * m3_) / n;

  mean_ = (na * mean_ + nb * other.mean_) / n;
  m2_ = m2;
  m3_ = m3;
  m4_ = m4;
  min_ = std::min(min_, other.min_);
  max_ = std::max(max_, other.max_);
  n_ = n_ + other.n_;
}

double RunningStats::mean() const {
  LINKPAD_EXPECTS(n_ > 0);
  return mean_;
}

double RunningStats::variance() const {
  LINKPAD_EXPECTS(n_ > 1);
  return m2_ / static_cast<double>(n_ - 1);
}

double RunningStats::stddev() const { return std::sqrt(variance()); }

double RunningStats::min() const {
  LINKPAD_EXPECTS(n_ > 0);
  return min_;
}

double RunningStats::max() const {
  LINKPAD_EXPECTS(n_ > 0);
  return max_;
}

double RunningStats::skewness() const {
  LINKPAD_EXPECTS(n_ > 2);
  if (m2_ <= 0.0) return 0.0;
  const double n = static_cast<double>(n_);
  return std::sqrt(n) * m3_ / std::pow(m2_, 1.5);
}

double RunningStats::excess_kurtosis() const {
  LINKPAD_EXPECTS(n_ > 3);
  if (m2_ <= 0.0) return 0.0;
  const double n = static_cast<double>(n_);
  return n * m4_ / (m2_ * m2_) - 3.0;
}

double mean(std::span<const double> xs) {
  LINKPAD_EXPECTS(!xs.empty());
  double acc = 0.0;
  for (double x : xs) acc += x;
  return acc / static_cast<double>(xs.size());
}

double sample_variance(std::span<const double> xs) {
  LINKPAD_EXPECTS(xs.size() >= 2);
  // One definition of sample variance repo-wide: the Welford recurrence of
  // RunningStats, so batch routines, streaming accumulators, and r_hat
  // estimates agree bit for bit on the same data.
  RunningStats rs;
  for (double x : xs) rs.add(x);
  return rs.variance();
}

double sample_stddev(std::span<const double> xs) {
  return std::sqrt(sample_variance(xs));
}

namespace {

/// Where quantile q of n sorted values sits: it interpolates sorted[lo]
/// and sorted[hi] (hi = lo + 1, clipped to n − 1) with weight frac on hi.
struct QuantilePosition {
  std::size_t lo;
  std::size_t hi;
  double frac;
};

QuantilePosition quantile_position(std::size_t n, double q) {
  LINKPAD_EXPECTS(n > 0);
  const double pos = q * static_cast<double>(n - 1);
  const std::size_t lo = static_cast<std::size_t>(pos);
  return {lo, std::min(lo + 1, n - 1), pos - static_cast<double>(lo)};
}

double interpolate(double at_lo, double at_hi, double frac) {
  // At an exact position the partner has weight zero, and inf · 0 is NaN.
  if (frac == 0.0 && !std::isfinite(at_hi)) return at_lo;
  return at_lo * (1.0 - frac) + at_hi * frac;
}

/// quantile_sorted's value at position p, by selection. v must hold the
/// v.size() smallest of the values being ranked (all of them, or the front
/// part an earlier call left), with v.size() > p.hi. Leaves sorted[p.lo]
/// and sorted[p.hi] in place with only smaller values before them, so a
/// lower quantile can select within v[0, p.hi].
double select_quantile(std::span<double> v, const QuantilePosition& p) {
  if (v.size() == 1) return v[0];
  const auto lo = v.begin() + static_cast<std::ptrdiff_t>(p.lo);
  std::nth_element(v.begin(), lo, v.end());
  if (p.hi != p.lo) {
    // v(lo, end) now holds exactly sorted(lo, end): its minimum is
    // sorted[lo + 1].
    std::iter_swap(lo + 1, std::min_element(lo + 1, v.end()));
  }
  return interpolate(*lo, v[p.hi], p.frac);
}

}  // namespace

double quantile_sorted(std::span<const double> sorted, double q) {
  LINKPAD_EXPECTS(!sorted.empty());
  LINKPAD_EXPECTS(q >= 0.0 && q <= 1.0);
  if (sorted.size() == 1) return sorted[0];
  const auto p = quantile_position(sorted.size(), q);
  return interpolate(sorted[p.lo], sorted[p.hi], p.frac);
}

double median(std::span<const double> xs) {
  std::vector<double> copy(xs.begin(), xs.end());
  return select_quantile(copy, quantile_position(copy.size(), 0.5));
}

double iqr(std::span<const double> xs) {
  std::vector<double> copy(xs.begin(), xs.end());
  const auto upper = quantile_position(copy.size(), 0.75);
  const double q3 = select_quantile(copy, upper);
  const double q1 = select_quantile(std::span(copy).first(upper.hi + 1),
                                    quantile_position(copy.size(), 0.25));
  return q3 - q1;
}

double mad(std::span<const double> xs) {
  std::vector<double> copy(xs.begin(), xs.end());
  const auto middle = quantile_position(copy.size(), 0.5);
  const double med = select_quantile(copy, middle);
  for (std::size_t i = 0; i < xs.size(); ++i) {
    copy[i] = std::abs(xs[i] - med);
  }
  return select_quantile(copy, middle);
}

Summary summarize(std::span<const double> xs) {
  RunningStats rs;
  for (double x : xs) rs.add(x);
  Summary s;
  s.count = rs.count();
  if (s.count > 0) {
    s.mean = rs.mean();
    s.min = rs.min();
    s.max = rs.max();
  }
  if (s.count > 1) {
    s.variance = rs.variance();
    s.stddev = rs.stddev();
  }
  if (s.count > 2) s.skewness = rs.skewness();
  if (s.count > 3) s.excess_kurtosis = rs.excess_kurtosis();
  return s;
}

}  // namespace linkpad::stats
