#include "stats/histogram.hpp"

#include <algorithm>
#include <cmath>
#include <iomanip>
#include <sstream>
#include <stdexcept>

#include "util/check.hpp"

namespace linkpad::stats {

Histogram::Histogram(double lo, double hi, std::size_t bins)
    : lo_(lo), hi_(hi), width_((hi - lo) / static_cast<double>(bins)),
      counts_(bins, 0) {
  LINKPAD_EXPECTS(bins > 0);
  LINKPAD_EXPECTS(hi > lo);
}

Histogram Histogram::from_data(std::span<const double> xs, std::size_t bins) {
  LINKPAD_EXPECTS(!xs.empty());
  auto [mn_it, mx_it] = std::minmax_element(xs.begin(), xs.end());
  double lo = *mn_it;
  double hi = *mx_it;
  if (hi - lo < 1e-300) {
    // Degenerate sample: widen artificially so every point lands in range.
    const double pad = std::max(std::abs(lo) * 1e-9, 1e-12);
    lo -= pad;
    hi += pad;
  } else {
    const double pad = (hi - lo) * 1e-9;
    hi += pad;  // make the max value fall inside the last bin
  }
  Histogram h(lo, hi, bins);
  h.add_all(xs);
  return h;
}

void Histogram::add(double x) {
  ++total_;
  if (x < lo_) {
    ++underflow_;
    return;
  }
  if (x >= hi_) {
    ++overflow_;
    return;
  }
  auto idx = static_cast<std::size_t>((x - lo_) / width_);
  idx = std::min(idx, counts_.size() - 1);  // guard rounding at the top edge
  ++counts_[idx];
}

void Histogram::add_all(std::span<const double> xs) {
  for (double x : xs) add(x);
}

void Histogram::merge(const Histogram& other) {
  LINKPAD_EXPECTS(other.lo_ == lo_ && other.hi_ == hi_ &&
                  other.counts_.size() == counts_.size());
  for (std::size_t i = 0; i < counts_.size(); ++i) {
    counts_[i] += other.counts_[i];
  }
  underflow_ += other.underflow_;
  overflow_ += other.overflow_;
  total_ += other.total_;
}

double Histogram::bin_center(std::size_t i) const {
  LINKPAD_EXPECTS(i < counts_.size());
  return lo_ + (static_cast<double>(i) + 0.5) * width_;
}

double Histogram::density(std::size_t i) const {
  LINKPAD_EXPECTS(i < counts_.size());
  if (total_ == 0) return 0.0;
  return static_cast<double>(counts_[i]) /
         (static_cast<double>(total_) * width_);
}

void throw_bin_index_out_of_range(double x, double bin_width) {
  std::ostringstream msg;
  msg << std::setprecision(17) << "stats::bin_index: x = " << x
      << " at bin width " << bin_width
      << " has no bin index (x / width is NaN, infinite or beyond +/-2^62)";
  throw std::invalid_argument(msg.str());
}

SparseHistogram::SparseHistogram(double bin_width) : width_(bin_width) {
  LINKPAD_EXPECTS(bin_width > 0.0);
}

void SparseHistogram::add(double x) {
  const std::int64_t bin = bin_index(x, width_);
  ++counts_[bin];
  ++total_;
}

void SparseHistogram::add_all(std::span<const double> xs) {
  for (double x : xs) add(x);
}

void SparseHistogram::merge(const SparseHistogram& other) {
  LINKPAD_EXPECTS(other.width_ == width_);
  for (const auto& [bin, count] : other.counts_) counts_[bin] += count;
  total_ += other.total_;
}

}  // namespace linkpad::stats
