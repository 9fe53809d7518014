// Histograms.
//
// Two flavours are needed by the paper's pipeline:
//  * `Histogram` — dense, fixed range/bin count; used for density plots
//    (Fig 4a) and for the histogram density model.
//  * `SparseHistogram` — fixed bin WIDTH anchored at zero with unbounded
//    range; this is the structure behind the robust entropy estimator of
//    eq. (25): the paper requires a constant Δh across the whole experiment,
//    and outliers must land in their own far-away bins rather than being
//    clamped.
#pragma once

#include <cmath>
#include <cstdint>
#include <map>
#include <span>
#include <vector>

namespace linkpad::stats {

/// Largest |x / Δh| a fixed-width bin index may have. Any two indices then
/// differ by at most 2^63, so offsets between them fit an unsigned 64-bit
/// integer.
inline constexpr double kMaxBinQuotient = 0x1p62;

/// Throws the std::invalid_argument of bin_index (kept out of line so the
/// per-sample check stays a compare and a predictable branch).
[[noreturn]] void throw_bin_index_out_of_range(double x, double bin_width);

/// Bin index floor(x / Δh) of the fixed-width histograms (SparseHistogram
/// and the streaming entropy accumulator). Truncating and stepping down
/// gives the same integer as std::floor for every in-range quotient,
/// without the libm call. Throws std::invalid_argument naming the value
/// when the quotient is NaN, infinite or beyond ±2^62, where converting it
/// to an integer would be undefined behaviour.
inline std::int64_t bin_index(double x, double bin_width) {
  const double q = x / bin_width;
  if (!(std::abs(q) <= kMaxBinQuotient)) {
    throw_bin_index_out_of_range(x, bin_width);
  }
  // Truncation is floor for q >= 0; a negative non-integer steps down.
  auto bin = static_cast<std::int64_t>(q);
  if (q < 0.0 && static_cast<double>(bin) != q) --bin;
  return bin;
}

/// Dense histogram over [lo, hi) with `bins` equal-width bins.
/// Out-of-range samples are tallied in underflow/overflow counters.
class Histogram {
 public:
  Histogram(double lo, double hi, std::size_t bins);

  /// Build from data with range [min(data), max(data)] padded slightly.
  static Histogram from_data(std::span<const double> xs, std::size_t bins);

  void add(double x);
  void add_all(std::span<const double> xs);

  /// Combine with another histogram of the SAME [lo, hi) range and bin
  /// count (parallel reduction step). Counts are integers, so the merge is
  /// exact: merge(a, b) equals feeding a's and b's samples into one
  /// histogram, in any order.
  void merge(const Histogram& other);

  [[nodiscard]] std::size_t bins() const { return counts_.size(); }
  [[nodiscard]] double lo() const { return lo_; }
  [[nodiscard]] double hi() const { return hi_; }
  [[nodiscard]] double bin_width() const { return width_; }
  [[nodiscard]] double bin_center(std::size_t i) const;
  [[nodiscard]] std::uint64_t count(std::size_t i) const { return counts_[i]; }
  [[nodiscard]] std::uint64_t underflow() const { return underflow_; }
  [[nodiscard]] std::uint64_t overflow() const { return overflow_; }
  /// Total samples added, including under/overflow.
  [[nodiscard]] std::uint64_t total() const { return total_; }

  /// Probability density estimate at bin i: count / (total * bin_width).
  [[nodiscard]] double density(std::size_t i) const;

  [[nodiscard]] const std::vector<std::uint64_t>& counts() const {
    return counts_;
  }

 private:
  double lo_;
  double hi_;
  double width_;
  std::vector<std::uint64_t> counts_;
  std::uint64_t underflow_ = 0;
  std::uint64_t overflow_ = 0;
  std::uint64_t total_ = 0;
};

/// Unbounded histogram with fixed bin width Δh anchored at 0:
/// bin(x) = bin_index(x, Δh) = floor(x / Δh). Sparse storage, ordered by
/// bin index.
class SparseHistogram {
 public:
  explicit SparseHistogram(double bin_width);

  /// Throws std::invalid_argument (bin_index) for NaN, ±inf and
  /// |x / Δh| > 2^62.
  void add(double x);
  void add_all(std::span<const double> xs);

  /// Combine with another histogram of the SAME bin width (parallel
  /// reduction step for the streaming entropy accumulator).
  void merge(const SparseHistogram& other);

  /// Snapshot of the partially-filled histogram, O(occupied_bins). Counts
  /// are integers, so a fork resumed with the same suffix stays exactly
  /// equal to the uninterrupted original — entropy checkpoints are lossless.
  [[nodiscard]] SparseHistogram fork() const { return *this; }

  [[nodiscard]] double bin_width() const { return width_; }
  [[nodiscard]] std::uint64_t total() const { return total_; }
  [[nodiscard]] std::size_t occupied_bins() const { return counts_.size(); }

  /// (bin index, count) pairs in increasing bin order.
  [[nodiscard]] const std::map<std::int64_t, std::uint64_t>& cells() const {
    return counts_;
  }

 private:
  double width_;
  std::map<std::int64_t, std::uint64_t> counts_;
  std::uint64_t total_ = 0;
};

}  // namespace linkpad::stats
