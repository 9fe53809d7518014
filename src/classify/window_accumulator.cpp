#include "classify/window_accumulator.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdint>
#include <limits>
#include <type_traits>
#include <vector>

#include "stats/descriptive.hpp"
#include "stats/histogram.hpp"
#include "stats/quantile_sketch.hpp"
#include "util/check.hpp"

namespace linkpad::classify {

namespace {

/// Appends one value slot per whole window of `xs` and hands the windows
/// to `kernel` 8 at a time, then 4, 2 and 1: kernel(lanes, first, out) with
/// `lanes` a std::integral_constant. Consecutive windows are independent
/// chains, so running them side by side lets one window's latency-bound
/// step (an add, a divide) overlap the others'; each window still sees
/// exactly its own samples in order. Eight chains cover the ~20-cycle
/// divide of the variance step (DESIGN.md §2.5).
template <typename Kernel>
void for_window_lanes(std::span<const double> xs, std::size_t n,
                      std::vector<double>& values, const Kernel& kernel) {
  LINKPAD_EXPECTS(n > 0 && xs.size() % n == 0);
  const std::size_t windows = xs.size() / n;
  const std::size_t first_slot = values.size();
  values.resize(first_slot + windows);
  const double* in = xs.data();
  double* out = values.data() + first_slot;
  std::size_t w = 0;
  for (; w + 8 <= windows; w += 8) {
    kernel(std::integral_constant<std::size_t, 8>{}, in + w * n, out + w);
  }
  if (w + 4 <= windows) {
    kernel(std::integral_constant<std::size_t, 4>{}, in + w * n, out + w);
    w += 4;
  }
  if (w + 2 <= windows) {
    kernel(std::integral_constant<std::size_t, 2>{}, in + w * n, out + w);
    w += 2;
  }
  if (w < windows) {
    kernel(std::integral_constant<std::size_t, 1>{}, in + w * n, out + w);
  }
}

class MeanAccumulator final : public WindowAccumulator {
 public:
  void add(double x) override {
    sum_ += x;
    ++n_;
  }
  void add_span(std::span<const double> xs) override {
    // In-order running sum, exactly as add() — just without a virtual call
    // per sample.
    for (double x : xs) sum_ += x;
    n_ += xs.size();
  }
  void add_windows(std::span<const double> xs, std::size_t n,
                   std::vector<double>& values) override {
    LINKPAD_EXPECTS(n_ == 0);
    for_window_lanes(xs, n, values,
                     [n](auto lanes, const double* x, double* out) {
                       constexpr std::size_t kLanes = decltype(lanes)::value;
                       std::array<double, kLanes> sum{};
                       for (std::size_t i = 0; i < n; ++i) {
                         for (std::size_t l = 0; l < kLanes; ++l) {
                           sum[l] += x[l * n + i];
                         }
                       }
                       for (std::size_t l = 0; l < kLanes; ++l) {
                         out[l] = sum[l] / static_cast<double>(n);
                       }
                     });
  }
  [[nodiscard]] double value() const override {
    LINKPAD_EXPECTS(n_ > 0);
    return sum_ / static_cast<double>(n_);
  }
  void reset() override {
    sum_ = 0.0;
    n_ = 0;
  }
  [[nodiscard]] std::size_t count() const override { return n_; }
  [[nodiscard]] std::string name() const override { return "sample mean"; }
  [[nodiscard]] std::unique_ptr<WindowAccumulator> clone() const override {
    return std::make_unique<MeanAccumulator>(*this);
  }

 private:
  double sum_ = 0.0;
  std::size_t n_ = 0;
};

/// Welford mean and M2 only: the variance feature never reads the higher
/// moments or the extremes RunningStats also tracks.
class VarianceAccumulator final : public WindowAccumulator {
 public:
  void add(double x) override {
    const auto [delta_n, term1] =
        stats::welford_step(x, mean_, static_cast<double>(n_));
    mean_ += delta_n;
    m2_ += term1;
    ++n_;
  }
  void add_span(std::span<const double> xs) override {
    for (double x : xs) VarianceAccumulator::add(x);
  }
  void add_windows(std::span<const double> xs, std::size_t n,
                   std::vector<double>& values) override {
    LINKPAD_EXPECTS(n_ == 0);
    LINKPAD_EXPECTS(n > 1);  // value() needs two samples per window
    for_window_lanes(
        xs, n, values, [n](auto lanes, const double* x, double* out) {
          constexpr std::size_t kLanes = decltype(lanes)::value;
          std::array<double, kLanes> mean{};
          std::array<double, kLanes> m2{};
          for (std::size_t i = 0; i < n; ++i) {
            const double count_before = static_cast<double>(i);
            for (std::size_t l = 0; l < kLanes; ++l) {
              const auto [delta_n, term1] =
                  stats::welford_step(x[l * n + i], mean[l], count_before);
              mean[l] += delta_n;
              m2[l] += term1;
            }
          }
          for (std::size_t l = 0; l < kLanes; ++l) {
            out[l] = m2[l] / static_cast<double>(n - 1);
          }
        });
  }
  [[nodiscard]] double value() const override {
    LINKPAD_EXPECTS(n_ > 1);
    return m2_ / static_cast<double>(n_ - 1);
  }
  void reset() override {
    mean_ = 0.0;
    m2_ = 0.0;
    n_ = 0;
  }
  [[nodiscard]] std::size_t count() const override { return n_; }
  [[nodiscard]] std::string name() const override { return "sample variance"; }
  [[nodiscard]] std::unique_ptr<WindowAccumulator> clone() const override {
    return std::make_unique<VarianceAccumulator>(*this);
  }

 private:
  double mean_ = 0.0;
  double m2_ = 0.0;
  std::size_t n_ = 0;
};

/// Entropy of fixed-Δh bins. The window is kept as its samples' bin
/// indices; value() counts them densely by offset over the occupied range
/// [min, max] and reads the counts in ascending bin order through
/// stats::CountEntropy, the estimator histogram_entropy runs. Bin counts
/// do not depend on sample order, so the value is bit-identical to
/// stats::sample_entropy. Memory stays O(samples) for any finite input:
/// when the occupied range is wider than kDenseSlack + 2·samples cells,
/// the dense run of that many cells is centred on the median bin and the
/// far-out bins go to a sorted spill instead.
class EntropyAccumulator final : public WindowAccumulator {
 public:
  EntropyAccumulator(double bin_width, stats::EntropyBias bias)
      : bias_(bias), bin_width_(bin_width) {
    LINKPAD_EXPECTS(bin_width > 0.0);
  }

  void add(double x) override {
    const std::int64_t bin = stats::bin_index(x, bin_width_);
    bins_.push_back(bin);
    min_bin_ = std::min(min_bin_, bin);
    max_bin_ = std::max(max_bin_, bin);
  }
  void add_span(std::span<const double> xs) override {
    // The occupied range is tracked in the bin pass itself: a separate
    // min/max pass in value() would cost as much as the binning.
    const std::size_t first = bins_.size();
    bins_.resize(first + xs.size());
    std::int64_t* out = bins_.data() + first;
    std::int64_t lo = min_bin_;
    std::int64_t hi = max_bin_;
    for (std::size_t i = 0; i < xs.size(); ++i) {
      const std::int64_t bin = stats::bin_index(xs[i], bin_width_);
      out[i] = bin;
      lo = std::min(lo, bin);
      hi = std::max(hi, bin);
    }
    min_bin_ = lo;
    max_bin_ = hi;
  }
  [[nodiscard]] double value() const override;
  void reset() override {
    bins_.clear();
    min_bin_ = std::numeric_limits<std::int64_t>::max();
    max_bin_ = std::numeric_limits<std::int64_t>::min();
  }
  [[nodiscard]] std::size_t count() const override { return bins_.size(); }
  [[nodiscard]] std::string name() const override { return "sample entropy"; }
  [[nodiscard]] std::unique_ptr<WindowAccumulator> clone() const override {
    return std::make_unique<EntropyAccumulator>(*this);
  }

 private:
  static constexpr std::uint64_t kDenseSlack = 64;

  stats::EntropyBias bias_;
  double bin_width_;
  std::vector<std::int64_t> bins_;  // the current window's bin indices
  std::int64_t min_bin_ = std::numeric_limits<std::int64_t>::max();
  std::int64_t max_bin_ = std::numeric_limits<std::int64_t>::min();
  // value() scratch, kept to reuse its capacity across windows.
  mutable std::vector<std::uint64_t> dense_;
  mutable std::vector<std::int64_t> spill_;
};

double EntropyAccumulator::value() const {
  LINKPAD_EXPECTS(!bins_.empty());
  // Offsets are unsigned: bin indices lie within ±2^62 (stats::bin_index),
  // so any two differ by at most 2^63.
  const auto offset = [](std::int64_t bin, std::int64_t lo) {
    return static_cast<std::uint64_t>(bin) - static_cast<std::uint64_t>(lo);
  };
  const std::uint64_t span = offset(max_bin_, min_bin_);
  const std::uint64_t cells = kDenseSlack + 2 * bins_.size();
  std::int64_t lo = min_bin_;
  spill_.clear();
  if (span >= cells) {
    spill_.assign(bins_.begin(), bins_.end());
    const auto mid =
        spill_.begin() + static_cast<std::ptrdiff_t>(spill_.size() / 2);
    std::nth_element(spill_.begin(), mid, spill_.end());
    lo = *mid - static_cast<std::int64_t>(cells / 2);
    spill_.clear();
  }
  dense_.assign(std::min(span + 1, cells), 0);
  for (const std::int64_t bin : bins_) {
    const std::uint64_t at = offset(bin, lo);
    if (at < dense_.size()) {
      ++dense_[at];
    } else {
      spill_.push_back(bin);
    }
  }
  std::sort(spill_.begin(), spill_.end());

  // Ascending bin order: spilled bins below the dense run, the run, then
  // spilled bins above it.
  stats::CountEntropy entropy(bins_.size());
  auto spilled = spill_.cbegin();
  const auto add_spilled_below = [&](std::int64_t limit) {
    while (spilled != spill_.cend() && *spilled < limit) {
      const auto run_end = std::upper_bound(spilled, spill_.cend(), *spilled);
      entropy.add(static_cast<std::uint64_t>(run_end - spilled));
      spilled = run_end;
    }
  };
  add_spilled_below(lo);
  for (const std::uint64_t count : dense_) {
    if (count != 0) entropy.add(count);
  }
  add_spilled_below(std::numeric_limits<std::int64_t>::max());
  return entropy.value(bias_);
}

/// Exact dispersion accumulators: buffer the window (bounded by the window
/// size) and run the very same sorted-quantile code as the batch features.
class BufferedMadAccumulator final : public WindowAccumulator {
 public:
  void add(double x) override { buffer_.push_back(x); }
  void add_span(std::span<const double> xs) override {
    buffer_.insert(buffer_.end(), xs.begin(), xs.end());
  }
  [[nodiscard]] double value() const override { return stats::mad(buffer_); }
  void reset() override { buffer_.clear(); }
  [[nodiscard]] std::size_t count() const override { return buffer_.size(); }
  [[nodiscard]] std::string name() const override { return "MAD"; }
  [[nodiscard]] std::unique_ptr<WindowAccumulator> clone() const override {
    return std::make_unique<BufferedMadAccumulator>(*this);
  }

 private:
  std::vector<double> buffer_;
};

class BufferedIqrAccumulator final : public WindowAccumulator {
 public:
  void add(double x) override { buffer_.push_back(x); }
  void add_span(std::span<const double> xs) override {
    buffer_.insert(buffer_.end(), xs.begin(), xs.end());
  }
  [[nodiscard]] double value() const override { return stats::iqr(buffer_); }
  void reset() override { buffer_.clear(); }
  [[nodiscard]] std::size_t count() const override { return buffer_.size(); }
  [[nodiscard]] std::string name() const override { return "IQR"; }
  [[nodiscard]] std::unique_ptr<WindowAccumulator> clone() const override {
    return std::make_unique<BufferedIqrAccumulator>(*this);
  }

 private:
  std::vector<double> buffer_;
};

/// Sketched MAD: a P² median of the samples plus a P² median of the
/// absolute deviations from the RUNNING median estimate. The deviation
/// stream uses the current (not final) median, so on top of the P² marker
/// error this adds a warm-up bias that fades as the window grows — fine
/// for the large windows the sketch mode exists for.
class SketchMadAccumulator final : public WindowAccumulator {
 public:
  void add(double x) override {
    median_.add(x);
    deviation_.add(std::abs(x - median_.value()));
  }
  void add_span(std::span<const double> xs) override {
    // Same update sequence as add(), minus one virtual dispatch per sample.
    for (double x : xs) {
      median_.add(x);
      deviation_.add(std::abs(x - median_.value()));
    }
  }
  [[nodiscard]] double value() const override { return deviation_.value(); }
  void reset() override {
    median_.reset();
    deviation_.reset();
  }
  [[nodiscard]] std::size_t count() const override { return median_.count(); }
  [[nodiscard]] std::string name() const override { return "MAD (P2)"; }
  [[nodiscard]] std::unique_ptr<WindowAccumulator> clone() const override {
    return std::make_unique<SketchMadAccumulator>(*this);
  }

 private:
  stats::P2Quantile median_{0.5};
  stats::P2Quantile deviation_{0.5};
};

class SketchIqrAccumulator final : public WindowAccumulator {
 public:
  void add(double x) override {
    q1_.add(x);
    q3_.add(x);
  }
  void add_span(std::span<const double> xs) override {
    for (double x : xs) {
      q1_.add(x);
      q3_.add(x);
    }
  }
  [[nodiscard]] double value() const override {
    return std::max(0.0, q3_.value() - q1_.value());
  }
  void reset() override {
    q1_.reset();
    q3_.reset();
  }
  [[nodiscard]] std::size_t count() const override { return q1_.count(); }
  [[nodiscard]] std::string name() const override { return "IQR (P2)"; }
  [[nodiscard]] std::unique_ptr<WindowAccumulator> clone() const override {
    return std::make_unique<SketchIqrAccumulator>(*this);
  }

 private:
  stats::P2Quantile q1_{0.25};
  stats::P2Quantile q3_{0.75};
};

}  // namespace

void WindowAccumulator::add_windows(std::span<const double> xs, std::size_t n,
                                    std::vector<double>& values) {
  LINKPAD_EXPECTS(count() == 0);
  LINKPAD_EXPECTS(n > 0 && xs.size() % n == 0);
  values.reserve(values.size() + xs.size() / n);
  for (; !xs.empty(); xs = xs.subspan(n)) {
    add_span(xs.first(n));
    values.push_back(value());
    reset();
  }
}

std::unique_ptr<WindowAccumulator> make_window_accumulator(
    FeatureKind kind, const AccumulatorOptions& options) {
  switch (kind) {
    case FeatureKind::kSampleMean:
      return std::make_unique<MeanAccumulator>();
    case FeatureKind::kSampleVariance:
      return std::make_unique<VarianceAccumulator>();
    case FeatureKind::kSampleEntropy:
      LINKPAD_EXPECTS(options.entropy_bin_width > 0.0 &&
                      "kSampleEntropy needs entropy_bin_width > 0 (set "
                      "AccumulatorOptions::entropy_bin_width or train via "
                      "DetectorBank for Scott-rule auto-selection)");
      return std::make_unique<EntropyAccumulator>(options.entropy_bin_width,
                                                  options.entropy_bias);
    case FeatureKind::kMedianAbsDeviation:
      if (options.quantile_mode == QuantileMode::kP2Sketch) {
        return std::make_unique<SketchMadAccumulator>();
      }
      return std::make_unique<BufferedMadAccumulator>();
    case FeatureKind::kInterquartileRange:
      if (options.quantile_mode == QuantileMode::kP2Sketch) {
        return std::make_unique<SketchIqrAccumulator>();
      }
      return std::make_unique<BufferedIqrAccumulator>();
  }
  return nullptr;
}

}  // namespace linkpad::classify
