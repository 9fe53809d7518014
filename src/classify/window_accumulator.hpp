// Streaming per-window feature accumulators (the single-pass counterpart of
// FeatureExtractor).
//
// A WindowAccumulator consumes the PIATs of one window sample by sample and
// produces the window's feature value at the end — so a capture can be
// pulled from its backend in bounded batches and reduced on the fly, with
// resident memory independent of the capture length. Accumulators and
// batch extractors share their numeric recurrences:
//
//  * mean      — in-order running sum: bit-identical to stats::mean;
//  * variance  — the Welford mean/M2 step of stats::RunningStats
//                (stats::welford_step), the recurrence
//                SampleVarianceFeature runs: bit-identical;
//  * entropy   — per-bin counts at fixed Δh (stats::bin_index), read in
//                ascending bin order by the stats::CountEntropy estimator
//                that histogram_entropy runs: bit-identical to
//                stats::sample_entropy;
//  * MAD / IQR — QuantileMode::kExact buffers the window (memory O(n),
//                bounded by the window size) and evaluates the same
//                sorted-quantile code as the batch features: bit-identical.
//                QuantileMode::kP2Sketch swaps the buffer for P² quantile
//                markers — O(1) memory for arbitrarily large windows, with
//                the ~1% relative accuracy documented in quantile_sketch.hpp.
//
// Whole windows go through add_windows() (DESIGN.md §2.5): mean and variance
// run several windows side by side, and every value is bit-identical to the
// per-window add_span / value / reset loop.
#pragma once

#include <memory>
#include <span>
#include <string>
#include <vector>

#include "classify/feature.hpp"
#include "stats/entropy.hpp"

namespace linkpad::classify {

/// How the streaming MAD/IQR accumulators obtain their quantiles.
enum class QuantileMode {
  kExact,     ///< buffer the window; bit-identical to the batch features
  kP2Sketch,  ///< P² markers; O(1) memory, documented ~1% tolerance
};

/// Knobs for make_window_accumulator (mirrors make_feature + QuantileMode).
struct AccumulatorOptions {
  /// Required (> 0) for kSampleEntropy.
  double entropy_bin_width = 0.0;
  stats::EntropyBias entropy_bias = stats::EntropyBias::kNone;
  QuantileMode quantile_mode = QuantileMode::kExact;
};

/// Incremental reducer from one window's PIATs to its scalar feature.
class WindowAccumulator {
 public:
  virtual ~WindowAccumulator() = default;

  virtual void add(double x) = 0;

  /// Bulk add: same result as add() per element. The hot accumulators
  /// override this with a devirtualized tight loop — one virtual dispatch
  /// per span instead of per sample on the bank's streaming path.
  virtual void add_span(std::span<const double> xs) {
    for (double x : xs) add(x);
  }

  /// Whole-window entry point: `xs` is consecutive windows of `n` samples
  /// (requires count() == 0, n > 0 and xs.size() % n == 0). Appends each
  /// window's value to `values` in window order and leaves the accumulator
  /// reset. Each value is bit-identical to add_span(window), value(),
  /// reset(), which is what this base implementation runs; mean and
  /// variance override it with kernels that overlap consecutive windows.
  virtual void add_windows(std::span<const double> xs, std::size_t n,
                           std::vector<double>& values);

  /// Feature value of the samples added since construction / reset().
  [[nodiscard]] virtual double value() const = 0;

  /// Forget all samples; configuration (bin width, quantile) is kept.
  virtual void reset() = 0;

  /// Samples added since the last reset.
  [[nodiscard]] virtual std::size_t count() const = 0;

  [[nodiscard]] virtual std::string name() const = 0;

  /// Deep copy of the accumulator INCLUDING partially-consumed window
  /// state — the checkpoint primitive for forked detector banks. O(state):
  /// O(1) for the moment/sketch accumulators, O(buffered samples) for
  /// entropy (one bin index per sample) and the exact dispersion
  /// accumulators.
  [[nodiscard]] virtual std::unique_ptr<WindowAccumulator> clone() const = 0;

  void add_batch(std::span<const double> xs) { add_span(xs); }
};

/// Factory. Throws ContractViolation for kSampleEntropy without a bin width.
std::unique_ptr<WindowAccumulator> make_window_accumulator(
    FeatureKind kind, const AccumulatorOptions& options = {});

}  // namespace linkpad::classify
