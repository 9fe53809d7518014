// Streaming quantile estimation for the one-pass detection pipeline.
//
// `P2Quantile` is the P² algorithm of Jain & Chlamtac (CACM 1985): five
// markers track a single quantile of an unbounded stream in O(1) memory and
// O(1) per sample, adjusting marker heights by piecewise-parabolic
// interpolation. It is exact for the first five samples and typically
// within ~1% relative error of the true quantile for smooth distributions
// once a few hundred samples have been seen — the documented tolerance the
// sketch-based MAD/IQR window accumulators inherit.
//
// Merging: marker state is order-dependent, so P² has no exact merge in
// general. `merge` folds another sketch in APPROXIMATELY — exactly while
// both sides still hold raw samples (combined count ≤ 5), otherwise by
// replaying the other side's five-marker summary through a piecewise-linear
// inverse CDF. The result carries the documented ~1% marker error plus the
// interpolation error of the summary; reductions that must be exact should
// use `RunningStats` (moments) or `SparseHistogram` (entropy) instead.
// Deterministic: merge(a, b) is a pure function of the two sketch states,
// so a fixed-shape reduction tree yields identical bits on every run.
#pragma once

#include <array>
#include <cstddef>

namespace linkpad::stats {

/// Single-quantile streaming estimator (P² algorithm), O(1) memory.
class P2Quantile {
 public:
  /// `quantile` in (0, 1), e.g. 0.5 for the median.
  explicit P2Quantile(double quantile);

  void add(double x);

  /// Current estimate. Exact (sorted interpolation) while count() <= 5.
  /// Expects at least one sample.
  [[nodiscard]] double value() const;

  [[nodiscard]] std::size_t count() const { return n_; }
  [[nodiscard]] double quantile() const { return q_; }

  /// Forget all samples (the target quantile is kept).
  void reset();

  /// Fold `other` (same target quantile) into this sketch. Exact — equal to
  /// feeding the concatenated samples — while the combined count is ≤ 5;
  /// beyond that the smaller-state side is replayed into the larger: raw
  /// samples directly when it still holds them, otherwise `other.count()`
  /// deterministic draws off the piecewise-linear inverse CDF through its
  /// five markers (cost O(other.count())). Tolerance-bounded, not exact:
  /// see the header comment.
  void merge(const P2Quantile& other);

  /// O(1) snapshot of the partially-consumed sketch (five markers + their
  /// positions). The fork and the original evolve independently; feeding
  /// both the same suffix keeps them bit-identical — so a streaming
  /// MAD/IQR detector can be checkpointed mid-window and resumed.
  [[nodiscard]] P2Quantile fork() const { return *this; }

 private:
  double q_;
  std::size_t n_ = 0;
  std::array<double, 5> heights_{};  // marker heights (sample values)
  std::array<double, 5> pos_{};      // actual marker positions (1-based)
  std::array<double, 5> desired_{};  // desired marker positions
  std::array<double, 5> rate_{};     // desired-position increments
};

}  // namespace linkpad::stats
