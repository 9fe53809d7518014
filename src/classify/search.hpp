// Detector search space: the declarative half of the best-response
// adversary (DESIGN.md §2.13). The paper fixes the attacker's statistic and
// window; a deployed attacker instead picks the strongest detector per
// padding policy. This header describes WHAT the attacker may choose from —
// a cross product of feature kinds × window sizes × quantile backends, plus
// EDF-distance and change-point families — and expands it into concrete
// DetectorSpec candidates in a deterministic order. The optimization loop
// over the candidates (seeded successive halving, sharded via SweepRunner)
// lives in core/robust_frontier; keeping the space itself in classify means
// anything that can build a DetectorBank can also enumerate candidates.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "classify/cpd.hpp"
#include "classify/detector_bank.hpp"

namespace linkpad::classify {

/// Axes of candidate detectors. Expansion order (and therefore candidate
/// indices, which the tuner uses as the deterministic tie-break) is:
///   1. feature candidates — features (outer) × window_sizes × the
///      quantile_modes axis, which multiplies ONLY the quantile features
///      (MAD / IQR; the other accumulators ignore the mode, and expanding
///      it for them would enumerate byte-identical duplicates);
///   2. EDF candidates — edf_distances (outer) × window_sizes;
///   3. CPD candidates — cpd_target_fars (windowless; one per target FAR,
///      calibrated by the engine with its usual derived seed).
/// Empty `edf_distances` / `cpd_target_fars` simply switch that family off;
/// `features` and `window_sizes` must be non-empty.
struct DetectorSearchSpace {
  /// Knobs shared by every candidate (entropy Δh, density model,
  /// bandwidth rule ...). `base.feature` and `base.window_size` are
  /// overwritten per candidate.
  AdversaryConfig base;
  std::vector<FeatureKind> features = {
      FeatureKind::kSampleMean, FeatureKind::kSampleVariance,
      FeatureKind::kSampleEntropy, FeatureKind::kMedianAbsDeviation,
      FeatureKind::kInterquartileRange};
  std::vector<std::size_t> window_sizes = {200, 400, 800};
  /// Quantile backend axis for the MAD / IQR candidates only.
  std::vector<QuantileMode> quantile_modes = {QuantileMode::kExact};
  /// Whole-window nearest-reference-EDF candidates; empty = none.
  std::vector<EdfDistance> edf_distances;
  std::size_t edf_max_reference = 20000;
  /// Streaming change-point candidates, one per target false-alarm rate;
  /// empty = none. kind / horizon / trials ride `cpd_base`.
  std::vector<double> cpd_target_fars;
  CpdConfig cpd_base;

  /// Number of candidates expand() yields.
  [[nodiscard]] std::size_t size() const;

  /// Expand the axes into concrete candidates, in the documented order.
  /// Every candidate is a fully-specified DetectorSpec ready to ride
  /// AdversaryPlan::detectors.
  [[nodiscard]] std::vector<DetectorSpec> expand() const;
};

/// Human-readable label of one candidate: the detector-bank display name
/// plus the knobs the name alone does not pin down, e.g.
/// "sample variance @n=400", "IQR @n=200 (p2)", "EDF nearest (KS) @n=800",
/// "cusum @far=0.01".
[[nodiscard]] std::string candidate_label(const DetectorSpec& spec);

}  // namespace linkpad::classify
