// Streaming sequential change-point detectors (CPD): two-sided CUSUM and
// adaptive-EWMA, the online attackers the batch detector family grows into.
//
// The paper's adversary (Sec 3.3) waits for a full n-PIAT window before
// deciding; a change-point attacker instead scores EVERY packet as it
// arrives and raises an alarm the moment the stream's statistics drift from
// the padded baseline. Two detectors, both per-sample sequential so they
// ride DetectorBank's one-pass protocol unchanged:
//
//  * CUSUM — Page's cumulative sum on log-likelihood-ratio increments from
//    the trained per-class densities (BayesClassifier::density). Each side
//    of the two-sided scheme targets one class: the "high" side accumulates
//    log f(x|ω_h) − log f(x|ω_l) and fires when the padded stream starts
//    looking like ω_h; the "low" side is its mirror. g ← max(0, g + inc),
//    alarm when g > h, then g ← 0 (Page's reset).
//  * adaptive-EWMA — the DoSTect scheme (SNIPPETS.md, Counter.compute_volume):
//    a CUSUM whose presumed post-change mean tracks an exponentially
//    weighted moving average of the stream itself, so the detector
//    self-tunes to slow drifts: g ← max(0, g + (δ·μ/σ²)(x − μ − δ·μ/2))
//    with δ = ±alpha (sign = direction of the trained mean shift), then
//    μ ← beta·μ + (1−beta)·x. Under a perfectly equalizing defense the
//    trained means coincide, δ = 0, and the detector honestly never fires.
//
// Calibration is first-class: calibrate_threshold() sets h from a
// Monte-Carlo ARL₀ estimate — T bootstrap replays of the NULL class's
// training samples over a fixed horizon, h = the (1 − target_far) quantile
// of the per-trial maximum statistic, so P(false alarm within horizon) ≈
// target_far. The calibration is serial and seeded (the engine derives the
// root through core::derive_point_seed), so a calibrated threshold is
// bit-identical across thread counts, batch sizes, and shard layouts.
//
// Determinism wall: update() is a pure per-sample fold over POD state, so
// results are independent of batch boundaries; CpdClassState is trivially
// copyable, so checkpoint forks and arm_checkpoints/evaluate_at prefix
// snapshots reproduce a fresh detector bit for bit.
#pragma once

#include <array>
#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "classify/bayes.hpp"
#include "classify/density_model.hpp"
#include "util/types.hpp"

namespace linkpad::classify {

/// Which sequential change-point scheme a detector runs.
enum class CpdKind { kCusum, kAdaptiveEwma };

/// "cusum" / "adaptive-ewma".
[[nodiscard]] std::string cpd_kind_name(CpdKind kind);

/// Configuration of one streaming change-point detector.
struct CpdConfig {
  CpdKind kind = CpdKind::kCusum;

  /// Decision threshold h (alarm when g > h, strictly). Used as-is when
  /// target_far == 0; replaced by the calibrated value otherwise. The
  /// DoSTect reference ships h = 10.
  double threshold = 10.0;

  /// Adaptive-EWMA knobs (DoSTect): presumed drift magnitude as a fraction
  /// of the running mean, and the EWMA smoothing factor.
  double ewma_alpha = 0.5;
  double ewma_beta = 0.95;

  /// Density model for the CUSUM LLR increments. Defaults to the
  /// parametric Gaussian fit — unlike the window classifiers, a CPD update
  /// runs per PIAT, and a KDE log-pdf costs O(training set) per evaluation
  /// (the calibration's one-per-pool-element table is then O(pool²)).
  DensityKind density = DensityKind::kGaussian;
  stats::BandwidthRule bandwidth = stats::BandwidthRule::kSilverman;
  double fixed_bandwidth = 0.0;

  /// Cap on the per-class raw-PIAT training pool (first-k, so the pool is
  /// independent of training batch boundaries).
  std::size_t max_training_samples = 4096;

  /// Monte-Carlo ARL₀ calibration: when target_far > 0, train() replaces
  /// `threshold` with the h that achieves P(false alarm within `horizon`
  /// null samples) ≈ target_far over `trials` bootstrap replays seeded
  /// from `calibration_seed`.
  double target_far = 0.0;
  std::size_t horizon = 2000;
  std::size_t trials = 400;
  std::uint64_t calibration_seed = 20030324;

  /// "cusum" or "adaptive-ewma" (the detector-bank display name).
  [[nodiscard]] std::string name() const { return cpd_kind_name(kind); }
};

/// Headline outcome of one change-point detector over the test streams:
/// did every class stream trip its targeting side, after how many PIATs in
/// the worst case, and how many wrong-side (false) alarms fired meanwhile.
struct TimeToDetection {
  bool detected = false;
  /// Worst first-crossing over the class streams (1-based PIAT index);
  /// 0 when not every stream was detected.
  std::size_t n_at_detection = 0;
  /// Wrong-side crossings summed over all class streams (each side resets
  /// after an alarm, so repeated false alarms all count).
  std::size_t false_alarms = 0;
};

/// One detector's reportable result: scheme, the threshold actually in use
/// (post-calibration), and the time-to-detection outcome.
struct CpdOutcome {
  CpdKind kind = CpdKind::kCusum;
  double threshold = 0.0;
  TimeToDetection ttd;
};

/// One side of the two-sided scheme mid-stream. Trivially copyable — the
/// whole checkpoint/fork story for CPD detectors is a struct copy.
struct CpdSideState {
  double g = 0.0;       ///< decision statistic
  double mean = 0.0;    ///< adaptive-EWMA running mean (unused by CUSUM)
  std::size_t first_alarm = 0;  ///< 1-based sample index; 0 = never
  std::size_t alarms = 0;       ///< total crossings (g resets after each)
};

/// Full per-stream detector state: both sides plus the sample counter.
struct CpdClassState {
  CpdSideState high;  ///< targets ω_h (null: ω_l)
  CpdSideState low;   ///< targets ω_l (null: ω_h)
  std::size_t n = 0;  ///< samples consumed
};

/// Trained change-point model: fixed parameters (densities / EWMA moments /
/// threshold) shared by every stream the detector watches. Copyable, so a
/// detector bank fork clones it wholesale.
class CpdModel {
 public:
  /// Side index of the one-sided statistic targeting ω_h resp. ω_l.
  static constexpr std::size_t kSideHigh = 0;
  static constexpr std::size_t kSideLow = 1;

  /// Fit from per-class raw training samples (exactly two classes). Runs
  /// the Monte-Carlo threshold calibration when config.target_far > 0.
  [[nodiscard]] static CpdModel train(
      const CpdConfig& config,
      const std::vector<std::vector<double>>& class_samples);

  /// Fresh mid-stream state (per side: g = 0, μ = its null-class mean).
  [[nodiscard]] CpdClassState initial_state() const;

  /// One per-sample update of both sides: advance g (and μ), then apply
  /// the threshold — alarm bookkeeping + Page reset. A pure fold: the
  /// result depends only on (state, sample sequence), never on batching.
  /// CUSUM evaluates llr(x) once and applies +llr / −llr to the two sides.
  void update(CpdClassState& state, double x) const;

  /// CUSUM log-likelihood ratio log f(x|ω_h) − log f(x|ω_l): the high
  /// side's increment; the low side adds its negation. A pure function of
  /// x, so calibrate_threshold() tabulates it once per pool element. CUSUM
  /// models only.
  [[nodiscard]] double llr(double x) const;

  /// Max of side `side`'s statistic over a replayed stream, from a fresh
  /// state and WITHOUT threshold resets — the per-trial Monte-Carlo
  /// quantity (first alarm at h iff this max exceeds h).
  [[nodiscard]] double max_statistic(std::size_t side,
                                     std::span<const double> stream) const;

  /// Assemble the outcome from the per-class stream states: class c's
  /// stream must trip the side TARGETING c; the opposite side's crossings
  /// are false alarms.
  [[nodiscard]] TimeToDetection time_to_detection(
      std::span<const CpdClassState> per_class) const;

  [[nodiscard]] double threshold() const { return threshold_; }
  [[nodiscard]] const CpdConfig& config() const { return config_; }

 private:
  CpdModel() = default;

  /// Side `side`'s statistic increment for sample x; adaptive-EWMA also
  /// steps the side's running mean. No fold, no threshold.
  double increment(std::size_t side, CpdSideState& state, double x) const;

  struct EwmaSide {
    double mean0 = 0.0;  ///< null-class training mean (μ's start value)
    double var = 1.0;    ///< null-class training variance (floored)
    double drift = 0.0;  ///< δ = ±alpha (0 when the means coincide)
  };

  CpdConfig config_;
  double threshold_ = 0.0;
  std::optional<BayesClassifier> classifier_;  ///< CUSUM densities
  std::array<EwmaSide, 2> ewma_{};             ///< indexed by kSide*
};

/// Monte-Carlo ARL₀ threshold calibration for an already-parameterized
/// model: T = config.trials bootstrap replays of the null-class samples
/// (side high replays class ω_l, side low replays ω_h) over
/// config.horizon samples each; returns the (1 − target_far) empirical
/// quantile of the per-trial max statistic. Serial and fully determined by
/// (model parameters, class_samples, config.calibration_seed). CUSUM costs
/// O(pool) llr() evaluations plus O(trials·horizon) table-driven folds,
/// bitwise equal to replaying each trial through max_statistic(), four
/// trials at a time in AVX2 lanes where the host has them;
/// adaptive-EWMA replays through max_statistic() itself.
[[nodiscard]] double calibrate_threshold(
    const CpdModel& model,
    const std::vector<std::vector<double>>& class_samples, double target_far,
    std::size_t horizon, std::size_t trials, std::uint64_t seed);

/// Whether this host runs calibrate_threshold's CUSUM replay in AVX2 lanes
/// (x86-64 with AVX2). Otherwise, and for the trials % 4 tail, the scalar
/// loop runs; both give the same bits.
[[nodiscard]] bool calibration_replays_in_lanes();

}  // namespace linkpad::classify
