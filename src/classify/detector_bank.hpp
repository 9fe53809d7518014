// DetectorBank: every configured detector over ONE pass of the capture.
//
// The paper's adversary (Sec 3.3) reduces each PIAT window to a scalar and
// classifies it. Evaluating several attack statistics used to mean one full
// capture (or simulation) per statistic; the bank instead fans each incoming
// PIAT batch out to all detectors, so an N-feature study costs one stream
// pass and O(batch + N·window) resident memory. Two detector flavours ride
// the same pass:
//
//  * feature detectors — a WindowAccumulator feeds a per-feature Bayes
//    classifier (KDE / Gaussian / histogram density, as AdversaryConfig
//    selects); numerically these reproduce classify::Adversary bit for bit
//    (see window_accumulator.hpp for the per-feature guarantees);
//  * EDF detectors — whole windows classified by nearest reference EDF
//    (KS or CvM), the upper-envelope attack of edf_classifier.hpp. Their
//    references are built with bounded memory via progressive quantile
//    thinning, a documented approximation of EdfClassifier::train's
//    full-sort thinning.
//
// Protocol (phases must come in this order):
//   1. optional prepass     — consume_prepass(batch) over all TRAINING data
//                             in class order, then finish_prepass(); only
//                             needed when needs_prepass() (an entropy
//                             detector without an explicit Δh: the Scott
//                             rule wants the pooled training stddev).
//   2. training             — consume_training(class, batch) per class;
//                             then train().
//   3. run-time             — consume_test(true_class, batch); per-detector
//                             confusion matrices accumulate.
//
// Batches may be any size: results are independent of batch boundaries
// (every accumulator is per-sample sequential). Partial trailing windows
// are dropped, exactly like Adversary::windows_of.
//
// Checkpoints (the prefix-replay primitives of DESIGN.md §2.6):
//  * arm_checkpoints({n1 < n2 < ...}) before the run-time phase makes one
//    test pass emit outcomes at every prefix length: evaluate_at(ni) is the
//    per-detector confusion as if only the FIRST ni test PIATs of each
//    class had been consumed — bit-identical to stopping a fresh bank
//    there, because every accumulator is per-sample sequential and a
//    window completed within the prefix is the same window either way.
//  * checkpoint() deep-copies the whole bank (partially-filled windows,
//    references, classifiers, confusions); the fork and the original then
//    evolve independently — "what if the adversary kept watching" studies
//    without re-training or re-capturing.
#pragma once

#include <memory>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "classify/adversary.hpp"
#include "classify/cpd.hpp"
#include "classify/edf_classifier.hpp"
#include "classify/window_accumulator.hpp"
#include "stats/descriptive.hpp"

namespace linkpad::classify {

/// One detector's configuration inside a bank.
struct DetectorSpec {
  /// Feature, window size, entropy knobs, density model — as Adversary.
  AdversaryConfig adversary;
  /// Quantile backend for streaming MAD/IQR.
  QuantileMode quantile_mode = QuantileMode::kExact;
  /// When set, the detector ignores `adversary.feature` and classifies
  /// whole windows by nearest reference EDF with this distance.
  std::optional<EdfDistance> edf;
  /// Per-class reference size bound for EDF detectors.
  std::size_t edf_max_reference = 20000;
  /// When set, the detector is a streaming change-point detector (CUSUM or
  /// adaptive-EWMA, cpd.hpp): per-sample sequential, windowless — it scores
  /// every PIAT as it arrives and reports TimeToDetection instead of a
  /// confusion matrix. Mutually exclusive with `edf`; two classes only.
  std::optional<CpdConfig> cpd;
};

/// "sample entropy", "EDF nearest (KS)", "cusum", ...: the name of the
/// detector `spec` configures.
[[nodiscard]] std::string detector_name(const DetectorSpec& spec);

/// One streaming detection pipeline: accumulator → features → classifier
/// (or window → nearest reference EDF). Owned and driven by DetectorBank.
class Detector {
 public:
  Detector(DetectorSpec spec, std::size_t num_classes);

  /// Deep copy (accumulators, window buffers, classifier, confusion): the
  /// checkpoint/fork primitive. Cost is O(detector state), independent of
  /// how much of the stream has been consumed.
  Detector(const Detector& other);
  Detector& operator=(const Detector& other);
  Detector(Detector&&) noexcept = default;
  Detector& operator=(Detector&&) noexcept = default;
  ~Detector() = default;

  [[nodiscard]] const DetectorSpec& spec() const { return spec_; }
  [[nodiscard]] bool is_edf() const { return spec_.edf.has_value(); }
  [[nodiscard]] bool is_cpd() const { return spec_.cpd.has_value(); }
  [[nodiscard]] std::string name() const { return detector_name(spec_); }

  /// True until an entropy detector without an explicit Δh gets one.
  [[nodiscard]] bool needs_bin_width() const;
  void set_bin_width(double bin_width);
  /// The Δh in use (entropy detectors, after auto-selection).
  [[nodiscard]] double entropy_bin_width() const { return bin_width_; }

  void consume_training(std::size_t class_index, std::span<const double> batch);
  void train(const std::vector<double>& priors);
  [[nodiscard]] bool trained() const { return trained_; }

  void consume_test(std::size_t true_class, std::span<const double> batch);

  /// Arm run-time checkpoints at ascending per-class test-prefix lengths
  /// (PIAT counts ≥ 1). One-shot; must be called before any consume_test.
  void arm_checkpoints(std::vector<std::size_t> test_prefixes);

  /// Confusion as if only the first `prefix` test PIATs of EACH class had
  /// been consumed. `prefix` must be an armed checkpoint; a class that has
  /// not yet reached it contributes its current counts (= everything it
  /// was given, exactly what a fresh bank fed the same short stream holds).
  [[nodiscard]] ConfusionMatrix confusion_at(std::size_t prefix) const;

  [[nodiscard]] const ConfusionMatrix& confusion() const { return confusion_; }
  /// Prior-weighted detection rate of the windows consumed so far.
  [[nodiscard]] double detection_rate() const;

  /// Training feature values per class (feature detectors; for CPD
  /// detectors this pool holds the capped RAW training PIATs instead).
  [[nodiscard]] const std::vector<std::vector<double>>& training_features()
      const {
    return training_features_;
  }
  /// The fitted per-feature Bayes rule (feature detectors only).
  [[nodiscard]] const BayesClassifier& classifier() const;

  /// The trained change-point model (CPD detectors only, after train()).
  [[nodiscard]] const CpdModel& cpd_model() const;
  /// Scheme + threshold + TimeToDetection over everything consumed so far
  /// (CPD detectors only).
  [[nodiscard]] CpdOutcome cpd_outcome() const;
  /// Like cpd_outcome(), as if only the first `prefix` test PIATs of each
  /// class had been consumed; `prefix` must be an armed checkpoint —
  /// bit-identical to stopping a fresh detector there.
  [[nodiscard]] CpdOutcome cpd_outcome_at(std::size_t prefix) const;

 private:
  friend class DetectorBank;

  void prepare();  // build accumulators once the bin width is known
  void feed(std::size_t class_index, std::span<const double> batch,
            bool testing);
  void feed_chunk(std::size_t class_index, std::span<const double> chunk,
                  bool testing);
  // Whole windows of a feature detector: one add_windows call.
  void feed_windows(std::size_t class_index, std::span<const double> windows,
                    bool testing);
  void complete_window(std::size_t class_index, bool testing);
  void classify_edf_window(std::size_t true_class);
  void thin_reference(std::vector<double>& reference) const;
  [[nodiscard]] std::size_t window_fill(std::size_t class_index) const;

  DetectorSpec spec_;
  std::size_t num_classes_;
  double bin_width_ = 0.0;
  bool prepared_ = false;
  bool trained_ = false;

  // Per-class streaming window state (accumulator OR edf window buffer).
  std::vector<std::unique_ptr<WindowAccumulator>> accumulators_;
  std::vector<std::vector<double>> window_buffers_;  // EDF mode

  std::vector<std::vector<double>> training_features_;  // feature mode
  std::vector<std::vector<double>> references_;         // EDF mode, sorted
  std::vector<double> priors_;
  std::optional<BayesClassifier> classifier_;
  ConfusionMatrix confusion_;

  // CPD mode: the trained model plus one mid-stream state per true class
  // (the detector watches each class's test stream independently).
  std::optional<CpdModel> cpd_model_;
  std::vector<CpdClassState> cpd_states_;

  // Armed test-prefix checkpoints: when class c's consumed test count
  // crosses checkpoints_[i], row c of the confusion is snapshotted into
  // checkpoint_rows_[c][i] (rows are per-true-class, so per-class
  // snapshots assemble into the full prefix confusion). CPD detectors
  // snapshot their per-class CpdClassState into cpd_rows_ instead.
  std::vector<std::size_t> checkpoints_;  // ascending, deduplicated
  std::vector<std::size_t> test_consumed_;     // per class
  std::vector<std::size_t> next_checkpoint_;   // per class, index
  std::vector<std::vector<std::vector<std::uint64_t>>> checkpoint_rows_;
  std::vector<std::vector<CpdClassState>> cpd_rows_;
};

/// Evaluates all configured detectors over a single pass of the stream.
class DetectorBank {
 public:
  DetectorBank(std::vector<DetectorSpec> specs, std::size_t num_classes);

  /// Convenience: one feature detector per kind, sharing `base`'s window
  /// size / entropy / density knobs.
  DetectorBank(const AdversaryConfig& base,
               const std::vector<FeatureKind>& features,
               std::size_t num_classes);

  /// Deep-copyable: all detectors (including partially-consumed window
  /// state) are cloned. See checkpoint().
  DetectorBank(const DetectorBank& other);
  DetectorBank& operator=(const DetectorBank& other);
  DetectorBank(DetectorBank&&) noexcept = default;
  DetectorBank& operator=(DetectorBank&&) noexcept = default;
  ~DetectorBank() = default;

  /// True when some entropy detector needs the pooled-training-data Δh
  /// prepass before training can start.
  [[nodiscard]] bool needs_prepass() const;

  /// Feed ALL training data once (class order, for bit-identity with
  /// Adversary::train's pooled statistics), then finish_prepass().
  void consume_prepass(std::span<const double> batch);
  void finish_prepass();

  /// Finish the prepass from an externally computed pooled training
  /// standard deviation (the only moment the Scott rule reads) instead of
  /// consume_prepass. The prefix-replay engine computes one per prefix
  /// budget with the same Welford recurrence (DESIGN.md §2.6), so each
  /// bank gets the bits consuming its clipped stream would give.
  void finish_prepass(double pooled_stddev);

  void consume_training(std::size_t class_index, std::span<const double> batch);

  /// Fit every detector. Empty priors = equal.
  void train(std::vector<double> priors = {});
  [[nodiscard]] bool trained() const;

  void consume_test(std::size_t true_class, std::span<const double> batch);

  /// Arm every detector with run-time checkpoints at the given ascending
  /// per-class test-prefix lengths (PIAT counts). One capture pass then
  /// emits outcomes at every prefix via evaluate_at(). Must be called
  /// before the first consume_test.
  void arm_checkpoints(std::vector<std::size_t> test_prefixes);

  /// Per-detector confusion (detector order) as if only the first `prefix`
  /// test PIATs of each class had been consumed — bit-identical to feeding
  /// a fresh, identically-trained bank exactly that prefix. `prefix` must
  /// be an armed checkpoint.
  [[nodiscard]] std::vector<ConfusionMatrix> evaluate_at(
      std::size_t prefix) const;

  /// Deep snapshot of the whole bank, mid-stream state included. The fork
  /// and the original consume independently afterwards (fork semantics).
  [[nodiscard]] DetectorBank checkpoint() const { return *this; }

  [[nodiscard]] std::size_t size() const { return detectors_.size(); }
  [[nodiscard]] std::size_t num_classes() const { return num_classes_; }
  [[nodiscard]] const Detector& detector(std::size_t i) const;

 private:
  std::vector<std::unique_ptr<Detector>> detectors_;
  std::size_t num_classes_;
  stats::RunningStats prepass_pooled_;
  bool prepass_finished_ = false;
};

}  // namespace linkpad::classify
