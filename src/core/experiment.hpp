// Experiment runner: the full attack pipeline of Sec 3.3 executed on a
// Scenario — stream per-class PIATs from a pluggable backend (simulated
// testbed by default, real loopback gateway via make_live_backend), train
// the adversary off-line, classify held-out windows, and compare the
// empirical detection rate with the Theorem 1–3 predictions.
//
// Sweeps (over sample size, σ_T, utilization, time of day, tap position)
// shard their points across a thread pool; every point derives its RNG
// streams from (seed, salt, class), so results are bit-identical at any
// thread count.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "classify/adversary.hpp"
#include "classify/cpd.hpp"
#include "classify/detector_bank.hpp"
#include "core/piat_source.hpp"
#include "core/scenarios.hpp"
#include "stats/bootstrap.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"

namespace linkpad::core {

/// Canonical derivation of a per-point RNG seed from a root seed and a
/// point index. EVERY expanded axis (SweepGrid::expand, the figure sweeps,
/// ad-hoc benches) must derive per-point seeds through this rule: naive
/// `root + i` arithmetic makes adjacent points reuse streams as soon as two
/// axes interleave (point 3 of one sweep == point 0 of a sweep rooted 3
/// later), which silently correlates Monte-Carlo points. Collapsed axes
/// (features, sample sizes) intentionally share ONE point seed — sharing
/// the capture is their contract; distinct points must never share.
[[nodiscard]] constexpr std::uint64_t derive_point_seed(std::uint64_t root,
                                                        std::uint64_t point) {
  return util::SplitMix64::mix(root ^ util::SplitMix64::mix(point + 1));
}

/// The adversary half of an experiment, shared verbatim by every spec kind
/// that runs the attack pipeline (ExperimentSpec, SweepGrid, FrontierSpec
/// and the robust-frontier tuner): which detectors watch the stream and how
/// much capture they train/test on. Extracting it into one struct keeps the
/// knobs from drifting apart across the spec kinds and gives the attacker
/// optimizer (core/robust_frontier) a single seam to mutate.
struct AdversaryPlan {
  /// Primary detector: feature, window size, entropy / density knobs.
  classify::AdversaryConfig adversary;
  /// Further features detected in the same pass (window size / entropy /
  /// density knobs are shared with `adversary`). Duplicates are ignored.
  std::vector<classify::FeatureKind> extra_features;
  /// Fully-specified detectors (each with its OWN window size, quantile
  /// backend, EDF distance or change-point config) riding the same capture
  /// pass, after the feature detectors, in the LARGEST-sample-size bank
  /// only: they do not re-window along a sample_size_axis. Results land in
  /// ExperimentResult::detectors, in this order. This is the seam the
  /// best-response tuner evaluates candidates through. Entry j's CPD
  /// calibration_seed is OVERWRITTEN by the engine with
  /// derive_point_seed(seed, 3 + j), so calibrated thresholds are
  /// reproducible per point and never collide with the training (salt 1)
  /// or test (salt 2) streams. CPD entries need a two-class scenario.
  std::vector<classify::DetectorSpec> detectors;
  std::size_t train_windows = 300;  ///< per class, at the largest axis entry
  std::size_t test_windows = 300;   ///< per class, at the largest axis entry

  /// Primary feature followed by the (deduplicated) extra features.
  [[nodiscard]] std::vector<classify::FeatureKind> features() const;

  /// Inverse of features(): first entry becomes the primary
  /// (adversary.feature), the rest become extra_features.
  void set_features(const std::vector<classify::FeatureKind>& all);
};

/// One experiment = one scenario × one adversary plan. When the plan has
/// extra features/detectors, a DetectorBank evaluates the primary feature
/// (`plan.adversary.feature`) AND every extra over the same single stream
/// pass — one simulation, N detection verdicts.
struct ExperimentSpec {
  Scenario scenario;
  AdversaryPlan plan;
  /// Sample-size (window-size) axis, collapsed into ONE capture. Empty ⇒
  /// the single window size `plan.adversary.window_size`. Non-empty ⇒
  /// prefix-replay: the engine simulates one capture sized by the LARGEST
  /// axis entry (train_windows / test_windows count ITS windows) and every
  /// smaller n re-chops the same capture into floor(windows·n_max/n)
  /// windows of size n — a k-point detection-vs-n curve costs ~1 simulation
  /// instead of k. Each point consumes a prefix of the shared capture, so
  /// its outcome is bit-identical to an independent run of the engine at
  /// that window size / window count with the same seed (DESIGN.md §2.6).
  std::vector<std::size_t> sample_size_axis;
  /// Cap on the windows any one axis point chops from the shared capture
  /// (0 = unlimited). Small-n points naturally get n_max/n × more windows
  /// than the largest point — statistically welcome, but classifier cost
  /// grows quadratically with window count (KDE training set × KDE
  /// evaluations), so figure-grade axes bound it. Capped points still
  /// consume a prefix; the bit-identity contract is unchanged.
  std::size_t max_windows_per_point = 0;
  std::uint64_t seed = 20030324;    ///< date of the paper's campus capture

  /// Primary feature followed by the (deduplicated) extra features.
  [[nodiscard]] std::vector<classify::FeatureKind> features() const {
    return plan.features();
  }

  /// The effective axis: sample_size_axis sorted ascending and
  /// deduplicated, or {plan.adversary.window_size} when the axis is empty.
  [[nodiscard]] std::vector<std::size_t> sample_sizes() const;
};

/// One feature's verdict inside an experiment.
struct FeatureOutcome {
  classify::FeatureKind feature = classify::FeatureKind::kSampleVariance;
  double detection_rate = 0.5;          ///< empirical, eq. (7)
  stats::BootstrapResult ci{};          ///< Wilson interval on the rate
  classify::ConfusionMatrix confusion{2};
  std::optional<double> predicted;      ///< Theorems 1–3 at r_hat (2-class)
};

/// One sample-size point of a prefix-replay experiment: every feature's
/// verdict at window size `sample_size`, evaluated over the shared capture.
struct SampleSizePoint {
  std::size_t sample_size = 0;       ///< window size n of this point
  std::size_t train_windows = 0;     ///< windows chopped at this n, per class
  std::size_t test_windows = 0;
  double r_hat = 1.0;                ///< variance ratio over THIS prefix
  std::vector<FeatureOutcome> per_feature;  ///< primary first

  /// Outcome of `kind`; throws if the point did not evaluate it.
  [[nodiscard]] const FeatureOutcome& outcome(classify::FeatureKind kind) const;
};

/// One AdversaryPlan::detectors entry's verdict, evaluated at the largest
/// sample size. `attack_score` is the tuner's common currency on
/// [0, 1]: the confusion-matrix detection rate for window (feature / EDF)
/// detectors, and the conservative chance-floor mapping
/// `ttd.detected ? 1.0 : 0.5` for change-point detectors — a CPD verdict
/// is binary per run, and 0.5 keeps an undetected CPD comparable to a
/// coin-flip window detector instead of ranking below it.
struct DetectorOutcome {
  std::string name;                         ///< Detector::name()
  double attack_score = 0.5;
  classify::ConfusionMatrix confusion{2};   ///< window detectors only
  std::optional<classify::CpdOutcome> cpd;  ///< CPD detectors only
};

/// Outcome of one experiment. `by_sample_size` carries one point per
/// spec.sample_sizes() (ascending n), each with one outcome per
/// spec.features(), primary first; top() is the LARGEST sample size — the
/// point whose capture the axis shares — and primary() its primary
/// feature (spec.plan.adversary.feature).
struct ExperimentResult {
  double piat_mean_low = 0.0;           ///< padded PIAT means (sanity: equal)
  double piat_mean_high = 0.0;
  double piat_var_low = 0.0;            ///< padded PIAT variances
  double piat_var_high = 0.0;
  std::vector<SampleSizePoint> by_sample_size;
  /// One outcome per spec.plan.detectors (same order), at the largest
  /// sample size.
  std::vector<DetectorOutcome> detectors;
  /// Padding-cost accounting of the run-time (test) capture, one entry per
  /// class in class order — empty when the backend cannot account (live).
  std::vector<StreamOverhead> overhead_per_class;

  /// Expected padding bandwidth under equal priors: mean of padding_bps
  /// across classes. nullopt without accounting.
  [[nodiscard]] std::optional<double> mean_padding_bps() const;
  /// Expected on-wire bandwidth under equal priors.
  [[nodiscard]] std::optional<double> mean_wire_bps() const;
  /// Expected dummy fraction under equal priors.
  [[nodiscard]] std::optional<double> mean_dummy_fraction() const;
  /// Worst per-class p95 payload queueing delay — the QoS half of the
  /// overhead/detectability frontier.
  [[nodiscard]] std::optional<Seconds> worst_delay_p95() const;

  /// The largest sample-size point; the result must hold one.
  [[nodiscard]] const SampleSizePoint& top() const;
  /// The primary feature's outcome at top().
  [[nodiscard]] const FeatureOutcome& primary() const;

  /// Outcome of `kind` at the largest sample size; throws if the
  /// experiment did not evaluate it.
  [[nodiscard]] const FeatureOutcome& outcome(classify::FeatureKind kind) const;

  /// Point at window size `n`; throws if `n` was not on the axis.
  [[nodiscard]] const SampleSizePoint& at_sample_size(std::size_t n) const;
};

/// Runs the attack pipeline against any ExperimentBackend, streaming PIAT
/// batches straight into per-feature window accumulators (DetectorBank):
/// resident memory is O(batch_piats + features × window), independent of
/// capture length, and every configured feature is detected in one pass.
///
/// With a sample_size_axis, ONE capture pass feeds one DetectorBank per
/// axis entry (each clipped to its prefix budget), so a k-point
/// detection-vs-n curve costs one simulation. Memory grows to
/// O(batch + k · features × window); when the axis has several entries AND
/// an entropy Δh prepass is needed, the engine additionally materializes
/// the training capture once (O(train capture)) instead of re-simulating
/// it for the second pass, and passes the test capture through the same
/// per-class storage (O(max(train, test) capture)).
///
/// Each class's capture, training feed and test stream touch only that
/// class's state, so with a `pool` the engine runs them as pool tasks
/// (DESIGN.md §2.3): one per class, or on the materialized path a
/// moments task per class and one per (class, bank) for the training feed
/// and a producer and a classifier per class for the test capture. It
/// does so only when the pool has more than one thread, the caller is not
/// one of its workers and the backend is replayable; otherwise the same
/// tasks run inline, in order. Results are bit-identical either way.
class ExperimentEngine {
 public:
  /// Engine over the default simulated backend.
  ExperimentEngine() : ExperimentEngine(sim_backend()) {}

  /// The backend (and the pool, if any) must outlive the engine.
  /// `batch_piats` is the pull size per PiatSource::collect call.
  explicit ExperimentEngine(const ExperimentBackend& backend,
                            std::size_t batch_piats = 8192,
                            util::ThreadPool* pool = nullptr);

  /// Run one experiment end to end. Throws std::invalid_argument, before
  /// allocating, when a per-class capture (windows × n) wraps or exceeds
  /// util::kMaxRunCount PIATs.
  [[nodiscard]] ExperimentResult run(const ExperimentSpec& spec) const;

  /// One class's PIAT stream, pulled in batches through the backend. May
  /// return fewer than `piats` if a finite (live) backend exhausts.
  [[nodiscard]] std::vector<double> class_stream(const ExperimentSpec& spec,
                                                 std::size_t class_index,
                                                 std::size_t piats,
                                                 std::uint64_t stream_salt) const;

  [[nodiscard]] const ExperimentBackend& backend() const { return *backend_; }

 private:
  const ExperimentBackend* backend_;
  std::size_t batch_piats_;
  util::ThreadPool* pool_;
};

// ------------------------------------------------------------------ sweeps

/// Knobs for a sharded sweep.
struct SweepOptions {
  /// 0 = the process-wide shared pool; otherwise a dedicated pool of this
  /// many threads is used for the sweep. Results are identical either way.
  std::size_t threads = 0;
  /// PIAT pull size per PiatSource::collect call.
  std::size_t batch_piats = 8192;
  /// Points handed to a worker per claim. 0 = the default: 1 for sweeps,
  /// a flow-count-derived grain for PopulationEngine. The chunk partition
  /// derives from (count, grain) only, so grain never perturbs results.
  std::size_t grain = 0;
  /// Process-sharding of a population campaign (DESIGN.md §2.10): this
  /// process claims chunk c of the (flows, grain) partition iff
  /// c % shard_count == shard_index. The partition itself never changes
  /// with the shard count — shards select chunks, they do not re-cut them —
  /// so merging all shards' ChunkAggregates (core::merge_shards) is
  /// bit-identical to the 1-process run at any thread count. Consumed by
  /// core::run_population_shard; SweepRunner ignores both fields, and
  /// PopulationEngine::run requires the full population (shard_count ≤ 1).
  std::size_t shard_index = 0;
  std::size_t shard_count = 1;
  /// Called after every finished point with (points done, points total).
  /// Invoked from the workers outside any lock, so a slow observer cannot
  /// serialize them: invocations may arrive concurrently and out of order
  /// (each carries its own snapshot of the done count), so the callback
  /// must be thread-safe.
  std::function<void(std::size_t, std::size_t)> progress;
};

/// Shards sweep points across a thread pool, one RNG substream tree per
/// point. Deterministic: bit-identical results at any thread count (when
/// the backend is deterministic).
class SweepRunner {
 public:
  explicit SweepRunner(const ExperimentBackend& backend = sim_backend(),
                       SweepOptions options = {});

  /// One result per spec; slot i belongs to specs[i].
  [[nodiscard]] std::vector<ExperimentResult> run(
      const std::vector<ExperimentSpec>& specs) const;

  /// Lazy form for very large sweeps (e.g. a PopulationEngine's flows):
  /// point i runs spec_for(i), constructed inside the worker that executes
  /// it, so the full spec set never materializes at once. `spec_for` must
  /// be pure (same i → same spec) and thread-safe; it may be called from
  /// any worker. Results are identical to run(expanded vector).
  [[nodiscard]] std::vector<ExperimentResult> run(
      std::size_t count,
      const std::function<ExperimentSpec(std::size_t)>& spec_for) const;

 private:
  const ExperimentBackend* backend_;
  SweepOptions options_;
};

/// Scenario grid: padding policy (CIT / VIT σ_T) × environment axis
/// (utilization or diurnal hour) × tap position, expanded in deterministic
/// row-major order. The adversary-feature axis is NOT expanded into
/// separate points: all `features` ride one ExperimentSpec (primary +
/// extra_features), so an N-feature grid performs each simulation once and
/// reports N per-feature outcomes per point.
struct SweepGrid {
  enum class Environment { kLabZeroCross, kLabCrossTraffic, kCampus, kWan };

  Environment environment = Environment::kLabZeroCross;
  /// Sample-size axis: like the feature axis, NOT expanded into separate
  /// points. All entries ride each point's single capture via
  /// ExperimentSpec::sample_size_axis (prefix replay), so a k-point
  /// detection-vs-n grid still performs one simulation per (policy, env,
  /// tap) point. Empty ⇒ the single `window_size`.
  std::vector<std::size_t> sample_sizes;
  /// Policy axis: 0 ⇒ CIT at the paper's τ, σ > 0 ⇒ VIT-normal(τ, σ).
  /// Ignored when `policies` is non-empty.
  std::vector<Seconds> sigma_timers = {0.0};
  /// First-class policy axis (defense frontier): when non-empty it REPLACES
  /// sigma_timers — one point (one simulation) per policy prototype, cloned
  /// into the environment scenario. Any TimerPolicy rides here, including
  /// the payload-reactive on/off, budgeted and adaptive-gap defenses.
  std::vector<std::shared_ptr<const sim::TimerPolicy>> policies;
  /// kLabCrossTraffic axis: shared-link utilization.
  std::vector<double> utilizations = {0.25};
  /// kCampus / kWan axis: diurnal phase (hour of day).
  std::vector<double> hours = {12.0};
  /// Tap-position axis: number of hops BEFORE the adversary's tap (clamped
  /// to the scenario's path length). Empty ⇒ the scenario default.
  std::vector<std::size_t> tap_hops;
  /// The adversary half, copied into every expanded spec: all of
  /// plan.features() are evaluated per point in one stream pass, and the
  /// plan's detectors ride the same pass (like the feature axis, NOT
  /// expanded into separate points). plan.adversary.window_size is the
  /// single window size when `sample_sizes` is empty; otherwise the axis
  /// overrides it per spec.
  AdversaryPlan plan = {
      .adversary = {.feature = classify::FeatureKind::kSampleVariance,
                    .window_size = 1000},
      .extra_features = {},
      .detectors = {},
      .train_windows = 150,
      .test_windows = 150};
  std::uint64_t seed = 20030324;

  /// Number of points the grid expands to.
  [[nodiscard]] std::size_t size() const;

  /// Expand to specs (row-major: sigma, env axis, tap; features collapsed
  /// into each spec). Each point gets its own derived seed so streams never
  /// collide across points.
  [[nodiscard]] std::vector<ExperimentSpec> expand() const;
};

namespace detail {

/// The pooled Δh prepass of ExperimentEngine::run, exposed for its tests:
/// for each budget b of `budgets` (ascending, distinct), the sample
/// standard deviation of the first min(b, train[c].size()) values of every
/// class c, pooled in class order. Bitwise what stats::RunningStats::add
/// over those values, then stddev(), gives. Each pool must hold ≥ 2 values.
[[nodiscard]] std::vector<double> pooled_prepass_stddevs(
    const std::vector<std::vector<double>>& train,
    const std::vector<std::size_t>& budgets);

}  // namespace detail

}  // namespace linkpad::core
