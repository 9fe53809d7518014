// Best-response adversary and the robust defense frontier (DESIGN.md
// §2.13). run_frontier scores every policy point against one FIXED
// detector bank — the paper's adversary. A deployed attacker instead
// re-tunes per policy: pick the statistic, window and detector family that
// hurts THIS defense most. This subsystem closes that loop:
//
//   tune_adversary       seeded successive halving (exhaustive grid for
//                        small spaces) over a DetectorSearchSpace, every
//                        round sharded through SweepRunner — bit-identical
//                        at any thread count;
//   run_robust_frontier  per policy point, tune on a held-out SELECTION
//                        seed, then re-score the point with the winning
//                        detector riding the ordinary frontier evaluation
//                        on the SCORING seed — which is exactly
//                        run_frontier's per-point seed, so the fixed-bank
//                        column is bit-identical to run_frontier and the
//                        tuned rate is structurally ≥ it.
//
// Seed discipline: selection and scoring streams must never overlap, or
// the tuner would pick the candidate that got lucky on the very stream it
// is later scored on (selection bias). Scoring uses
// derive_point_seed(seed, point) — run_frontier's rule — while selection
// uses derive_point_seed(derive_point_seed(seed, point), kSelectionStage),
// a stage deeper in the tree, so every capture the tuner ranked candidates
// on is disjoint from the capture the reported detection rate comes from.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "classify/search.hpp"
#include "core/frontier.hpp"

namespace linkpad::core {

/// Stage index of the held-out selection seed in the per-point seed tree
/// (scoring is the point seed itself; the engine's stream salts hang off
/// each seed one level further down).
inline constexpr std::uint64_t kSelectionStage = 1;

/// Knobs of the tuner's halving schedule.
struct TuneOptions {
  /// Spaces with at most this many candidates skip halving and run the
  /// exhaustive full-budget grid directly; halving also stops shrinking
  /// once the survivor set fits. Must be ≥ 1.
  std::size_t exhaustive_limit = 8;
  /// Train/test window budget (per class) of the FIRST halving round;
  /// doubles every round until it reaches the plan's full budget. Must be
  /// ≥ 2 (a window detector needs two training windows per class).
  std::size_t min_windows = 8;
  /// Sharding knobs for the per-round SweepRunner (threads / grain /
  /// batch).
  SweepOptions sweep;
};

/// One candidate's score in the tuner's final (full-budget) round.
struct TuneScore {
  std::size_t candidate = 0;  ///< index into DetectorSearchSpace::expand()
  std::string label;          ///< classify::candidate_label
  double attack_score = 0.0;  ///< DetectorOutcome::attack_score
};

/// Outcome of tuning one (scenario, plan, space) triple.
struct TuneResult {
  std::size_t winner = 0;     ///< candidate index (ties → lowest index)
  classify::DetectorSpec winner_spec;
  std::string winner_label;
  double winner_score = 0.0;  ///< winner's full-budget attack score
  std::size_t rounds = 0;       ///< evaluation rounds run (1 = exhaustive)
  std::size_t evaluations = 0;  ///< candidate-evaluations across all rounds
  /// Full-budget scores of the finalists, ascending candidate index.
  std::vector<TuneScore> final_scores;
};

/// Tune the attacker: find the candidate in `space` with the highest
/// attack score against `scenario`. Every candidate is evaluated as
/// `plan` with the candidate riding AdversaryPlan::detectors on the
/// SAME scenario and seed (identical captures — the comparison is fair,
/// and a doubled budget extends the same stream by the prefix property,
/// it never re-rolls it). Successive halving: rounds double the window
/// budget from options.min_windows, each keeping the better half (ties →
/// lower candidate index), until the survivors fit options.exhaustive_limit
/// or the budget reaches the plan's; a final full-budget round ranks the
/// finalists. Deterministic: bit-identical winner and scores at any
/// thread count.
///
/// One stored capture per call: `backend` is opened once per (class,
/// salt ∈ {1, 2}) at the widest budget any candidate reads (the plan's
/// train/test windows × the largest candidate window size), and every
/// candidate's engine run reads that capture from memory. It costs
/// classes × 2 × widest budget doubles (≈384 KB for two classes, 12
/// windows and a widest window of 1000 PIATs), and it makes "identical
/// captures" hold on a non-replayable (live) backend too.
[[nodiscard]] TuneResult tune_adversary(
    const Scenario& scenario, const AdversaryPlan& plan,
    const classify::DetectorSearchSpace& space, std::uint64_t seed,
    const ExperimentBackend& backend = sim_backend(),
    const TuneOptions& options = {});

/// One robust-frontier evaluation: an ordinary FrontierSpec plus the
/// attacker's search space and tuning schedule.
struct RobustFrontierSpec {
  FrontierSpec frontier;
  classify::DetectorSearchSpace space;
  TuneOptions tune;

  /// Held-out seed the attacker is tuned on for `point` (never scored on).
  [[nodiscard]] std::uint64_t selection_seed(std::size_t point) const {
    return derive_point_seed(derive_point_seed(frontier.seed, point),
                             kSelectionStage);
  }
  /// Seed the reported rates come from — run_frontier's per-point rule,
  /// so the fixed-bank column matches run_frontier bit-for-bit.
  [[nodiscard]] std::uint64_t scoring_seed(std::size_t point) const {
    return derive_point_seed(frontier.seed, point);
  }
};

/// One policy's operating point on the robust frontier.
struct RobustFrontierPoint {
  std::string policy;            ///< TimerPolicy::name() of this point
  double overhead_bps = 0.0;     ///< measured padding (dummy) bandwidth
  double wire_bps = 0.0;         ///< measured on-wire bandwidth
  double dummy_fraction = 0.0;   ///< dummies / wire packets
  Seconds delay_p95 = 0.0;       ///< worst per-class p95 payload delay
  /// Best FIXED-bank feature at this point — bit-identical to
  /// run_frontier's detection_rate (same seed, same plan, same streams).
  double fixed_detection = 0.0;
  /// Best of {fixed bank, tuned attacker} on the scoring capture;
  /// structurally ≥ fixed_detection (the tuned attacker keeps the fixed
  /// bank in hand — tuning can only add a weapon, never drop one).
  double tuned_detection = 0.0;
  std::size_t winner = 0;        ///< tuned candidate index into the space
  std::string winner_label;      ///< classify::candidate_label of winner
  double selection_score = 0.0;  ///< winner's score on the SELECTION seed
  bool pareto_efficient = false; ///< on the (overhead, TUNED detection) front

  /// What re-tuning bought the attacker at this point (≥ 0).
  [[nodiscard]] double tuned_gain() const {
    return tuned_detection - fixed_detection;
  }
};

/// Robust-frontier outcome, one point per policy (in input order).
struct RobustFrontierResult {
  std::vector<RobustFrontierPoint> points;

  /// Indices of the Pareto-efficient points, in input order.
  [[nodiscard]] std::vector<std::size_t> front() const;
};

/// Run the robust frontier: per policy point, tune_adversary on the
/// held-out selection seed, then one ordinary frontier sweep on the
/// scoring seeds with each point's winning detector riding its bank.
/// `options` shapes the sharding of BOTH stages (tune.sweep's sharding
/// knobs are overridden by it so one flag drives the whole run); results
/// are bit-identical at any thread count. Throws std::invalid_argument
/// when the backend provides no padding-cost accounting.
[[nodiscard]] RobustFrontierResult run_robust_frontier(
    const RobustFrontierSpec& spec,
    const ExperimentBackend& backend = sim_backend(),
    SweepOptions options = {});

/// Canonical byte-diffable serialization of a robust-frontier result:
/// single-line JSON through the shard files' writer (core/wire.hpp), every
/// double as its 16-hex-digit IEEE-754 bit pattern. Two runs agree iff the
/// strings are equal — the thread-count bit-identity tests diff exactly
/// this.
[[nodiscard]] std::string robust_frontier_json(
    const RobustFrontierResult& result);

namespace detail {

/// The capture tune_adversary evaluates its candidates on, exposed for its
/// tests: each (class, salt ∈ {1, 2}) stream of (scenario, seed) pulled
/// once from `backend` — `train_piats` for salt 1, `test_piats` for salt 2
/// — and served read-only by the returned backend, whose opens ignore the
/// scenario argument. Opening any other (class, seed, salt) key, or reading
/// past the end of a stream `backend` delivered in full, throws
/// std::out_of_range ("stored capture: ..."); a stream `backend` delivered
/// short reports exhaustion where `backend` did.
[[nodiscard]] std::unique_ptr<ExperimentBackend> store_capture(
    const ExperimentBackend& backend, const Scenario& scenario,
    std::uint64_t seed, std::size_t train_piats, std::size_t test_piats,
    std::size_t batch_piats);

}  // namespace detail

}  // namespace linkpad::core
