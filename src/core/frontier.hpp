// Defense-frontier subsystem (DESIGN.md §2.8): the paper's countermeasure
// space is two points — CIT and distribution-drawn VIT — but its central
// trade-off (padding overhead vs. detection resistance) is a FRONTIER. A
// frontier run evaluates a set of TimerPolicy operating points (including
// the payload-reactive on/off, budgeted and adaptive-gap defenses) on one
// scenario with one adversary, one full simulation per policy point sharded
// via SweepRunner, and reports each point's measured padding cost next to
// the adversary's best detection rate — the overhead/detectability Pareto
// frontier a deployment engineer actually picks from.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/experiment.hpp"

namespace linkpad::core {

/// One frontier evaluation: a set of policy prototypes × one scenario
/// template × one adversary configuration.
struct FrontierSpec {
  /// Scenario template; `scenario.base.policy` is overwritten per point
  /// with each prototype from `policies`.
  Scenario scenario;
  /// The policy operating points. Labels come from TimerPolicy::name() —
  /// the single naming accessor tables, benches and JSON records share.
  std::vector<std::shared_ptr<const sim::TimerPolicy>> policies;
  /// Adversary template. Every feature in `plan.features()` is detected in
  /// one stream pass per point (DetectorBank); the frontier scores each
  /// point by the BEST of them — the adversary picks the strongest weapon.
  AdversaryPlan plan = {
      .adversary = {.feature = classify::FeatureKind::kSampleMean,
                    .window_size = 400},
      .extra_features = {classify::FeatureKind::kSampleVariance},
      .detectors = {},
      .train_windows = 40,
      .test_windows = 40};
  std::uint64_t seed = 20030324;

  /// The per-point ExperimentSpec (policy cloned into the scenario, seed
  /// derived per point — streams never collide across points).
  [[nodiscard]] ExperimentSpec point_spec(std::size_t point) const;
};

/// One policy's measured operating point on the frontier.
struct FrontierPoint {
  std::string policy;            ///< TimerPolicy::name() of this point
  double overhead_bps = 0.0;     ///< measured padding (dummy) bandwidth
  double wire_bps = 0.0;         ///< measured on-wire bandwidth
  double dummy_fraction = 0.0;   ///< dummies / wire packets
  Seconds delay_p95 = 0.0;       ///< worst per-class p95 payload delay
  double detection_rate = 0.0;   ///< adversary's best feature at this point
  bool pareto_efficient = false; ///< on the (overhead, detection) front
  ExperimentResult result;       ///< the full per-point experiment outcome
};

/// Frontier outcome, one point per FrontierSpec::policies entry (in order).
struct FrontierResult {
  std::vector<FrontierPoint> points;

  /// Indices of the Pareto-efficient points, in input order.
  [[nodiscard]] std::vector<std::size_t> front() const;
};

/// Run the frontier: one ExperimentEngine run per policy point, sharded
/// across the thread pool (SweepRunner semantics: bit-identical at any
/// thread count). Throws std::invalid_argument when the backend provides
/// no padding-cost accounting (e.g. a passive live tap) — the frontier has
/// no overhead coordinate without it.
[[nodiscard]] FrontierResult run_frontier(const FrontierSpec& spec,
                                          const ExperimentBackend& backend =
                                              sim_backend(),
                                          SweepOptions options = {});

/// The canonical budget ladder: TokenBucket(CIT(τ)) at each dummy budget
/// (pps), in the order given. frontier_study, fig_frontier and the golden
/// frontier test all build their ladder here so their points agree.
[[nodiscard]] std::vector<std::shared_ptr<const sim::TimerPolicy>>
budget_ladder(const std::vector<double>& dummy_budgets,
              Seconds tau = constants::kTau, double burst = 5.0);

/// True when `points` (in the order given) has detection rates that never
/// increase from one point to the next — the monotonicity contract of a
/// budget ladder: more padding budget must never make the adversary's job
/// easier. Exposed so frontier_study, fig_frontier and the golden test
/// apply the exact same check.
[[nodiscard]] bool detection_monotone_nonincreasing(
    const std::vector<FrontierPoint>& points, double tolerance = 0.0);

}  // namespace linkpad::core
