// fig_frontier: the overhead/detectability frontier of the budgeted
// (token-bucket) defense — the curve the paper's two countermeasure points
// (CIT, VIT) are endpoints of. Sweeps the dummy-budget axis, measures each
// point's real padding bandwidth and the adversary's best detection rate in
// one simulation per point, and asserts the ladder's monotonicity contract
// (more budget must never help the adversary) before printing.
//
// Run: ./fig_frontier [--effort 1.0] [--seed 20030324] [--csv] [--no-plot]
#include <cstdio>
#include <vector>

#include "common.hpp"
#include "core/frontier.hpp"
#include "core/scenarios.hpp"

using namespace linkpad;

int main(int argc, char** argv) try {
  auto args = bench::make_figure_parser(
      "fig_frontier", "budgeted padding: overhead vs detection frontier");
  if (!args.parse(argc, argv)) return 1;
  const auto options = bench::figure_options(args);

  const std::vector<double> budgets = {0.0,  20.0, 40.0, 60.0,
                                       80.0, 90.0, 100.0};
  core::FrontierSpec spec;
  spec.scenario = core::lab_zero_cross(core::make_cit());
  spec.policies = core::budget_ladder(budgets);
  spec.plan.adversary.window_size = 400;
  spec.plan.train_windows = core::scaled(40, options.effort, 4);
  spec.plan.test_windows = spec.plan.train_windows;
  spec.seed = options.seed;

  const core::ExperimentBackend& backend =
      options.backend ? *options.backend : core::sim_backend();
  util::Stopwatch watch;
  // Throws std::invalid_argument for --backend live: a passive tap has no
  // overhead coordinate.
  const core::FrontierResult frontier = core::run_frontier(spec, backend);
  std::fprintf(stderr, "fig_frontier: %zu policy points in %.2f s\n",
               frontier.points.size(), watch.elapsed_seconds());

  // Monotonicity is checked AFTER printing (a violation must be
  // diagnosable) with a tolerance of two test-window flips: each point's
  // rate is a Monte-Carlo estimate over 2 · test_windows windows, so
  // adjacent near-equal rungs legitimately differ by sampling noise.
  const double tolerance = 1.0 / static_cast<double>(spec.plan.test_windows);

  core::FigureSeries fig;
  fig.title = "budgeted padding: detection vs overhead (lab, n = 400)";
  fig.x_label = "dummy budget (pps)";
  fig.y_label = "rate";
  fig.x = budgets;
  core::Curve detection{"best-feature detection", {}};
  // Normalized against the TOTAL 1/τ wire ceiling (payload + dummies), so
  // full padding tops out at the dummy share (~0.75 here), not at 1.0.
  core::Curve overhead{"padding bw (frac of wire ceiling)", {}};
  const double full_padding_bps =
      core::padded_wire_rate_bps(spec.scenario);  // 1/τ ceiling
  for (const auto& point : frontier.points) {
    detection.y.push_back(point.detection_rate);
    overhead.y.push_back(point.overhead_bps / full_padding_bps);
  }
  fig.curves = {detection, overhead};
  bench::print_figure(fig, args);

  std::printf("\npolicy labels (TimerPolicy::name), overhead in kbps:\n");
  for (const auto& point : frontier.points) {
    std::printf("  %-44s %8.1f kbps  det %.4f %s\n", point.policy.c_str(),
                point.overhead_bps / 1e3, point.detection_rate,
                point.pareto_efficient ? "[pareto]" : "");
  }

  if (!core::detection_monotone_nonincreasing(frontier.points, tolerance)) {
    std::fprintf(stderr,
                 "FATAL: detection rate rose with padding budget beyond "
                 "sampling noise (tolerance %.4f) — the budget ladder's "
                 "monotonicity contract is broken\n",
                 tolerance);
    return 1;
  }
  return 0;
} catch (const std::exception& error) {
  std::fprintf(stderr, "fig_frontier: %s\n", error.what());
  return 1;
}
