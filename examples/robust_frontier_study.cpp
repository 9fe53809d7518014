// robust_frontier_study: what does the frontier look like when the
// attacker fights back? frontier_study scores every defense against the
// paper's FIXED adversary; here each policy point first gets its own
// best-response attacker — tuned by seeded successive halving over a
// feature × window × detector-family search space on a held-out selection
// seed — and the Pareto table is re-scored against the tuned attacker on
// the ordinary scoring seed. The printed table shows, per policy, the
// fixed-bank rate (bit-identical to run_frontier), the tuned rate (never
// lower), the gain re-tuning bought, and the weapon the attacker picked.
//
// Run: ./robust_frontier_study [--n 200] [--windows 12] [--seed 20030324]
//                              [--edf] [--json]
#include <cstdio>
#include <iostream>
#include <vector>

#include "core/robust_frontier.hpp"
#include "core/scenarios.hpp"
#include "util/cli.hpp"
#include "util/table.hpp"

using namespace linkpad;

int main(int argc, char** argv) try {
  util::ArgParser args("robust_frontier_study",
                       "re-score the defense frontier against a per-policy "
                       "best-response adversary");
  args.add_count("--n", 200, util::kMaxRunCount,
                 "fixed-bank window size (PIATs per window)");
  args.add_count("--windows", 12, util::kMaxRunCount,
                 "train/test windows per class");
  args.add_int("--seed", 20030324, "root RNG seed");
  args.add_flag("--edf", "add EDF (KS/CvM) candidates to the search space");
  args.add_flag("--json", "also print the canonical hex-double JSON record");
  if (!args.parse(argc, argv)) return 1;

  core::RobustFrontierSpec spec;
  spec.frontier.scenario = core::lab_zero_cross(core::make_cit());
  // The golden budget ladder (peak payload 40 pps vs the 100 pps timer)
  // plus the idle-stop point the fixed adversary already reads trivially.
  spec.frontier.policies =
      core::budget_ladder({0.0, 40.0, 70.0, 85.0, 100.0});
  spec.frontier.policies.push_back(core::make_onoff(/*hangover=*/20e-3));
  spec.frontier.plan.adversary.window_size =
      args.count("--n");
  spec.frontier.plan.train_windows =
      args.count("--windows");
  spec.frontier.plan.test_windows = spec.frontier.plan.train_windows;
  spec.frontier.seed = static_cast<std::uint64_t>(args.integer("--seed"));
  // The attacker's menu: every scalar feature at three window sizes
  // (optionally the EDF family too — stronger but much slower to train).
  spec.space.window_sizes = {100, 200, 400};
  if (args.flag("--edf")) {
    spec.space.edf_distances = {classify::EdfDistance::kKolmogorovSmirnov,
                                classify::EdfDistance::kCramerVonMises};
  }

  core::SweepOptions options;
  options.progress = [](std::size_t done, std::size_t total) {
    std::fprintf(stderr, "\r  %zu/%zu points...", done, total);
    if (done == total) std::fprintf(stderr, "\n");
  };
  const auto robust =
      core::run_robust_frontier(spec, core::sim_backend(), options);

  std::printf(
      "robust defense frontier, lab zero-cross, fixed bank n = %zu, "
      "%zu windows,\n%zu attacker candidates per point:\n\n",
      spec.frontier.plan.adversary.window_size,
      spec.frontier.plan.train_windows, spec.space.size());
  util::TextTable table({"policy", "overhead kbps", "fixed det",
                         "tuned det", "gain", "tuned attacker", "pareto"});
  for (const auto& point : robust.points) {
    table.add_row({point.policy, util::fmt(point.overhead_bps / 1e3, 1),
                   util::fmt(point.fixed_detection, 4),
                   util::fmt(point.tuned_detection, 4),
                   util::fmt(point.tuned_gain(), 4), point.winner_label,
                   point.pareto_efficient ? "*" : ""});
  }
  std::cout << table.to_string() << '\n';

  // The golden contracts the study itself enforces:
  //  1. tuned ≥ fixed on every point (the attacker keeps the fixed bank);
  //  2. the budget ladder stays monotone under the TUNED rates — more
  //     padding budget must not help even a re-tuned adversary.
  bool tuned_at_least_fixed = true;
  for (const auto& point : robust.points) {
    tuned_at_least_fixed =
        tuned_at_least_fixed && point.tuned_detection >= point.fixed_detection;
  }
  std::vector<core::FrontierPoint> ladder;
  for (std::size_t i = 0; i + 1 < robust.points.size(); ++i) {
    core::FrontierPoint rung;
    rung.detection_rate = robust.points[i].tuned_detection;
    ladder.push_back(rung);
  }
  const double tolerance =
      1.0 / static_cast<double>(spec.frontier.plan.test_windows);
  const bool monotone =
      core::detection_monotone_nonincreasing(ladder, tolerance);
  std::printf("tuned ≥ fixed on every point: %s\n",
              tuned_at_least_fixed ? "yes" : "VIOLATED");
  std::printf(
      "budget ladder monotone under tuned rates (tolerance %.4f): %s\n",
      tolerance, monotone ? "yes" : "VIOLATED");

  if (args.flag("--json")) {
    std::printf("\n%s\n", core::robust_frontier_json(robust).c_str());
  }

  std::printf(
      "\nReading the robust frontier: partial budgets were already at\n"
      "certainty, so re-tuning buys the attacker nothing there — the gain\n"
      "concentrates exactly where the defense was winning. Full padding's\n"
      "margin under the fixed bank overstates the deployed margin by the\n"
      "gain column: budget the defense against the tuned rate, not the\n"
      "paper's fixed adversary.\n");
  return tuned_at_least_fixed && monotone ? 0 : 1;
} catch (const std::exception& error) {
  std::fprintf(stderr, "robust_frontier_study: %s\n", error.what());
  return 1;
}
