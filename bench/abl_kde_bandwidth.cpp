// Ablation: how sensitive is the adversary to his density-estimation
// choices? The paper fixes Gaussian KDE with (implicitly) a rule-of-thumb
// bandwidth; here we sweep Silverman vs Scott vs fixed bandwidths and the
// Gaussian/histogram density models at the paper's operating point
// (CIT, zero cross, n = 1000, variance feature).
#include <iostream>

#include "common.hpp"
#include "core/experiment.hpp"

using namespace linkpad;

namespace {

double attack(classify::DensityKind density, stats::BandwidthRule rule,
              double fixed_bw, double effort, std::uint64_t seed) {
  core::ExperimentSpec spec;
  spec.scenario = core::lab_zero_cross(core::make_cit());
  spec.plan.adversary.feature = classify::FeatureKind::kSampleVariance;
  spec.plan.adversary.window_size = 1000;
  spec.plan.adversary.density = density;
  spec.plan.adversary.bandwidth = rule;
  spec.plan.adversary.fixed_bandwidth = fixed_bw;
  spec.plan.train_windows = core::scaled(200, effort, 12);
  spec.plan.test_windows = spec.plan.train_windows;
  spec.seed = seed;
  return core::ExperimentEngine().run(spec).primary().detection_rate;
}

}  // namespace

int main(int argc, char** argv) try {
  auto args = bench::make_figure_parser(
      "abl_kde_bandwidth",
      "Ablation: adversary density model / bandwidth rule sensitivity");
  if (!args.parse(argc, argv)) return 1;
  const auto opts = bench::figure_options(args);

  util::TextTable table({"density model", "detection rate"});
  struct Case {
    std::string name;
    classify::DensityKind density;
    stats::BandwidthRule rule;
    double fixed_bw;
  };
  // Fixed bandwidths are in feature units (variance of seconds^2): the
  // variance feature lives at the 1e-10 s^2 scale, so "too narrow" and
  // "too wide" are relative to that.
  const std::vector<Case> cases = {
      {"KDE + Silverman (paper)", classify::DensityKind::kKde,
       stats::BandwidthRule::kSilverman, 0.0},
      {"KDE + Scott", classify::DensityKind::kKde,
       stats::BandwidthRule::kScott, 0.0},
      {"KDE + fixed (too narrow)", classify::DensityKind::kKde,
       stats::BandwidthRule::kFixed, 1e-13},
      {"KDE + fixed (too wide)", classify::DensityKind::kKde,
       stats::BandwidthRule::kFixed, 1e-9},
      {"parametric Gaussian", classify::DensityKind::kGaussian,
       stats::BandwidthRule::kSilverman, 0.0},
      {"raw histogram (32 bins)", classify::DensityKind::kHistogram,
       stats::BandwidthRule::kSilverman, 0.0},
  };

  std::uint64_t salt = 0;
  for (const auto& c : cases) {
    const double v = attack(c.density, c.rule, c.fixed_bw, opts.effort,
                            core::derive_point_seed(opts.seed, salt++));
    table.add_row({c.name, util::fmt(v, 4)});
  }

  if (args.flag("--csv")) {
    table.write_csv(std::cout);
  } else {
    std::cout << "== Ablation: density model sensitivity (CIT, n = 1000, "
                 "variance feature) ==\n\n"
              << table.to_string()
              << "\nExpectation: the attack is forgiving — Silverman/Scott/"
                 "Gaussian all land near\nthe same rate (the class-"
                 "conditional feature laws are near-normal); only\npatholog"
                 "ically narrow fixed bandwidths or coarse histograms cost "
                 "accuracy.\n";
  }
  return 0;
} catch (const std::exception& error) {
  std::fprintf(stderr, "abl_kde_bandwidth: %s\n", error.what());
  return 1;
}
