// Ablation: how accurate are the paper's closed forms? Theorems 2/3 are
// Chebyshev-style approximations; this repo also implements the tighter
// CLT sampling-law rates (analysis/theory.hpp). This bench races both
// against the measured adversary across the (r, n) plane — the result
// motivates why the DESIGN GUIDELINE uses the CLT forms (a designer who
// trusts Theorem 2 near r ~ 1 underestimates the adversary badly).
#include <iostream>

#include "analysis/theory.hpp"
#include "common.hpp"
#include "core/experiment.hpp"

using namespace linkpad;

int main(int argc, char** argv) try {
  auto args = bench::make_figure_parser(
      "abl_theory_accuracy",
      "Ablation: Theorem 2 vs CLT sampling law vs measured adversary");
  if (!args.parse(argc, argv)) return 1;
  const auto opts = bench::figure_options(args);

  const std::size_t windows = core::scaled(150, opts.effort, 12);

  util::TextTable table(
      {"sigma_T (us)", "n", "r_hat", "measured", "Theorem 2", "CLT law"});

  std::uint64_t salt = 0;
  for (double sigma_us : {0.0, 8.0, 15.0}) {
    for (std::size_t n : {400u, 1000u}) {
      core::ExperimentSpec spec;
      spec.scenario = core::lab_zero_cross(
          sigma_us > 0.0 ? core::make_vit(sigma_us * 1e-6) : core::make_cit());
      spec.plan.adversary.feature = classify::FeatureKind::kSampleVariance;
      spec.plan.adversary.window_size = n;
      spec.plan.train_windows = windows;
      spec.plan.test_windows = windows;
      spec.seed = core::derive_point_seed(opts.seed, salt++);
      const auto result = core::ExperimentEngine().run(spec);

      table.add_row({util::fmt(sigma_us, 1), std::to_string(n),
                     util::fmt(result.top().r_hat, 4),
                     util::fmt(result.primary().detection_rate, 4),
                     util::fmt(analysis::detection_rate_variance(
                                   result.top().r_hat, static_cast<double>(n)),
                               4),
                     util::fmt(analysis::detection_rate_variance_clt(
                                   result.top().r_hat, static_cast<double>(n)),
                               4)});
    }
  }

  if (args.flag("--csv")) {
    table.write_csv(std::cout);
  } else {
    std::cout << "== Ablation: accuracy of the closed forms (variance "
                 "feature) ==\n\n"
              << table.to_string()
              << "\nReading: at r well above 1 both forms work; as sigma_T "
                 "pushes r toward 1\nTheorem 2 collapses to its 0.5 clamp "
                 "while the adversary still detects —\nthe CLT law keeps "
                 "tracking him. Design against the CLT column.\n";
  }
  return 0;
} catch (const std::exception& error) {
  std::fprintf(stderr, "abl_theory_accuracy: %s\n", error.what());
  return 1;
}
