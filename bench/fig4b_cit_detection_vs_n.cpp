// Fig 4(b): detection rate vs sample size n under CIT padding with zero
// cross traffic — empirical (KDE-Bayes adversary on the simulated testbed)
// and theoretical (Theorems 1-3 at the measured r̂) curves for sample mean,
// sample variance and sample entropy.
//
// Paper shape: mean flat at ~50%; variance & entropy climb with n and are
// ~100% by n = 1000; experiment tracks theory.
#include "common.hpp"

using namespace linkpad;

int main(int argc, char** argv) try {
  auto args = bench::make_figure_parser(
      "fig4b_cit_detection_vs_n",
      "Fig 4(b): CIT detection rate vs sample size (experiment + theory)");
  if (!args.parse(argc, argv)) return 1;

  const auto fig = core::fig4b_detection_vs_n(bench::figure_options(args));
  bench::print_figure(fig, args, /*log_x=*/true);
  return 0;
} catch (const std::exception& error) {
  std::fprintf(stderr, "fig4b_cit_detection_vs_n: %s\n", error.what());
  return 1;
}
