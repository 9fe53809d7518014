// Fig 5(b): theoretical sample size n(99%) an adversary needs for a 99%
// detection rate, as a function of the VIT timer spread sigma_T
// (Theorems 2/3 inverted at the calibrated gateway variances).
//
// Paper anchor: at sigma_T = 1 ms, n(99%) > 1e11 — "virtually impossible
// for an attacker to retrieve such a large sample".
//
// --empirical adds the MEASURED n(99%) companion: per sigma, the whole
// sample-size axis is evaluated over one simulated capture (prefix replay),
// so the measured curve costs one simulation per sigma instead of one per
// (sigma, n) pair.
#include "common.hpp"

using namespace linkpad;

int main(int argc, char** argv) try {
  auto args = bench::make_figure_parser(
      "fig5b_n99_vs_sigma", "Fig 5(b): theoretical n(99%) vs sigma_T");
  args.add_flag("--empirical",
                "also measure n(99%) on the testbed (prefix-replay axis)");
  if (!args.parse(argc, argv)) return 1;

  const auto opts = bench::figure_options(args);
  const auto fig = core::fig5b_n99_vs_sigma(opts);
  bench::print_figure(fig, args, /*log_x=*/true, /*log_y=*/true);

  if (args.flag("--empirical")) {
    const auto measured = core::fig5b_n99_vs_sigma_empirical(opts);
    bench::print_figure(measured, args, /*log_x=*/true, /*log_y=*/true);
  }
  return 0;
} catch (const std::exception& error) {
  std::fprintf(stderr, "fig5b_n99_vs_sigma: %s\n", error.what());
  return 1;
}
