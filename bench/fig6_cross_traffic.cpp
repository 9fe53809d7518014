// Fig 6: CIT padding with cross traffic through the shared router output
// link — empirical detection rate (n = 1000) vs link utilization.
//
// Paper shape: variance & entropy detection decrease with utilization
// (cross traffic inflates sigma_net, pushing r toward 1); entropy stays
// above variance (outlier robustness); mean stays near 50%; even at 40%
// utilization entropy remains ~70% — CIT is still unsafe.
#include "common.hpp"

using namespace linkpad;

int main(int argc, char** argv) try {
  auto args = bench::make_figure_parser(
      "fig6_cross_traffic",
      "Fig 6: CIT detection rate vs shared-link utilization (n = 1000)");
  if (!args.parse(argc, argv)) return 1;

  const auto fig =
      core::fig6_detection_vs_utilization(bench::figure_options(args));
  bench::print_figure(fig, args);
  return 0;
} catch (const std::exception& error) {
  std::fprintf(stderr, "fig6_cross_traffic: %s\n", error.what());
  return 1;
}
