// Fig 5(a): VIT padding — empirical detection rate vs timer spread sigma_T
// at fixed sample size n = 2000 (variance & entropy features).
//
// Paper shape: detection drops quickly toward 50% as sigma_T grows; VIT
// beats CIT at identical bandwidth.
#include "common.hpp"

using namespace linkpad;

int main(int argc, char** argv) try {
  auto args = bench::make_figure_parser(
      "fig5a_vit_detection_vs_sigma",
      "Fig 5(a): VIT detection rate vs sigma_T at n = 2000");
  if (!args.parse(argc, argv)) return 1;

  const auto fig = core::fig5a_detection_vs_sigma(bench::figure_options(args));
  bench::print_figure(fig, args, /*log_x=*/true);
  return 0;
} catch (const std::exception& error) {
  std::fprintf(stderr, "fig5a_vit_detection_vs_sigma: %s\n", error.what());
  return 1;
}
