// Fig 8(b): detection rate (n = 1000) across a full day on the WAN path
// Ohio State -> Texas A&M (15 hops, one congested peering bottleneck with a
// strong diurnal load), CIT padding.
//
// Paper shape: lower than the campus curves overall; dips toward 50% in the
// busy afternoon; still >= ~65% during the quiet night (2:00) — CIT "may
// still not be sufficiently safe even if the adversary is very remote".
#include "common.hpp"

using namespace linkpad;

int main(int argc, char** argv) try {
  auto args = bench::make_figure_parser(
      "fig8b_wan_diurnal",
      "Fig 8(b): WAN-path detection rate vs time of day (n = 1000)");
  if (!args.parse(argc, argv)) return 1;

  const auto fig =
      core::fig8_detection_vs_hour(/*wan=*/true, bench::figure_options(args));
  bench::print_figure(fig, args);
  return 0;
} catch (const std::exception& error) {
  std::fprintf(stderr, "fig8b_wan_diurnal: %s\n", error.what());
  return 1;
}
