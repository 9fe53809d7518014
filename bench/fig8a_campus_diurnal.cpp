// Fig 8(a): detection rate (n = 1000) across a full day on the Texas A&M
// campus path (4 enterprise hops, light diurnal cross load), CIT padding.
//
// Paper shape: variance/entropy detection high essentially all day — a
// medium-size enterprise network does not disturb the padded stream enough;
// "we would not recommend CIT padding to be used in such an environment".
#include "common.hpp"

using namespace linkpad;

int main(int argc, char** argv) try {
  auto args = bench::make_figure_parser(
      "fig8a_campus_diurnal",
      "Fig 8(a): campus-path detection rate vs time of day (n = 1000)");
  if (!args.parse(argc, argv)) return 1;

  const auto fig =
      core::fig8_detection_vs_hour(/*wan=*/false, bench::figure_options(args));
  bench::print_figure(fig, args);
  return 0;
} catch (const std::exception& error) {
  std::fprintf(stderr, "fig8a_campus_diurnal: %s\n", error.what());
  return 1;
}
