// Fig 4(a): PIAT probability density of the padded stream under CIT
// (zero cross traffic, tap at GW1) for 10 pps vs 40 pps payload.
//
// Paper shape: both densities bell-shaped around the 10 ms timer mean,
// identical means, the 40 pps curve visibly wider (r = sigma_h^2/sigma_l^2
// slightly above 1). Run with --csv for machine-readable rows.
#include <cstdio>
#include <iostream>

#include "common.hpp"

using namespace linkpad;

int main(int argc, char** argv) try {
  auto args = bench::make_figure_parser(
      "fig4a_piat_pdf", "Fig 4(a): padded PIAT pdf at 10 vs 40 pps (CIT)");
  if (!args.parse(argc, argv)) return 1;

  const auto result = core::fig4a_piat_pdf(bench::figure_options(args));

  core::FigureSeries fig;
  fig.title = "Fig 4(a): PIAT pdf, CIT, zero cross traffic";
  fig.x_label = "PIAT (ms)";
  fig.y_label = "density";
  for (double x : result.grid) fig.x.push_back(units::to_ms(x));
  core::Curve low{"10 pps", result.pdf_low};
  core::Curve high{"40 pps", result.pdf_high};
  fig.curves = {low, high};

  if (!args.flag("--csv")) {
    std::printf("PIAT summary (10 pps): mean %.6f ms  std %.3f us  skew %+.3f\n",
                units::to_ms(result.summary_low.mean),
                units::to_us(result.summary_low.stddev),
                result.summary_low.skewness);
    std::printf("PIAT summary (40 pps): mean %.6f ms  std %.3f us  skew %+.3f\n",
                units::to_ms(result.summary_high.mean),
                units::to_us(result.summary_high.stddev),
                result.summary_high.skewness);
    std::printf("variance ratio r_hat = %.4f (paper: slightly above 1)\n\n",
                result.r_hat);
  }

  // Density plot wants its own autoscaled y axis.
  std::vector<std::string> header = {fig.x_label, "pdf 10pps", "pdf 40pps"};
  util::TextTable table(header);
  for (std::size_t i = 0; i < fig.x.size(); i += 8) {
    table.add_row({util::fmt(fig.x[i], 5), util::fmt_sci(result.pdf_low[i], 3),
                   util::fmt_sci(result.pdf_high[i], 3)});
  }
  if (args.flag("--csv")) {
    table.write_csv(std::cout);
    return 0;
  }
  std::cout << table.to_string() << '\n';

  if (!args.flag("--no-plot")) {
    util::PlotOptions plot;
    plot.x_label = "PIAT (ms)";
    plot.y_label = "density";
    std::cout << util::render_plot(
        {util::Series{"10 pps", fig.x, result.pdf_low},
         util::Series{"40 pps", fig.x, result.pdf_high}},
        plot);
  }
  return 0;
} catch (const std::exception& error) {
  std::fprintf(stderr, "fig4a_piat_pdf: %s\n", error.what());
  return 1;
}
