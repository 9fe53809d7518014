// Extension: the STREAMING change-point adversary (CUSUM + adaptive-EWMA,
// classify/cpd.hpp). The fixed-sample attack of Fig 5(b) and the SPRT both
// wait for whole windows/batches; a change-point attacker scores every PIAT
// as it arrives and alarms the moment the stream drifts from the padded
// baseline. This bench measures time-to-detection (worst first-crossing
// over the two class streams) and realized false alarms across padding
// strengths, with both schemes' thresholds Monte-Carlo-calibrated to the
// same 5% within-horizon false-alarm target — so the sigma_T axis compares
// equally-calibrated attackers, not hand-picked thresholds.
#include <iostream>

#include "classify/detector_bank.hpp"
#include "common.hpp"
#include "core/experiment.hpp"

using namespace linkpad;

int main(int argc, char** argv) try {
  auto args = bench::make_figure_parser(
      "abl_cpd", "Extension: streaming change-point (CUSUM / adaptive-EWMA) "
                 "adversary vs padding strength");
  if (!args.parse(argc, argv)) return 1;
  const auto opts = bench::figure_options(args);

  const std::size_t train_piats = core::scaled(20000, opts.effort, 2000);
  const std::size_t test_piats = core::scaled(20000, opts.effort, 2000);
  const std::size_t trials = core::scaled(300, opts.effort, 50);
  const core::ExperimentEngine engine;

  util::TextTable table({"sigma_T (us)", "scheme", "threshold (5% FAR)",
                         "detected", "n @ detection", "false alarms"});

  const double sigmas[] = {0.0, 5.0, 10.0};
  for (std::size_t s = 0; s < 3; ++s) {
    const double sigma_us = sigmas[s];
    core::ExperimentSpec spec;
    spec.scenario = core::lab_zero_cross(
        sigma_us > 0.0 ? core::make_vit(sigma_us * 1e-6) : core::make_cit());
    spec.seed = core::derive_point_seed(opts.seed, s);

    const std::vector<std::vector<double>> train = {
        engine.class_stream(spec, 0, train_piats, 1),
        engine.class_stream(spec, 1, train_piats, 1)};
    const std::vector<std::vector<double>> test = {
        engine.class_stream(spec, 0, test_piats, 2),
        engine.class_stream(spec, 1, test_piats, 2)};

    for (const auto kind :
         {classify::CpdKind::kCusum, classify::CpdKind::kAdaptiveEwma}) {
      classify::CpdConfig config;
      config.kind = kind;
      config.target_far = 0.05;
      config.horizon = test_piats;
      config.trials = trials;
      config.calibration_seed = core::derive_point_seed(spec.seed, 3);
      const auto model = classify::CpdModel::train(config, train);

      std::vector<classify::CpdClassState> states(2, model.initial_state());
      for (std::size_t c = 0; c < 2; ++c) {
        for (const double x : test[c]) model.update(states[c], x);
      }
      const auto ttd = model.time_to_detection(states);
      table.add_row(
          {util::fmt(sigma_us, 1), classify::cpd_kind_name(kind),
           util::fmt(model.threshold(), 4), ttd.detected ? "yes" : "no",
           ttd.detected ? std::to_string(ttd.n_at_detection) : "-",
           std::to_string(ttd.false_alarms)});
    }
  }

  if (args.flag("--csv")) {
    table.write_csv(std::cout);
  } else {
    std::cout << "== Extension: streaming change-point adversary, "
                 "ARL0-calibrated ==\n\n"
              << table.to_string()
              << "\nReading: the CUSUM's per-PIAT log-likelihood ratio "
                 "exploits any density\ndifference the padding leaves, so it "
                 "crosses within a few hundred PIATs\nwherever the "
                 "fixed-sample attack eventually wins. The adaptive-EWMA "
                 "keys\non MEAN drift only: a rate-equalizing timer leaves "
                 "it blind (it honestly\nnever fires), showing what the "
                 "defense does and does not equalize.\n";
  }
  return 0;
} catch (const std::exception& error) {
  std::fprintf(stderr, "abl_cpd: %s\n", error.what());
  return 1;
}
