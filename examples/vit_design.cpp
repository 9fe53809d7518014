// vit_design: the paper's design-guideline workflow, end to end.
//
// A security engineer wants the padded link to leak at most v_max against
// an adversary who can capture up to n_max PIATs of one payload epoch:
//   1. measure the deployed gateway's jitter components at both rates,
//   2. solve for the smallest admissible variance ratio r* and the
//      VIT spread sigma_T that achieves it,
//   3. deploy and VERIFY by re-running the strongest attack.
//
// Run: ./vit_design [--vmax 0.55] [--nmax 5000]
#include <cstdio>

#include "analysis/guidelines.hpp"
#include "core/experiment.hpp"
#include "core/piat_model.hpp"
#include "core/scenarios.hpp"
#include "util/cli.hpp"

using namespace linkpad;

int main(int argc, char** argv) try {
  util::ArgParser args("vit_design",
                       "configure VIT padding for a target detection bound");
  args.add_num("--vmax", 0.55, "tolerated detection rate (0.5..1)");
  args.add_num("--nmax", 5000, "adversary's largest credible sample");
  args.add_int("--seed", 11, "root RNG seed");
  if (!args.parse(argc, argv)) return 1;

  const double v_max = args.num("--vmax");
  const double n_max = args.num("--nmax");
  const auto seed = static_cast<std::uint64_t>(args.integer("--seed"));

  // --- Step 1: measure the system under CIT.
  std::printf("[1] Measuring gateway jitter components under CIT...\n");
  const auto cit = core::lab_zero_cross(core::make_cit());
  const auto mc =
      core::measure_components(cit.config_for(0), cit.config_for(1), 200000, seed);
  std::printf("    Var(PIAT | 10pps) = %.2f us^2, Var(PIAT | 40pps) = %.2f us^2\n",
              mc.sigma2_low * 1e12, mc.sigma2_high * 1e12);
  std::printf("    measured ratio r_CIT = %.4f\n\n", mc.ratio);

  // --- Step 2: run the design procedure.
  analysis::DesignInputs in;
  in.sigma2_gw_low = mc.sigma2_low;   // tap at GW1: all noise is gateway noise
  in.sigma2_gw_high = mc.sigma2_high;
  in.sigma2_net = 0.0;                // design for the worst case (local tap)
  in.n_max = n_max;
  in.v_max = v_max;
  in.tau = core::constants::kTau;
  in.payload_peak = core::constants::kRateHigh;
  const auto rec = analysis::design_padding_system(in);

  std::printf("[2] Design for v <= %.2f at n <= %.0f:\n", v_max, n_max);
  std::printf("    required ratio r* = %.6f\n", rec.required_ratio);
  std::printf("    recommended sigma_T = %.2f us  (%s)\n",
              rec.sigma_timer * 1e6,
              rec.sigma_timer > 0.0 ? "VIT" : "CIT suffices");
  std::printf("    predicted rates at n_max: mean %.3f, variance %.3f, entropy %.3f\n",
              rec.v_mean, rec.v_variance, rec.v_entropy);
  std::printf("    cost: wire %.0f pps, dummy fraction %.0f%%, mean payload "
              "delay %.1f ms\n\n",
              rec.wire_rate, 100.0 * rec.dummy_fraction,
              rec.mean_queueing_delay * 1e3);
  std::printf("    rationale: %s\n\n", rec.rationale.c_str());

  // --- Step 3: verify empirically with the strongest studied features.
  // Both features ride ONE experiment (DetectorBank pass) on one capture;
  // the verification capture is its own derived point of the root seed —
  // never a naive `seed + 1` offset, which collides with adjacent sweeps
  // (see core::derive_point_seed).
  std::printf("[3] Verifying against the empirical adversary (n = %.0f)...\n",
              n_max);
  core::ExperimentSpec spec;
  spec.scenario = core::lab_zero_cross(rec.sigma_timer > 0.0
                                           ? core::make_vit(rec.sigma_timer)
                                           : core::make_cit());
  spec.plan.adversary.feature = classify::FeatureKind::kSampleVariance;
  spec.plan.extra_features = {classify::FeatureKind::kSampleEntropy};
  spec.plan.adversary.window_size = static_cast<std::size_t>(n_max);
  spec.plan.train_windows = 50;
  spec.plan.test_windows = 50;
  spec.seed = core::derive_point_seed(seed, 1);
  const auto result = core::ExperimentEngine().run(spec);
  for (const auto& outcome : result.top().per_feature) {
    std::printf("    %-16s measured detection %.4f  (target <= %.2f)\n",
                classify::feature_name(outcome.feature).c_str(),
                outcome.detection_rate, v_max);
  }
  std::printf("\nDone: the configured sigma_T holds the leak at the designed "
              "bound, at zero\nextra bandwidth relative to CIT.\n");
  return 0;
} catch (const std::exception& error) {
  std::fprintf(stderr, "vit_design: %s\n", error.what());
  return 1;
}
