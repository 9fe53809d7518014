// live_loopback: the padding gateway on REAL OS timers and UDP sockets,
// served through the same PiatSource interface as the simulator.
//
// The engine layer makes the backend a plug: the identical scenario object
// is opened once against the live backend (real scheduler wake-up latency
// takes the role of delta_gw, measured across loopback UDP) and once
// against the simulated backend, and the same code consumes both streams.
// Watch your own machine's jitter become the CIT leak, then watch VIT
// drown it — exactly the paper's Sec 5.1 structure.
//
// Run: ./live_loopback [--tau-ms 2] [--piats 1500]
#include <cstdio>

#include "core/live_backend.hpp"
#include "core/piat_source.hpp"
#include "core/scenarios.hpp"
#include "stats/descriptive.hpp"
#include "util/cli.hpp"

using namespace linkpad;

namespace {

stats::Summary capture(const core::ExperimentBackend& backend,
                       const core::Scenario& scenario, std::size_t piats,
                       const char* label) {
  auto source = backend.open(scenario, /*class_index=*/0, /*seed=*/1,
                             /*salt=*/1);
  std::vector<double> series;
  series.reserve(piats);
  const std::size_t got = source->collect(piats, series);
  if (got == 0) {
    std::printf("  %-12s (no PIATs captured)\n", label);
    return {};
  }
  const auto summary = stats::summarize(series);
  std::printf("  %-12s %6zu PIATs: mean %.3f ms, std %8.1f us, "
              "min %.3f ms, max %.3f ms\n",
              label, got, summary.mean * 1e3, summary.stddev * 1e6,
              summary.min * 1e3, summary.max * 1e3);
  return summary;
}

}  // namespace

int main(int argc, char** argv) try {
  util::ArgParser args("live_loopback",
                       "real-time padding gateway over loopback UDP");
  args.add_num("--tau-ms", 2, "timer mean interval in milliseconds");
  args.add_count("--piats", 1500, util::kMaxRunCount,
                 "PIATs to capture per run");
  if (!args.parse(argc, argv)) return 1;

  const double tau = args.num("--tau-ms") * 1e-3;
  const auto piats = args.count("--piats");

  // The paper's scenario objects, scaled so the live runs finish quickly:
  // the live backend maps policy tau/sigma onto the real clock.
  core::LiveBackendOptions live_options;
  live_options.tau_scale = tau / core::constants::kTau;
  const auto live = core::make_live_backend(live_options);

  const auto cit = core::lab_zero_cross(core::make_cit());
  const auto vit = core::lab_zero_cross(
      core::make_vit(/*sigma=*/core::constants::kTau / 2.0));

  std::printf("Live loopback padding testbed (tau = %.1f ms, %zu PIATs/run)\n",
              tau * 1e3, piats);
  std::printf("Backends: '%s' vs '%s' through one PiatSource interface.\n\n",
              live->name().c_str(), core::sim_backend().name().c_str());

  std::printf("[1] CIT gateway\n");
  const auto live_cit = capture(*live, cit, piats, "live:");
  const auto sim_cit = capture(core::sim_backend(), cit, piats, "sim:");

  std::printf("\n[2] VIT gateway (sigma_T = tau/2)\n");
  const auto live_vit = capture(*live, vit, piats, "live:");
  const auto sim_vit = capture(core::sim_backend(), vit, piats, "sim:");

  if (live_cit.variance > 0.0 && live_vit.variance > 0.0) {
    std::printf("\nVar(PIAT) VIT / CIT = %.1fx live (%.1fx simulated) — the "
                "VIT spread dwarfs\nthe host's own jitter, which is precisely "
                "why the adversary's variance\nratio r collapses to 1.\n",
                live_vit.variance / live_cit.variance,
                sim_vit.variance / sim_cit.variance);
    std::printf("The live CIT std-dev above IS your machine's scheduler "
                "jitter: on the\npaper's TimeSys RT gateway it was ~10 us; "
                "whatever it is here, it leaks\nthe same way.\n");
  }
  return 0;
} catch (const std::exception& error) {
  std::fprintf(stderr, "live_loopback: %s\n", error.what());
  return 1;
}
