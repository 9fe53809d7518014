// Figure-series generators: one function per quantitative figure of the
// paper, returning exactly the rows/curves the figure plots. The bench
// drivers print these; tests assert their shapes.
//
//   Fig 4(a) — PIAT pdf under CIT at 10/40 pps (zero cross traffic)
//   Fig 4(b) — detection rate vs sample size, experiment + theory
//              (the whole n axis rides ONE capture via prefix replay)
//   Fig 5(a) — VIT: detection rate vs σ_T (n = 2000)
//   Fig 5(b) — theoretical n(99%) vs σ_T, plus its EMPIRICAL counterpart
//   Fig 6    — CIT: detection rate vs shared-link utilization (n = 1000)
//   Fig 8    — campus / WAN: detection rate vs time of day (n = 1000)
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "classify/feature.hpp"
#include "core/piat_source.hpp"
#include "core/scenarios.hpp"
#include "stats/descriptive.hpp"

namespace linkpad::core {

/// Common knobs for every figure generator.
struct FigureOptions {
  std::uint64_t seed = 20030324;
  /// Scales the number of train/test windows (and, for Fig 8, the number of
  /// time slots). 1.0 = paper-grade resolution; tests use ~0.1.
  double effort = 1.0;
  /// PIAT backend; null = the simulated testbed. Figures are pure functions
  /// of (options) whenever the backend is deterministic.
  std::shared_ptr<const ExperimentBackend> backend;
};

/// `base` scaled by an effort multiplier (FigureOptions::effort, or a
/// bench driver's --effort) and rounded, at least `at_least`. An effort
/// that is not finite and > 0, or that scales `base` past
/// util::kMaxRunCount, is refused by name instead of wrapping to ~2^64.
[[nodiscard]] std::size_t scaled(std::size_t base, double effort,
                                 std::size_t at_least = 8);

/// One named curve y(x) in a detection figure.
struct Curve {
  std::string name;
  std::vector<double> y;
};

/// A figure's worth of series sharing one x axis.
struct FigureSeries {
  std::string title;
  std::string x_label;
  std::string y_label;
  std::vector<double> x;
  std::vector<Curve> curves;

  [[nodiscard]] const Curve& curve(const std::string& name) const;
};

// ------------------------------------------------------------- Fig 4(a) --

struct Fig4aResult {
  stats::Summary summary_low;   ///< padded PIAT stats at 10 pps
  stats::Summary summary_high;  ///< padded PIAT stats at 40 pps
  double r_hat = 1.0;           ///< σ̂_h² / σ̂_l²
  /// Gaussian-KDE densities on a common grid (x in seconds).
  std::vector<double> grid;
  std::vector<double> pdf_low;
  std::vector<double> pdf_high;
};

/// CIT, zero cross traffic, tap at GW1 (paper Fig 4a).
Fig4aResult fig4a_piat_pdf(const FigureOptions& options);

// ----------------------------------------------------------- Fig 4(b)+ --

/// Detection rate vs sample size n for the three features, empirical and
/// theoretical (curves named "<feature> experiment" / "<feature> theory").
FigureSeries fig4b_detection_vs_n(const FigureOptions& options);

/// VIT sweep: detection rate vs σ_T at fixed n = 2000 (paper Fig 5a).
FigureSeries fig5a_detection_vs_sigma(const FigureOptions& options);

/// Theoretical sample size for 99% detection vs σ_T (paper Fig 5b).
FigureSeries fig5b_n99_vs_sigma(const FigureOptions& options);

/// EMPIRICAL n(99%) vs σ_T next to the Theorem 2/3 inversion — the
/// measured counterpart of Fig 5(b), affordable because each sigma's whole
/// sample-size axis rides ONE simulated capture (prefix replay, DESIGN.md
/// §2.6). Curves "<feature> empirical" (NaN where 99% is never reached
/// within the axis — padding wins) and "<feature> theory".
FigureSeries fig5b_n99_vs_sigma_empirical(const FigureOptions& options);

/// CIT with cross traffic: detection rate vs link utilization (paper Fig 6).
FigureSeries fig6_detection_vs_utilization(const FigureOptions& options);

/// Time-of-day sweep (paper Fig 8a campus = false, Fig 8b wan = true).
FigureSeries fig8_detection_vs_hour(bool wan, const FigureOptions& options);

// ------------------------------------------------------------- shared ---

/// Empirical detection rates of several features on one scenario at window
/// size n, sharing the generated PIAT streams across features (exposed for
/// ablation benches). Returns one rate per feature, in order.
std::vector<double> detection_rates_on_scenario(
    const Scenario& scenario, const std::vector<classify::FeatureKind>& features,
    std::size_t window_size, std::size_t train_windows,
    std::size_t test_windows, std::uint64_t seed,
    const ExperimentBackend* backend = nullptr);

}  // namespace linkpad::core
