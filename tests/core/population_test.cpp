// The population determinism wall (DESIGN.md §2.7):
//
//  1. Thread independence — an M-flow PopulationResult (per-flow results
//     AND the order-sensitive P²-sketch aggregates) is bit-identical
//     across sweep thread counts {1, 2, hardware}.
//  2. M-prefix contract — flows 0..k-1 of an M-flow run equal a
//     standalone k-flow run of the same spec with contention pinned to M;
//     flow f alone equals ExperimentEngine::run(flow_spec(f)).
//  3. Work accounting — an M-flow run opens exactly M streams per
//     (class, phase) and pulls exactly M × the per-flow PIAT budget
//     (counting backend): no hidden re-simulation, no sharing.
#include "core/population.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstring>
#include <limits>
#include <optional>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "core/piat_source.hpp"
#include "stats/descriptive.hpp"
#include "util/check.hpp"

namespace linkpad::core {
namespace {

void expect_bitwise_equal(double a, double b, const std::string& label) {
  EXPECT_EQ(std::memcmp(&a, &b, sizeof(double)), 0)
      << label << ": " << a << " vs " << b;
}

void expect_same_confusion(const classify::ConfusionMatrix& a,
                           const classify::ConfusionMatrix& b,
                           const std::string& label) {
  ASSERT_EQ(a.num_classes(), b.num_classes()) << label;
  for (std::size_t i = 0; i < a.num_classes(); ++i) {
    for (std::size_t j = 0; j < a.num_classes(); ++j) {
      EXPECT_EQ(a.count(static_cast<ClassLabel>(i), static_cast<ClassLabel>(j)),
                b.count(static_cast<ClassLabel>(i), static_cast<ClassLabel>(j)))
          << label;
    }
  }
}

void expect_same_experiment(const ExperimentResult& a,
                            const ExperimentResult& b,
                            const std::string& label) {
  ASSERT_EQ(a.by_sample_size.size(), b.by_sample_size.size()) << label;
  for (std::size_t i = 0; i < a.by_sample_size.size(); ++i) {
    const auto& pa = a.by_sample_size[i];
    const auto& pb = b.by_sample_size[i];
    EXPECT_EQ(pa.sample_size, pb.sample_size) << label;
    expect_bitwise_equal(pa.r_hat, pb.r_hat, label + " point r_hat");
    ASSERT_EQ(pa.per_feature.size(), pb.per_feature.size()) << label;
    for (std::size_t f = 0; f < pa.per_feature.size(); ++f) {
      const std::string at = label + " n=" + std::to_string(pa.sample_size);
      expect_bitwise_equal(pa.per_feature[f].detection_rate,
                           pb.per_feature[f].detection_rate, at + " rate");
      expect_same_confusion(pa.per_feature[f].confusion,
                            pb.per_feature[f].confusion, at);
    }
  }
}

void expect_same_population_point(const PopulationPoint& a,
                                  const PopulationPoint& b,
                                  const std::string& label) {
  EXPECT_EQ(a.sample_size, b.sample_size) << label;
  EXPECT_EQ(a.worst_flow, b.worst_flow) << label;
  expect_bitwise_equal(a.detected_fraction, b.detected_fraction,
                       label + " detected_fraction");
  expect_bitwise_equal(a.mean_rate, b.mean_rate, label + " mean");
  expect_bitwise_equal(a.min_rate, b.min_rate, label + " min");
  expect_bitwise_equal(a.max_rate, b.max_rate, label + " max");
  expect_bitwise_equal(a.quantiles.p05, b.quantiles.p05, label + " p05");
  expect_bitwise_equal(a.quantiles.p25, b.quantiles.p25, label + " p25");
  expect_bitwise_equal(a.quantiles.median, b.quantiles.median,
                       label + " median");
  expect_bitwise_equal(a.quantiles.p75, b.quantiles.p75, label + " p75");
  expect_bitwise_equal(a.quantiles.p95, b.quantiles.p95, label + " p95");
}

/// Cheap population: shared cross-traffic lab path, variance adversary
/// (no entropy prepass), 2-point sample-size axis.
PopulationSpec small_spec(std::size_t flows, std::uint64_t seed = 99) {
  PopulationSpec spec;
  spec.experiment.scenario = lab_cross_traffic(make_cit(), 0.15);
  spec.experiment.plan.adversary.feature = classify::FeatureKind::kSampleVariance;
  spec.experiment.plan.adversary.window_size = 60;
  spec.experiment.sample_size_axis = {30, 60};
  spec.experiment.plan.train_windows = 3;
  spec.experiment.plan.test_windows = 3;
  spec.flows = flows;
  spec.seed = seed;
  return spec;
}

// ------------------------------------------------------- thread invariance

TEST(Population, BitIdenticalAcrossThreadCounts) {
  const auto spec = small_spec(8);

  SweepOptions serial;
  serial.threads = 1;
  const auto reference = PopulationEngine(sim_backend(), serial).run(spec);
  ASSERT_EQ(reference.flows(), 8u);
  ASSERT_EQ(reference.by_sample_size.size(), 2u);

  const std::size_t hardware = std::max<std::size_t>(
      std::thread::hardware_concurrency(), 2);
  for (const std::size_t threads : {std::size_t{2}, hardware}) {
    SweepOptions options;
    options.threads = threads;
    const auto run = PopulationEngine(sim_backend(), options).run(spec);
    ASSERT_EQ(run.flows(), reference.flows());
    const std::string tag = "threads " + std::to_string(threads);
    for (std::size_t f = 0; f < run.flows(); ++f) {
      expect_same_experiment(reference.per_flow[f], run.per_flow[f],
                             tag + " flow " + std::to_string(f));
    }
    ASSERT_EQ(run.by_sample_size.size(), reference.by_sample_size.size());
    for (std::size_t i = 0; i < run.by_sample_size.size(); ++i) {
      expect_same_population_point(reference.by_sample_size[i],
                                   run.by_sample_size[i], tag);
    }
    EXPECT_EQ(run.first_detection_n, reference.first_detection_n) << tag;
  }
}

// --------------------------------------------------------- prefix contract

TEST(Population, MPrefixEqualsStandaloneRunAtPinnedContention) {
  // Tapping only the first k flows of a deployed M-flow population (same
  // link load) must not perturb them: flow f is a pure function of
  // (template, contention, seed, f), never of how many flows are tapped.
  const std::size_t m = 6;
  const std::size_t k = 3;

  auto full = small_spec(m);
  full.contention_flows = m;  // pin explicitly: prefix runs must match it
  const auto all = PopulationEngine().run(full);
  ASSERT_EQ(all.flows(), m);

  auto prefix = full;
  prefix.flows = k;  // contention stays m
  const auto kept = PopulationEngine().run(prefix);
  ASSERT_EQ(kept.flows(), k);

  for (std::size_t f = 0; f < k; ++f) {
    expect_same_experiment(all.per_flow[f], kept.per_flow[f],
                           "prefix flow " + std::to_string(f));
  }
}

TEST(Population, FlowSpecReproducesPopulationSlotStandalone) {
  auto spec = small_spec(4);
  const auto population = PopulationEngine().run(spec);
  for (const std::size_t f : {std::size_t{0}, std::size_t{3}}) {
    const auto standalone = ExperimentEngine().run(spec.flow_spec(f));
    expect_same_experiment(population.per_flow[f], standalone,
                           "flow_spec " + std::to_string(f));
  }
}

TEST(Population, FlowsNeverShareSeeds) {
  const auto spec = small_spec(3, /*seed=*/7);
  EXPECT_EQ(spec.flow_spec(0).seed, derive_point_seed(7, 0));
  EXPECT_EQ(spec.flow_spec(1).seed, derive_point_seed(7, 1));
  EXPECT_NE(spec.flow_spec(0).seed, spec.flow_spec(1).seed);
  EXPECT_THROW((void)spec.flow_spec(3), ContractViolation);
}

// --------------------------------------------------------- work accounting

/// Wraps the sim backend and counts opens / pulled PIATs.
class CountingBackend final : public ExperimentBackend {
 public:
  [[nodiscard]] std::unique_ptr<PiatSource> open(
      const Scenario& scenario, std::size_t class_index, std::uint64_t seed,
      std::uint64_t salt) const override {
    ++opens_;
    return std::make_unique<CountingSource>(
        sim_backend().open(scenario, class_index, seed, salt), piats_);
  }
  [[nodiscard]] std::string name() const override { return "counting"; }

  [[nodiscard]] std::size_t opens() const { return opens_.load(); }
  [[nodiscard]] std::size_t piats() const { return piats_.load(); }

 private:
  class CountingSource final : public PiatSource {
   public:
    CountingSource(std::unique_ptr<PiatSource> inner,
                   std::atomic<std::size_t>& piats)
        : inner_(std::move(inner)), piats_(&piats) {}
    std::size_t collect(std::size_t count, std::vector<double>& out) override {
      const std::size_t got = inner_->collect(count, out);
      piats_->fetch_add(got);
      return got;
    }
    [[nodiscard]] std::string name() const override { return "counting"; }

   private:
    std::unique_ptr<PiatSource> inner_;
    std::atomic<std::size_t>* piats_;
  };

  mutable std::atomic<std::size_t> opens_{0};
  mutable std::atomic<std::size_t> piats_{0};
};

TEST(PopulationWorkSharing, MFlowRunOpensExactlyMStreamsPerClassAndPhase) {
  const std::size_t flows = 5;
  const auto spec = small_spec(flows);
  const std::size_t classes = spec.experiment.scenario.payload_rates.size();
  ASSERT_EQ(classes, 2u);

  // Per flow and class, the variance adversary (no Δh prepass) opens one
  // train and one test stream, each sized by the LARGEST axis entry:
  // train_windows × n_max PIATs.
  const std::size_t per_phase = spec.experiment.plan.train_windows * 60;

  CountingBackend backend;
  const auto result = PopulationEngine(backend).run(spec);
  ASSERT_EQ(result.flows(), flows);
  EXPECT_EQ(backend.opens(), flows * classes * 2);
  EXPECT_EQ(backend.piats(), flows * classes * 2 * per_phase);
}

// ------------------------------------------------------------- aggregation

TEST(Population, AggregatesMatchPerFlowResults) {
  const auto spec = small_spec(5, /*seed=*/123);
  const auto result = PopulationEngine().run(spec);
  ASSERT_EQ(result.flows(), 5u);

  for (const auto& point : result.by_sample_size) {
    std::vector<double> rates;
    for (const auto& flow : result.per_flow) {
      rates.push_back(flow.at_sample_size(point.sample_size)
                          .per_feature.front()
                          .detection_rate);
    }
    // worst_flow ties break to the LOWEST flow id — max_element semantics.
    const auto min_it = std::min_element(rates.begin(), rates.end());
    const auto max_it = std::max_element(rates.begin(), rates.end());
    expect_bitwise_equal(point.min_rate, *min_it, "min");
    expect_bitwise_equal(point.max_rate, *max_it, "max");
    EXPECT_EQ(point.worst_flow,
              static_cast<std::size_t>(max_it - rates.begin()));

    double sum = 0.0;
    std::size_t detected = 0;
    for (const double r : rates) {
      sum += r;
      if (r >= spec.detection_threshold) ++detected;
    }
    expect_bitwise_equal(point.mean_rate, sum / 5.0, "mean");
    expect_bitwise_equal(point.detected_fraction,
                         static_cast<double>(detected) / 5.0, "fraction");

    // With M ≤ 5 flows the P² sketches are exact sorted quantiles.
    std::sort(rates.begin(), rates.end());
    expect_bitwise_equal(point.quantiles.median,
                         stats::quantile_sorted(rates, 0.5), "median");
    expect_bitwise_equal(point.quantiles.p95,
                         stats::quantile_sorted(rates, 0.95), "p95");
    EXPECT_LE(point.quantiles.p05, point.quantiles.p25);
    EXPECT_LE(point.quantiles.p25, point.quantiles.median);
    EXPECT_LE(point.quantiles.median, point.quantiles.p75);
    EXPECT_LE(point.quantiles.p75, point.quantiles.p95);
    EXPECT_LE(point.min_rate, point.quantiles.p05);
    EXPECT_LE(point.quantiles.p95, point.max_rate);
  }
}

TEST(Population, FirstDetectionIsSmallestCrossedAxisEntry) {
  // CIT on a lightly loaded link: the variance adversary wins early.
  auto spec = small_spec(4);
  spec.detection_threshold = 0.6;
  const auto detected = PopulationEngine().run(spec);
  std::optional<std::size_t> expected;
  for (const auto& point : detected.by_sample_size) {
    if (point.max_rate >= spec.detection_threshold) {
      expected = point.sample_size;
      break;
    }
  }
  EXPECT_EQ(detected.first_detection_n, expected);
  if (detected.first_detection_n) {
    ASSERT_TRUE(detected.time_to_first_detection.has_value());
    // n PIATs ≈ n mean timer intervals (τ = 10 ms).
    EXPECT_DOUBLE_EQ(*detected.time_to_first_detection,
                     static_cast<double>(*detected.first_detection_n) * 10e-3);
  }

  // Strong VIT padding: nobody is detected at any axis entry.
  auto padded = small_spec(4);
  padded.experiment.scenario = lab_cross_traffic(make_vit(2e-3), 0.15);
  padded.detection_threshold = 0.999;
  const auto held = PopulationEngine().run(padded);
  EXPECT_FALSE(held.first_detection_n.has_value());
  EXPECT_FALSE(held.time_to_first_detection.has_value());
}

TEST(Population, LookupThrowsOffAxis) {
  const auto result = PopulationEngine().run(small_spec(2));
  EXPECT_NO_THROW((void)result.at_sample_size(30));
  EXPECT_THROW((void)result.at_sample_size(31), std::invalid_argument);

  // The error must be actionable: name the requested n AND the axis that
  // actually exists, so a figure driver typo is a one-glance fix.
  try {
    (void)result.at_sample_size(31);
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& err) {
    const std::string what = err.what();
    EXPECT_NE(what.find("31"), std::string::npos) << what;
    EXPECT_NE(what.find("30"), std::string::npos) << what;
    EXPECT_NE(what.find("60"), std::string::npos) << what;
  }
}

// -------------------------------------------------------------- contention

TEST(Population, ContentionLoadsSharedHops) {
  const auto base = lab_cross_traffic(make_cit(), 0.15);
  // One padded flow offers 8 × wire_bytes / τ = 800 kbit/s.
  EXPECT_DOUBLE_EQ(padded_wire_rate_bps(base), 8.0 * 1000.0 / 10e-3);

  // 100 contending flows raise the 500 Mbit/s shared hop's utilization by
  // 99 × 0.8 Mbit/s / 500 Mbit/s = 0.1584.
  PopulationSpec spec;
  spec.experiment.scenario = base;
  spec.flows = 100;
  const auto loaded = spec.flow_spec(0).scenario;
  ASSERT_EQ(loaded.base.hops_before_tap.size(), 1u);
  EXPECT_NEAR(loaded.base.hops_before_tap[0].cross_utilization,
              0.15 + 99.0 * 800e3 / 500e6, 1e-12);

  // A population large enough to saturate the link (here ~625 flows fill
  // the 500 Mbit/s hop) clamps at the utilization cap.
  spec.flows = 2;
  spec.contention_flows = 10000;
  const auto saturated = spec.flow_spec(0).scenario;
  EXPECT_DOUBLE_EQ(saturated.base.hops_before_tap[0].cross_utilization, 0.95);

  // A zero-hop scenario (tap at GW1) has no shared link to contend on.
  PopulationSpec isolated;
  isolated.experiment.scenario = lab_zero_cross(make_cit());
  isolated.flows = 64;
  EXPECT_TRUE(isolated.flow_spec(0).scenario.base.hops_before_tap.empty());
}

TEST(Population, ReactivePolicyContendsAtItsMeasuredRateNotTheCeiling) {
  // A budgeted policy with a tiny dummy budget emits far below the 1/τ
  // ceiling; the population load every peer sees must be the MEASURED rate
  // (the constant-wire-rate invariant is gone), so the loaded hop sits well
  // under the analytic prediction — and stays deterministic in the seed.
  PopulationSpec spec;
  spec.experiment.scenario = lab_cross_traffic(make_budgeted(5.0), 0.15);
  spec.flows = 100;
  spec.seed = 2024;

  const double analytic = padded_wire_rate_bps(spec.experiment.scenario);
  const double measured = flow_wire_rate_bps(
      spec.experiment.scenario,
      derive_point_seed(spec.seed, PopulationSpec::kCalibrationSalt));
  // Mean payload 25 pps + ≤5 dummies/s against the 100 pps ceiling.
  EXPECT_LT(measured, 0.40 * analytic);
  EXPECT_GT(measured, 0.15 * analytic);

  const auto loaded = spec.loaded_scenario();
  ASSERT_EQ(loaded.base.hops_before_tap.size(), 1u);
  EXPECT_NEAR(loaded.base.hops_before_tap[0].cross_utilization,
              0.15 + 99.0 * measured / 500e6, 1e-12);

  // Same seed ⇒ bitwise identical calibration (it is a simulated capture).
  EXPECT_EQ(loaded.base.hops_before_tap[0].cross_utilization,
            spec.loaded_scenario().base.hops_before_tap[0].cross_utilization);
  // Non-reactive policies keep the exact analytic form.
  PopulationSpec cit_spec;
  cit_spec.experiment.scenario = lab_cross_traffic(make_cit(), 0.15);
  cit_spec.flows = 100;
  EXPECT_NEAR(
      cit_spec.loaded_scenario().base.hops_before_tap[0].cross_utilization,
      0.15 + 99.0 * analytic / 500e6, 1e-12);
}

TEST(Population, FlowSpecReproducesPopulationSlotForReactivePolicy) {
  // The engine resolves the loaded scenario once per run; flow_spec must
  // still be the literal per-flow contract even for measured-rate policies.
  PopulationSpec spec;
  spec.experiment.scenario = lab_cross_traffic(make_budgeted(20.0), 0.1);
  spec.experiment.plan.adversary.feature = classify::FeatureKind::kSampleMean;
  spec.experiment.plan.adversary.window_size = 40;
  spec.experiment.plan.train_windows = 3;
  spec.experiment.plan.test_windows = 3;
  spec.flows = 3;
  spec.seed = 7;

  const auto population = PopulationEngine().run(spec);
  for (std::size_t f = 0; f < spec.flows; ++f) {
    const auto standalone = ExperimentEngine().run(spec.flow_spec(f));
    EXPECT_EQ(standalone.primary().detection_rate,
              population.per_flow[f].primary().detection_rate);
    ASSERT_EQ(standalone.overhead_per_class.size(),
              population.per_flow[f].overhead_per_class.size());
    for (std::size_t c = 0; c < standalone.overhead_per_class.size(); ++c) {
      EXPECT_EQ(standalone.overhead_per_class[c].wire_bps,
                population.per_flow[f].overhead_per_class[c].wire_bps);
    }
  }
}

TEST(Population, MoreContentionWeakensTheAdversary) {
  // The population effect the engine exists to measure: a busier shared
  // link (more peers multiplexed into the path) adds queueing noise, which
  // pads the padded flow FOR free — mean detection cannot improve when
  // thousands of peers join the link (Fig 6's mechanism, population form).
  auto quiet = small_spec(3, /*seed=*/42);
  quiet.experiment.plan.train_windows = 6;
  quiet.experiment.plan.test_windows = 6;
  quiet.contention_flows = 3;
  auto busy = quiet;
  busy.contention_flows = 400000;  // ~0.8 utilization added

  const auto quiet_run = PopulationEngine().run(quiet);
  const auto busy_run = PopulationEngine().run(busy);
  const double quiet_mean = quiet_run.by_sample_size.back().mean_rate;
  const double busy_mean = busy_run.by_sample_size.back().mean_rate;
  EXPECT_LT(busy_mean, quiet_mean + 0.05);
}

// ----------------------------------------------------- reduction tree wall

void expect_same_optional(const std::optional<double>& a,
                          const std::optional<double>& b,
                          const std::string& label) {
  ASSERT_EQ(a.has_value(), b.has_value()) << label;
  if (a) expect_bitwise_equal(*a, *b, label);
}

/// Full-result comparison: per-flow detail, every aggregate point, first
/// detection, and the population-wide overhead fields.
void expect_same_population(const PopulationResult& a,
                            const PopulationResult& b,
                            const std::string& label) {
  ASSERT_EQ(a.flows(), b.flows()) << label;
  ASSERT_EQ(a.per_flow.size(), b.per_flow.size()) << label;
  for (std::size_t f = 0; f < a.per_flow.size(); ++f) {
    expect_same_experiment(a.per_flow[f], b.per_flow[f],
                           label + " flow " + std::to_string(f));
  }
  ASSERT_EQ(a.by_sample_size.size(), b.by_sample_size.size()) << label;
  for (std::size_t i = 0; i < a.by_sample_size.size(); ++i) {
    expect_same_population_point(a.by_sample_size[i], b.by_sample_size[i],
                                 label);
  }
  EXPECT_EQ(a.first_detection_n, b.first_detection_n) << label;
  expect_same_optional(a.time_to_first_detection, b.time_to_first_detection,
                       label + " ttfd");
  expect_same_optional(a.mean_padding_bps, b.mean_padding_bps,
                       label + " padding");
  expect_same_optional(a.mean_wire_bps, b.mean_wire_bps, label + " wire");
  expect_same_optional(a.mean_dummy_fraction, b.mean_dummy_fraction,
                       label + " dummy");
  expect_same_optional(a.worst_delay_p95, b.worst_delay_p95, label + " delay");
}

/// Single-axis, small-window spec cheap enough to run 1000 flows in a test.
PopulationSpec wide_spec(std::size_t flows) {
  PopulationSpec spec;
  spec.experiment.scenario = lab_cross_traffic(make_cit(), 0.1);
  spec.experiment.plan.adversary.feature = classify::FeatureKind::kSampleVariance;
  spec.experiment.plan.adversary.window_size = 40;
  spec.experiment.plan.train_windows = 2;
  spec.experiment.plan.test_windows = 2;
  spec.flows = flows;
  spec.seed = 20030324;
  return spec;
}

TEST(PopulationReduction, TreeMatchesSerialReplayAcrossThreadAndFlowCounts) {
  // The chunked dispatch + fixed-shape tree reduction must reproduce the
  // one-thread schedule (every chunk inline on the caller, in order) bit
  // for bit — per-flow results, every aggregate point (order-sensitive P²
  // sketches included), and the overhead fields — at thread counts
  // {2, 4, hw} for flow counts spanning one chunk, a partial chunk, a
  // ragged multi-chunk run, and a wide run.
  const std::size_t hardware =
      std::max<std::size_t>(std::thread::hardware_concurrency(), 2);
  for (const std::size_t flows :
       {std::size_t{1}, std::size_t{2}, std::size_t{33}, std::size_t{1000}}) {
    const auto spec = flows >= 1000 ? wide_spec(flows) : small_spec(flows);

    SweepOptions one_thread;
    one_thread.threads = 1;
    const auto reference = PopulationEngine(sim_backend(), one_thread).run(spec);
    ASSERT_EQ(reference.flows(), flows);

    for (const std::size_t threads : {std::size_t{2}, std::size_t{4},
                                      hardware}) {
      SweepOptions options;
      options.threads = threads;
      const auto run = PopulationEngine(sim_backend(), options).run(spec);
      expect_same_population(reference, run,
                             "flows " + std::to_string(flows) + " threads " +
                                 std::to_string(threads));
    }
  }
}

TEST(PopulationReduction, GrainNeverPerturbsResults) {
  // Chunk merges are ordered concatenations, so the chunk partition — and
  // with it the reduction tree's leaf count — must not matter.
  const auto spec = small_spec(33);
  SweepOptions reference_options;
  reference_options.threads = 1;
  const auto reference =
      PopulationEngine(sim_backend(), reference_options).run(spec);
  for (const std::size_t grain :
       {std::size_t{1}, std::size_t{5}, std::size_t{64}}) {
    SweepOptions options;
    options.threads = 2;
    options.grain = grain;
    const auto run = PopulationEngine(sim_backend(), options).run(spec);
    expect_same_population(reference, run,
                           "grain " + std::to_string(grain));
  }
}

TEST(Population, KeepPerFlowFalseDropsDetailKeepsAggregates) {
  auto spec = small_spec(7);
  const auto full = PopulationEngine().run(spec);
  spec.keep_per_flow = false;
  const auto lean = PopulationEngine().run(spec);

  EXPECT_TRUE(lean.per_flow.empty());
  EXPECT_EQ(lean.flows(), 7u);  // flow count survives the drop
  ASSERT_EQ(lean.by_sample_size.size(), full.by_sample_size.size());
  for (std::size_t i = 0; i < full.by_sample_size.size(); ++i) {
    expect_same_population_point(full.by_sample_size[i],
                                 lean.by_sample_size[i], "lean");
  }
  EXPECT_EQ(lean.first_detection_n, full.first_detection_n);
  expect_same_optional(lean.mean_padding_bps, full.mean_padding_bps,
                       "lean padding");
  expect_same_optional(lean.worst_delay_p95, full.worst_delay_p95,
                       "lean delay");
}

TEST(Population, OverheadAggregatesMatchPerFlowRecompute) {
  const auto result = PopulationEngine().run(small_spec(6));
  ASSERT_EQ(result.flows(), 6u);

  // The simulated backend always accounts, so the aggregates must be
  // present and equal the flow-id-order fold of the per-flow summaries.
  double padding = 0.0, wire = 0.0, dummy = 0.0;
  Seconds worst = -std::numeric_limits<double>::infinity();
  for (const auto& flow : result.per_flow) {
    ASSERT_TRUE(flow.mean_padding_bps().has_value());
    padding += *flow.mean_padding_bps();
    wire += *flow.mean_wire_bps();
    dummy += *flow.mean_dummy_fraction();
    ASSERT_TRUE(flow.worst_delay_p95().has_value());
    if (*flow.worst_delay_p95() > worst) worst = *flow.worst_delay_p95();
  }
  ASSERT_TRUE(result.mean_padding_bps.has_value());
  expect_bitwise_equal(*result.mean_padding_bps, padding / 6.0, "padding");
  expect_bitwise_equal(*result.mean_wire_bps, wire / 6.0, "wire");
  expect_bitwise_equal(*result.mean_dummy_fraction, dummy / 6.0, "dummy");
  ASSERT_TRUE(result.worst_delay_p95.has_value());
  expect_bitwise_equal(*result.worst_delay_p95, worst, "delay");
}

TEST(PopulationPointDefaults, ExtremesStartAtFoldIdentities) {
  const PopulationPoint point;
  EXPECT_EQ(point.min_rate, std::numeric_limits<double>::infinity());
  EXPECT_EQ(point.max_rate, -std::numeric_limits<double>::infinity());
}

// -------------------------------------------------------------- validation

TEST(Population, RejectsMalformedSpecs) {
  auto spec = small_spec(4);
  spec.contention_flows = 2;  // fewer than tapped flows
  EXPECT_THROW((void)PopulationEngine().run(spec), ContractViolation);

  auto zero = small_spec(1);
  zero.flows = 0;
  EXPECT_THROW((void)PopulationEngine().run(zero), ContractViolation);
}

TEST(Population, RefusesExtraDetectorsByName) {
  // The population aggregates only change-point detectors; no aggregate
  // reads a window or EDF detector's verdict, so a campaign must refuse
  // one up front, by name, rather than lose it at the first shard merge.
  classify::DetectorSpec window;
  window.adversary.feature = classify::FeatureKind::kSampleMean;
  window.adversary.window_size = 60;
  classify::DetectorSpec edf;
  edf.adversary.window_size = 60;
  edf.edf = classify::EdfDistance::kKolmogorovSmirnov;
  for (const auto& [entry, name] :
       {std::pair{window, "sample mean"}, std::pair{edf, "EDF nearest (KS)"}}) {
    auto spec = small_spec(4);
    spec.experiment.plan.detectors = {entry};
    try {
      (void)PopulationEngine().run(spec);
      FAIL() << "expected std::invalid_argument for " << name;
    } catch (const std::invalid_argument& err) {
      const std::string what = err.what();
      EXPECT_NE(what.find("plan.detectors"), std::string::npos) << what;
      EXPECT_NE(what.find(name), std::string::npos) << what;
    }
    EXPECT_THROW((void)PopulationEngine().run_chunks(spec, {0}),
                 std::invalid_argument);
  }
}

}  // namespace
}  // namespace linkpad::core
