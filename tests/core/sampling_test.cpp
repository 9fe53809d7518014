// The sampled-population wall (DESIGN.md §2.11):
//
//  1. Permutation — sampled_flow_ids is a pure integer function of
//     (flows, m, round, seed); strata are disjoint, in range, and the
//     full-strata union is exactly the population (it IS a permutation,
//     cycle-walked onto non-power-of-two domains).
//  2. Pinned wall — every sampled flow is BITWISE identical to the same
//     flow id of the exhaustive run (contention stays at the full M), at
//     threads {1, 2, hw} × shards {1, 3} × flows {33, 1000}, including the
//     shard serialize/parse/merge path and checkpoint truncate + resume.
//  3. Adaptive driver — run_sampled_until terminates at the requested
//     half-width on the golden seed, honors max_rounds, and its
//     concatenated strata equal a single sampled(k·m) run byte for byte.
//  4. Coverage — 200 seeded without-replacement trials per bound
//     (Wilson / Hoeffding / Bernstein / DKW) against the brute-force
//     exhaustive truth at small M: measured coverage ≥ nominal (the
//     i.i.d. forms are conservative without replacement).
#include "core/population.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "core/scenarios.hpp"
#include "core/shard_io.hpp"
#include "stats/concentration.hpp"
#include "util/check.hpp"
#include "util/rng.hpp"

namespace linkpad::core {
namespace {

void expect_bits(double a, double b, const std::string& label) {
  EXPECT_EQ(std::memcmp(&a, &b, sizeof(double)), 0)
      << label << ": " << a << " vs " << b;
}

/// Cheap per-flow experiment (the shard-wall workload): variance adversary,
/// 2-point axis, tiny window budgets — the test measures the sampling
/// machinery, not classifier arithmetic.
PopulationSpec cheap_spec(std::size_t flows, std::uint64_t seed = 20030324) {
  PopulationSpec spec;
  spec.experiment.scenario = lab_cross_traffic(make_cit(), 0.1);
  spec.experiment.plan.adversary.feature = classify::FeatureKind::kSampleVariance;
  spec.experiment.plan.adversary.window_size = 40;
  spec.experiment.sample_size_axis = {20, 40};
  spec.experiment.plan.train_windows = 2;
  spec.experiment.plan.test_windows = 2;
  spec.flows = flows;
  spec.seed = seed;
  return spec;
}

void expect_same_experiment(const ExperimentResult& a,
                            const ExperimentResult& b,
                            const std::string& label) {
  ASSERT_EQ(a.by_sample_size.size(), b.by_sample_size.size()) << label;
  for (std::size_t i = 0; i < a.by_sample_size.size(); ++i) {
    const auto& pa = a.by_sample_size[i];
    const auto& pb = b.by_sample_size[i];
    expect_bits(pa.r_hat, pb.r_hat, label + " r_hat");
    ASSERT_EQ(pa.per_feature.size(), pb.per_feature.size()) << label;
    for (std::size_t f = 0; f < pa.per_feature.size(); ++f) {
      expect_bits(pa.per_feature[f].detection_rate,
                  pb.per_feature[f].detection_rate,
                  label + " n=" + std::to_string(pa.sample_size));
    }
  }
}

PopulationResult run_with_threads(const PopulationSpec& spec,
                                  std::size_t threads) {
  SweepOptions options;
  options.threads = threads;
  return PopulationEngine(sim_backend(), options).run(spec);
}

std::vector<PopulationShard> run_all_shards(const PopulationSpec& spec,
                                            std::size_t shard_count,
                                            std::size_t threads) {
  std::vector<PopulationShard> shards;
  for (std::size_t i = 0; i < shard_count; ++i) {
    SweepOptions options;
    options.threads = threads;
    options.shard_index = i;
    options.shard_count = shard_count;
    shards.push_back(run_population_shard(spec, sim_backend(), options));
  }
  return shards;
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

// ------------------------------------------------------------- permutation

TEST(SamplingPermutation, StrataAreDisjointAndTheirUnionIsThePopulation) {
  const std::size_t flows = 1000;
  const std::size_t m = 100;
  std::set<std::size_t> seen;
  for (std::size_t round = 0; round < flows / m; ++round) {
    const auto ids = sampled_flow_ids(flows, m, round, 42);
    ASSERT_EQ(ids.size(), m) << "round " << round;
    for (const std::size_t id : ids) {
      EXPECT_LT(id, flows);
      EXPECT_TRUE(seen.insert(id).second)
          << "flow " << id << " appears in two strata";
    }
  }
  EXPECT_EQ(seen.size(), flows);  // all strata together ARE the population
}

TEST(SamplingPermutation, CycleWalkCoversNonPowerOfTwoDomains) {
  // flows = 33 needs cycle-walking out of the 64-element Feistel domain;
  // one full-population stratum must still be a permutation of 0..32.
  auto ids = sampled_flow_ids(33, 33, 0, 7);
  std::sort(ids.begin(), ids.end());
  for (std::size_t i = 0; i < 33; ++i) EXPECT_EQ(ids[i], i);
}

TEST(SamplingPermutation, PureFunctionOfItsArguments) {
  const auto a = sampled_flow_ids(500, 40, 2, 99);
  const auto b = sampled_flow_ids(500, 40, 2, 99);
  EXPECT_EQ(a, b);
  EXPECT_NE(a, sampled_flow_ids(500, 40, 2, 100));  // seed re-keys
  EXPECT_NE(a, sampled_flow_ids(500, 40, 3, 99));   // round shifts stratum
}

TEST(SamplingPermutation, RejectsInvalidArguments) {
  EXPECT_THROW((void)sampled_flow_ids(10, 0, 0, 1), ContractViolation);
  EXPECT_THROW((void)sampled_flow_ids(10, 11, 0, 1), ContractViolation);
  EXPECT_THROW((void)sampled_flow_ids(10, 4, 2, 1), ContractViolation);
}

TEST(SampledSpec, ValidationIsLoud) {
  auto oversized = cheap_spec(4).sampled(5);
  EXPECT_THROW((void)run_population(oversized), ContractViolation);
  auto bad_round = cheap_spec(8).sampled(3, 2);  // stratum 2 needs 9 flows
  EXPECT_THROW((void)run_population(bad_round), ContractViolation);
  auto exhaustive = cheap_spec(8);
  exhaustive.sample_round = 1;  // a round without sampling is a spec bug
  EXPECT_THROW((void)run_population(exhaustive), ContractViolation);
}

// --------------------------------------------------------- the pinned wall

/// Sampled flows must be bitwise identical to their exhaustive twins, and
/// the sampled run itself must be byte-stable across thread counts and
/// across the shard serialize/parse/merge pipeline.
void check_pinned_wall(std::size_t flows, std::size_t m, std::size_t round) {
  const auto spec = cheap_spec(flows);
  const auto exhaustive = run_with_threads(spec, 0);

  const auto sampled_spec = spec.sampled(m, round);
  const auto reference = run_with_threads(sampled_spec, 1);
  ASSERT_EQ(reference.flows(), m);
  ASSERT_EQ(reference.sampled_from, flows);
  ASSERT_EQ(reference.sampled_ids,
            sampled_flow_ids(flows, m, round, spec.seed));
  ASSERT_EQ(reference.estimates.size(),
            spec.experiment.sample_size_axis.size());

  // Execution slot i is real flow sampled_ids[i] — bitwise equal to the
  // exhaustive run's flow, because contention is pinned at the full M.
  for (std::size_t i = 0; i < m; ++i) {
    expect_same_experiment(
        reference.per_flow[i], exhaustive.per_flow[reference.sampled_ids[i]],
        "M=" + std::to_string(flows) + " slot " + std::to_string(i));
  }

  const std::string json = population_result_json(reference);
  const std::size_t hw =
      std::max<std::size_t>(std::thread::hardware_concurrency(), 2);
  for (const std::size_t threads : {std::size_t{2}, hw}) {
    EXPECT_EQ(population_result_json(run_with_threads(sampled_spec, threads)),
              json)
        << "threads " << threads;
  }

  auto shards = run_all_shards(sampled_spec, 3, 2);
  std::vector<PopulationShard> parsed;
  for (const auto& shard : shards) {
    EXPECT_EQ(shard.sample_flows, m);
    EXPECT_EQ(shard.sample_round, round);
    parsed.push_back(parse_shard(serialize_shard(shard)));
  }
  EXPECT_EQ(population_result_json(merge_shards(std::move(parsed))), json);
}

TEST(SampledExecution, PinnedWallSmallOddPopulation) {
  check_pinned_wall(/*flows=*/33, /*m=*/8, /*round=*/1);
}

TEST(SampledExecution, PinnedWallThousandFlows) {
  check_pinned_wall(/*flows=*/1000, /*m=*/50, /*round=*/2);
}

TEST(SampledExecution, SampledJsonCarriesTheEstimateBlock) {
  const auto result = run_with_threads(cheap_spec(64).sampled(16), 1);
  const std::string json = population_result_json(result);
  EXPECT_NE(json.find("\"sampled_from\": 64"), std::string::npos);
  EXPECT_NE(json.find("\"estimates\": ["), std::string::npos);
  EXPECT_NE(json.find("\"dkw_epsilon\""), std::string::npos);
  // The exhaustive run of the same spec renders null estimate fields.
  const std::string exhaustive_json =
      population_result_json(run_with_threads(cheap_spec(64), 1));
  EXPECT_NE(exhaustive_json.find("\"estimates\": null"), std::string::npos);
}

// ------------------------------------------------- checkpoint truncate/resume

TEST(SampledResume, TruncatedSampledCheckpointConvergesToUninterruptedBytes) {
  const std::string path =
      testing::TempDir() + "linkpad_sampled_resume_test.shard";
  const auto spec = cheap_spec(40, 31).sampled(20);

  SweepOptions options;
  options.threads = 1;
  options.grain = 2;  // 10 chunks over the 20 EXECUTED flows; 0/2 owns 5
  options.shard_index = 0;
  options.shard_count = 2;
  ShardRunOptions durability;
  durability.checkpoint_path = path;

  (void)run_population_shard(spec, sim_backend(), options, durability);
  const std::string uninterrupted = read_file(path);
  ASSERT_FALSE(uninterrupted.empty());

  // SIGKILL mid-append: keep the header plus a torn chunk-line prefix.
  const std::size_t cut = uninterrupted.size() * 3 / 5;
  ASSERT_NE(uninterrupted[cut], '\n');
  {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(uninterrupted.data(), static_cast<std::streamsize>(cut));
  }
  const PopulationShard torn = read_shard_file(path, true);
  EXPECT_LT(torn.chunks.size(), 5u);
  EXPECT_EQ(torn.sample_flows, 20u);  // the header keeps the sample identity

  durability.resume = true;
  const PopulationShard resumed =
      run_population_shard(spec, sim_backend(), options, durability);
  EXPECT_EQ(resumed.chunks.size(), 5u);
  EXPECT_EQ(read_file(path), uninterrupted);
  EXPECT_EQ(serialize_shard(resumed), uninterrupted);
  std::remove(path.c_str());
}

// --------------------------------------------------------- adaptive driver

TEST(AdaptiveSampling, TerminatesAtTheRequestedHalfWidthOnTheGoldenSeed) {
  const auto spec = cheap_spec(200);  // golden seed 20030324

  // A 0.2 target is met by one 25-flow stratum (the worst-case Wilson
  // half-width at n = 25 is ~0.19), so the driver must stop immediately.
  AdaptiveSamplingOptions loose;
  loose.round_flows = 25;
  loose.target_half_width = 0.2;
  const auto one_round = run_sampled_until(spec, loose);
  EXPECT_TRUE(one_round.is_sampled());
  EXPECT_EQ(one_round.sampled_from, 200u);
  EXPECT_EQ(one_round.flows(), 25u);

  // A tighter target needs more strata; on stop either the widest interval
  // reached the target or the permutation ran out of whole strata.
  AdaptiveSamplingOptions tight;
  tight.round_flows = 25;
  tight.target_half_width = 0.1;
  const auto grown = run_sampled_until(spec, tight);
  EXPECT_GE(grown.flows(), 25u);
  EXPECT_EQ(grown.flows() % 25, 0u);
  if (grown.flows() < 200) {
    double widest = 0.0;
    for (const auto& est : grown.estimates) {
      widest = std::max(widest, est.detected_fraction.half_width());
    }
    EXPECT_LE(widest, 0.1);
  }

  // max_rounds caps growth even when the target is unreachable.
  AdaptiveSamplingOptions capped;
  capped.round_flows = 25;
  capped.target_half_width = 1e-6;
  capped.max_rounds = 2;
  EXPECT_EQ(run_sampled_until(spec, capped).flows(), 50u);
}

TEST(AdaptiveSampling, ConcatenatedStrataEqualASingleSampledRunByteForByte) {
  // Strata are permutation-position prefixes: rounds 0..k-1 at size m are
  // exactly positions [0, k·m), i.e. a single sampled(k·m) campaign.
  const auto spec = cheap_spec(200);
  AdaptiveSamplingOptions adaptive;
  adaptive.round_flows = 25;
  adaptive.target_half_width = 1e-6;  // unreachable: growth is max_rounds'
  adaptive.max_rounds = 3;
  const auto grown = run_sampled_until(spec, adaptive);
  ASSERT_EQ(grown.flows(), 75u);
  const auto single = run_with_threads(spec.sampled(75), 1);
  EXPECT_EQ(population_result_json(grown), population_result_json(single));

  // And the driver is thread-invariant like everything else.
  SweepOptions wide;
  wide.threads =
      std::max<std::size_t>(std::thread::hardware_concurrency(), 2);
  const auto grown_wide =
      run_sampled_until(spec, adaptive, sim_backend(), wide);
  EXPECT_EQ(population_result_json(grown_wide),
            population_result_json(grown));
}

TEST(AdaptiveSampling, RejectsMisuse) {
  const auto spec = cheap_spec(100);
  AdaptiveSamplingOptions adaptive;
  adaptive.round_flows = 0;
  EXPECT_THROW((void)run_sampled_until(spec, adaptive), ContractViolation);
  adaptive.round_flows = 101;  // a stratum cannot exceed the population
  EXPECT_THROW((void)run_sampled_until(spec, adaptive), ContractViolation);
  adaptive.round_flows = 10;
  EXPECT_THROW((void)run_sampled_until(spec.sampled(10), adaptive),
               ContractViolation);  // the driver owns the sampling fields
}

// ------------------------------------------------------- coverage harness

/// 200 seeded without-replacement trials per bound against the brute-force
/// exhaustive truth. The sampled flows are bitwise equal to their
/// exhaustive twins (the pinned wall above), so each trial's statistics
/// are a pure function of the exhaustive per-flow rates and the trial's
/// sampled ids — no re-simulation per trial.
TEST(SampledEstimates, CoverageIsAtLeastNominalOverSeededTrials) {
  constexpr std::size_t kM = 48;
  constexpr std::size_t kSample = 12;
  constexpr std::size_t kTrials = 200;
  constexpr double kConfidence = 0.95;

  const auto spec = cheap_spec(kM);
  const auto exhaustive = run_with_threads(spec, 0);
  ASSERT_EQ(exhaustive.flows(), kM);

  // Truth at the first axis point: per-flow primary rates, the detected
  // fraction, the mean rate, and the population ECDF.
  std::vector<double> rates(kM);
  for (std::size_t f = 0; f < kM; ++f) {
    rates[f] = exhaustive.per_flow[f].by_sample_size[0].per_feature[0]
                   .detection_rate;
  }
  std::size_t true_detected = 0;
  double true_mean = 0.0;
  for (const double r : rates) {
    if (r >= spec.detection_threshold) ++true_detected;
    true_mean += r;
  }
  true_mean /= static_cast<double>(kM);
  const double true_fraction =
      static_cast<double>(true_detected) / static_cast<double>(kM);
  const auto population_cdf = [&](double x) {
    std::size_t at_most = 0;
    for (const double r : rates) at_most += r <= x ? 1 : 0;
    return static_cast<double>(at_most) / static_cast<double>(kM);
  };

  std::size_t wilson_covered = 0;
  std::size_t hoeffding_covered = 0;
  std::size_t bernstein_covered = 0;
  std::size_t dkw_covered = 0;
  for (std::size_t trial = 0; trial < kTrials; ++trial) {
    const auto ids =
        sampled_flow_ids(kM, kSample, 0, util::SplitMix64::mix(trial));
    std::size_t detected = 0;
    double mean = 0.0;
    for (const std::size_t id : ids) {
      if (rates[id] >= spec.detection_threshold) ++detected;
      mean += rates[id];
    }
    mean /= static_cast<double>(kSample);
    double ss = 0.0;
    for (const std::size_t id : ids) {
      ss += (rates[id] - mean) * (rates[id] - mean);
    }
    const double variance = ss / static_cast<double>(kSample - 1);

    const auto wilson =
        stats::wilson_interval(detected, kSample, kConfidence);
    if (wilson.lo <= true_fraction && true_fraction <= wilson.hi) {
      ++wilson_covered;
    }
    const auto hoeffding =
        stats::hoeffding_interval(mean, kSample, 0.0, 1.0, kConfidence);
    if (hoeffding.lo <= true_mean && true_mean <= hoeffding.hi) {
      ++hoeffding_covered;
    }
    const auto bernstein = stats::bernstein_interval(mean, variance, kSample,
                                                     0.0, 1.0, kConfidence);
    if (bernstein.lo <= true_mean && true_mean <= bernstein.hi) {
      ++bernstein_covered;
    }

    // DKW: the sample ECDF within ±ε of the population ECDF simultaneously
    // at every population value (where the sup over step functions lives).
    const double eps = stats::dkw_epsilon(kSample, kConfidence);
    double sup = 0.0;
    for (const double x : rates) {
      std::size_t at_most = 0;
      for (const std::size_t id : ids) at_most += rates[id] <= x ? 1 : 0;
      const double sample_cdf =
          static_cast<double>(at_most) / static_cast<double>(kSample);
      sup = std::max(sup, std::abs(sample_cdf - population_cdf(x)));
    }
    if (sup <= eps) ++dkw_covered;
  }

  const double nominal = kConfidence * kTrials;  // 190 of 200
  EXPECT_GE(static_cast<double>(wilson_covered), nominal) << wilson_covered;
  EXPECT_GE(static_cast<double>(hoeffding_covered), nominal)
      << hoeffding_covered;
  EXPECT_GE(static_cast<double>(bernstein_covered), nominal)
      << bernstein_covered;
  EXPECT_GE(static_cast<double>(dkw_covered), nominal) << dkw_covered;
}

/// The estimates the engine itself reports agree with recomputing the
/// bounds from the executed flows — the JSON error bars are exactly the
/// stats/concentration functions applied to the sample.
TEST(SampledEstimates, EngineEstimatesMatchTheBoundsRecomputedByHand) {
  const auto spec = cheap_spec(64);
  const auto result = run_with_threads(spec.sampled(16), 1);
  ASSERT_EQ(result.estimates.size(), 2u);

  for (std::size_t a = 0; a < result.estimates.size(); ++a) {
    const auto& est = result.estimates[a];
    std::size_t detected = 0;
    double mean = 0.0;
    for (std::size_t i = 0; i < result.flows(); ++i) {
      const double rate = result.per_flow[i]
                              .by_sample_size[a]
                              .per_feature[0]
                              .detection_rate;
      if (rate >= spec.detection_threshold) ++detected;
      mean += rate;
    }
    mean /= static_cast<double>(result.flows());

    const auto wilson = stats::wilson_interval(
        detected, result.flows(), kDefaultEstimateConfidence);
    expect_bits(est.detected_fraction.point, wilson.point, "wilson point");
    expect_bits(est.detected_fraction.lo, wilson.lo, "wilson lo");
    expect_bits(est.detected_fraction.hi, wilson.hi, "wilson hi");
    EXPECT_EQ(est.detected_fraction.m, 16u);
    EXPECT_EQ(est.detected_fraction.M, 64u);

    const auto hoeffding = stats::hoeffding_interval(
        mean, result.flows(), 0.0, 1.0, kDefaultEstimateConfidence);
    expect_bits(est.mean_rate.point, hoeffding.point, "hoeffding point");
    expect_bits(est.mean_rate.lo, hoeffding.lo, "hoeffding lo");
    expect_bits(est.mean_rate.hi, hoeffding.hi, "hoeffding hi");

    expect_bits(
        est.dkw_epsilon,
        stats::dkw_epsilon(result.flows(), kDefaultEstimateConfidence),
        "dkw");
  }
}

}  // namespace
}  // namespace linkpad::core
