// The best-response-adversary contract suite (own ctest binary, label
// `robust`):
//  * run_robust_frontier byte-identical across thread counts {1, 2, hw}
//    (diffed on the canonical hex-double JSON);
//  * successive halving agrees with the exhaustive grid on a small space;
//  * held-out seed discipline: selection seeds are disjoint from scoring
//    seeds, and the fixed-bank column reproduces run_frontier bit-for-bit
//    (tuning happened on a different stream, scoring is unbiased by it);
//  * tuned detection ≥ fixed detection on every golden point;
//  * the early_stop misuse throws the named std::invalid_argument;
//  * the tuner's stored capture: scores bitwise equal to re-simulating
//    every candidate, one backend open per (class, salt) per call, and
//    reads past the store either a named error or the backend's own
//    exhaustion.
#include "core/robust_frontier.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <map>
#include <memory>
#include <mutex>
#include <numeric>
#include <stdexcept>
#include <string>
#include <thread>
#include <tuple>
#include <utility>
#include <vector>

#include "core/scenarios.hpp"

namespace linkpad::core {
namespace {

/// The golden robust spec: a 3-rung budget ladder against a 2-feature ×
/// 2-window attacker grid (small enough for the exhaustive path).
RobustFrontierSpec golden_spec() {
  RobustFrontierSpec spec;
  spec.frontier.scenario = lab_zero_cross(make_cit());
  spec.frontier.policies = budget_ladder({0.0, 70.0, 100.0});
  spec.frontier.plan.adversary.window_size = 200;
  spec.frontier.plan.train_windows = 12;
  spec.frontier.plan.test_windows = 12;
  spec.frontier.seed = 20030324;
  spec.space.features = {classify::FeatureKind::kSampleMean,
                         classify::FeatureKind::kSampleVariance};
  spec.space.window_sizes = {100, 200};
  return spec;
}

TEST(RobustGolden, TunedAtLeastFixedOnEveryPoint) {
  const auto spec = golden_spec();
  const auto robust = run_robust_frontier(spec);
  ASSERT_EQ(robust.points.size(), spec.frontier.policies.size());

  for (std::size_t i = 0; i < robust.points.size(); ++i) {
    SCOPED_TRACE(robust.points[i].policy);
    // The tuned attacker keeps the fixed bank in hand: never worse.
    EXPECT_GE(robust.points[i].tuned_detection,
              robust.points[i].fixed_detection);
    EXPECT_GE(robust.points[i].tuned_gain(), 0.0);
    EXPECT_LT(robust.points[i].winner, spec.space.size());
    EXPECT_FALSE(robust.points[i].winner_label.empty());
  }
  // Someone is on the front, and front() matches the flags.
  const auto front = robust.front();
  EXPECT_FALSE(front.empty());
  for (const std::size_t i : front) {
    EXPECT_TRUE(robust.points[i].pareto_efficient);
  }
}

TEST(RobustSeeds, SelectionDisjointFromScoringAndFixedColumnMatchesFrontier) {
  const auto spec = golden_spec();
  // Seed discipline: the tuner never sees a scoring stream.
  for (std::size_t i = 0; i < spec.frontier.policies.size(); ++i) {
    EXPECT_NE(spec.selection_seed(i), spec.scoring_seed(i));
    EXPECT_EQ(spec.scoring_seed(i), derive_point_seed(spec.frontier.seed, i));
    for (std::size_t j = 0; j < spec.frontier.policies.size(); ++j) {
      EXPECT_NE(spec.selection_seed(i), spec.scoring_seed(j));
    }
  }

  // The scoring sweep IS run_frontier's evaluation with one extra detector
  // tapping the capture: the fixed-bank column must reproduce
  // run_frontier's detection rates bit-for-bit. This is the held-out-seed
  // separation proof — if tuning perturbed the scoring streams in any way,
  // these doubles would differ.
  const auto robust = run_robust_frontier(spec);
  const auto fixed = run_frontier(spec.frontier);
  ASSERT_EQ(robust.points.size(), fixed.points.size());
  for (std::size_t i = 0; i < robust.points.size(); ++i) {
    SCOPED_TRACE(robust.points[i].policy);
    EXPECT_EQ(std::memcmp(&robust.points[i].fixed_detection,
                          &fixed.points[i].detection_rate, sizeof(double)),
              0);
    EXPECT_EQ(std::memcmp(&robust.points[i].overhead_bps,
                          &fixed.points[i].overhead_bps, sizeof(double)),
              0);
    // And the acceptance inequality against run_frontier itself.
    EXPECT_GE(robust.points[i].tuned_detection, fixed.points[i].detection_rate);
  }
}

TEST(RobustDeterminism, JsonByteIdenticalAcrossThreadCounts) {
  const auto spec = golden_spec();
  const std::size_t hw =
      std::max<std::size_t>(std::thread::hardware_concurrency(), 1);
  auto run_at = [&](std::size_t threads) {
    SweepOptions options;
    options.threads = threads;
    return robust_frontier_json(run_robust_frontier(spec, sim_backend(),
                                                    options));
  };
  const std::string serial = run_at(1);
  EXPECT_EQ(serial, run_at(2));
  EXPECT_EQ(serial, run_at(hw));
  // The serialization carries hex bit patterns, not printf round-trips.
  EXPECT_NE(serial.find("\"tuned_detection\":\""), std::string::npos);
}

TEST(TuneAdversary, HalvingAgreesWithExhaustiveOnSmallSpace) {
  const Scenario scenario = lab_zero_cross(make_cit());
  AdversaryPlan plan;
  plan.train_windows = 16;
  plan.test_windows = 16;
  classify::DetectorSearchSpace space;
  space.features = {classify::FeatureKind::kSampleMean,
                    classify::FeatureKind::kSampleVariance,
                    classify::FeatureKind::kSampleEntropy};
  space.window_sizes = {50, 400};
  ASSERT_EQ(space.size(), 6u);
  const std::uint64_t seed = 41;

  TuneOptions exhaustive;
  exhaustive.exhaustive_limit = 8;  // 6 ≤ 8 → one full-budget round
  const auto grid = tune_adversary(scenario, plan, space, seed, sim_backend(),
                                   exhaustive);
  EXPECT_EQ(grid.rounds, 1u);
  EXPECT_EQ(grid.evaluations, 6u);
  ASSERT_EQ(grid.final_scores.size(), 6u);

  TuneOptions halving;
  halving.exhaustive_limit = 2;
  halving.min_windows = 4;  // 6 @4 → 3 @8 → 2 finalists @16
  const auto halved = tune_adversary(scenario, plan, space, seed,
                                     sim_backend(), halving);
  EXPECT_EQ(halved.rounds, 3u);
  EXPECT_EQ(halved.evaluations, 6u + 3u + 2u);
  EXPECT_EQ(halved.final_scores.size(), 2u);

  EXPECT_EQ(halved.winner, grid.winner);
  EXPECT_EQ(halved.winner_label, grid.winner_label);
  // Both final rounds scored the winner at the full budget on the same
  // seed: the score is the same double.
  EXPECT_EQ(std::memcmp(&halved.winner_score, &grid.winner_score,
                        sizeof(double)),
            0);
}

TEST(TuneAdversary, DeterministicAcrossThreadCountsAndTiesBreakLow) {
  const Scenario scenario = lab_zero_cross(make_cit());
  AdversaryPlan plan;
  plan.train_windows = 8;
  plan.test_windows = 8;
  classify::DetectorSearchSpace space;
  space.features = {classify::FeatureKind::kSampleVariance};
  space.window_sizes = {100, 200};
  const std::uint64_t seed = 7;

  auto tune_at = [&](std::size_t threads) {
    TuneOptions options;
    options.sweep.threads = threads;
    return tune_adversary(scenario, plan, space, seed, sim_backend(), options);
  };
  const auto serial = tune_at(1);
  const auto wide = tune_at(
      std::max<std::size_t>(std::thread::hardware_concurrency(), 1));
  EXPECT_EQ(serial.winner, wide.winner);
  ASSERT_EQ(serial.final_scores.size(), wide.final_scores.size());
  for (std::size_t i = 0; i < serial.final_scores.size(); ++i) {
    EXPECT_EQ(serial.final_scores[i].candidate,
              wide.final_scores[i].candidate);
    EXPECT_EQ(std::memcmp(&serial.final_scores[i].attack_score,
                          &wide.final_scores[i].attack_score, sizeof(double)),
              0);
  }

  // A space of identical candidates ties exactly; the winner must be the
  // lowest candidate index, not an artifact of evaluation order.
  classify::DetectorSearchSpace tied;
  tied.features = {classify::FeatureKind::kSampleVariance};
  tied.window_sizes = {100, 100};  // two byte-identical candidates
  const auto tie = tune_adversary(scenario, plan, tied, seed, sim_backend());
  EXPECT_EQ(tie.winner, 0u);
}

TEST(TuneAdversary, CpdCandidateRidesTheBank) {
  const Scenario scenario = lab_zero_cross(make_cit());
  AdversaryPlan plan;
  plan.adversary.window_size = 100;
  plan.train_windows = 8;
  plan.test_windows = 8;
  classify::DetectorSearchSpace space;
  space.features = {classify::FeatureKind::kSampleVariance};
  space.window_sizes = {100};
  space.cpd_target_fars = {0.05};
  space.cpd_base.horizon = 200;  // keep the Monte-Carlo calibration cheap
  space.cpd_base.trials = 40;
  ASSERT_EQ(space.size(), 2u);

  const auto result =
      tune_adversary(scenario, plan, space, /*seed=*/11, sim_backend());
  ASSERT_EQ(result.final_scores.size(), 2u);
  EXPECT_EQ(result.final_scores[1].label, "cusum @far=0.05");
  // CPD scores live on the attack_score scale: 0.5 (undetected) or 1.0.
  const double cpd_score = result.final_scores[1].attack_score;
  EXPECT_TRUE(cpd_score == 0.5 || cpd_score == 1.0) << cpd_score;
}

TEST(RobustMisuse, EarlyStopThrowsNamedInvalidArgument) {
  const auto spec = golden_spec();
  SweepOptions options;
  options.early_stop = [](std::size_t, const ExperimentResult&) {
    return true;
  };
  try {
    (void)run_robust_frontier(spec, sim_backend(), options);
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("early_stop"), std::string::npos);
  }

  TuneOptions tune;
  tune.sweep.early_stop = options.early_stop;
  try {
    (void)tune_adversary(spec.frontier.scenario, spec.frontier.plan,
                         spec.space, 1, sim_backend(), tune);
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("early_stop"), std::string::npos);
  }
}

// ------------------------------------------------------ stored capture

/// Counts the opens of each (class, salt) key through a wrapped backend.
class CountingBackend final : public ExperimentBackend {
 public:
  explicit CountingBackend(const ExperimentBackend& inner) : inner_(&inner) {}

  [[nodiscard]] std::unique_ptr<PiatSource> open(
      const Scenario& scenario, std::size_t class_index, std::uint64_t seed,
      std::uint64_t salt) const override {
    {
      const std::lock_guard<std::mutex> lock(mutex_);
      ++opens_[{class_index, salt}];
    }
    return inner_->open(scenario, class_index, seed, salt);
  }

  [[nodiscard]] std::string name() const override { return "counting"; }

  [[nodiscard]] std::map<std::pair<std::size_t, std::uint64_t>, std::size_t>
  opens() const {
    const std::lock_guard<std::mutex> lock(mutex_);
    return opens_;
  }

 private:
  const ExperimentBackend* inner_;
  mutable std::mutex mutex_;
  mutable std::map<std::pair<std::size_t, std::uint64_t>, std::size_t> opens_;
};

/// A finite backend: each stream delivers at most `limit` PIATs of the
/// wrapped backend's stream, then comes up short.
class FiniteBackend final : public ExperimentBackend {
 public:
  FiniteBackend(const ExperimentBackend& inner, std::size_t limit)
      : inner_(&inner), limit_(limit) {}

  [[nodiscard]] std::unique_ptr<PiatSource> open(
      const Scenario& scenario, std::size_t class_index, std::uint64_t seed,
      std::uint64_t salt) const override {
    return std::make_unique<Source>(
        inner_->open(scenario, class_index, seed, salt), limit_);
  }

  [[nodiscard]] bool replayable() const override { return false; }
  [[nodiscard]] std::string name() const override { return "finite"; }

 private:
  class Source final : public PiatSource {
   public:
    Source(std::unique_ptr<PiatSource> inner, std::size_t left)
        : inner_(std::move(inner)), left_(left) {}
    std::size_t collect(std::size_t count, std::vector<double>& out) override {
      const std::size_t got = inner_->collect(std::min(count, left_), out);
      left_ -= got;
      return got;
    }
    [[nodiscard]] std::string name() const override { return "finite"; }

   private:
    std::unique_ptr<PiatSource> inner_;
    std::size_t left_;
  };

  const ExperimentBackend* inner_;
  std::size_t limit_;
};

/// The oracle: tune_adversary's schedule with every candidate of every
/// round evaluated as its own SweepRunner point on `backend`, re-simulating
/// its capture — the per-candidate path the stored capture replaced.
TuneResult tune_by_resimulation(const Scenario& scenario,
                                const AdversaryPlan& plan,
                                const classify::DetectorSearchSpace& space,
                                std::uint64_t seed,
                                const ExperimentBackend& backend,
                                const TuneOptions& options) {
  const auto candidates = space.expand();
  TuneResult result;
  const auto evaluate = [&](const std::vector<std::size_t>& survivors,
                            std::size_t train_windows,
                            std::size_t test_windows) {
    const auto report =
        SweepRunner(backend, options.sweep)
            .run(survivors.size(), [&](std::size_t i) {
              const classify::DetectorSpec& candidate =
                  candidates[survivors[i]];
              ExperimentSpec spec;
              spec.scenario = scenario;
              spec.plan = plan;
              spec.plan.extra_features.clear();
              spec.plan.cpd_detectors.clear();
              spec.plan.adversary = candidate.adversary;
              spec.plan.adversary.feature = classify::FeatureKind::kSampleMean;
              spec.plan.extra_detectors = {candidate};
              spec.plan.train_windows = train_windows;
              spec.plan.test_windows = test_windows;
              spec.seed = seed;
              return spec;
            });
    std::vector<double> scores(survivors.size());
    for (std::size_t i = 0; i < survivors.size(); ++i) {
      scores[i] = report.results[i].per_detector.at(0).attack_score;
    }
    result.rounds += 1;
    result.evaluations += survivors.size();
    return scores;
  };

  std::vector<std::size_t> survivors(candidates.size());
  std::iota(survivors.begin(), survivors.end(), std::size_t{0});
  std::size_t budget = options.min_windows;
  while (survivors.size() > options.exhaustive_limit &&
         budget < plan.train_windows) {
    const auto scores =
        evaluate(survivors, std::min(budget, plan.train_windows),
                 std::min(budget, plan.test_windows));
    std::vector<std::size_t> order(survivors.size());
    std::iota(order.begin(), order.end(), std::size_t{0});
    std::stable_sort(order.begin(), order.end(),
                     [&](std::size_t a, std::size_t b) {
                       return scores[a] > scores[b];
                     });
    std::vector<std::size_t> next;
    for (std::size_t i = 0; i < (survivors.size() + 1) / 2; ++i) {
      next.push_back(survivors[order[i]]);
    }
    std::sort(next.begin(), next.end());
    survivors = std::move(next);
    budget *= 2;
  }
  const auto final_scores =
      evaluate(survivors, plan.train_windows, plan.test_windows);
  std::size_t best = 0;
  for (std::size_t i = 1; i < survivors.size(); ++i) {
    if (final_scores[i] > final_scores[best]) best = i;
  }
  result.winner = survivors[best];
  result.winner_score = final_scores[best];
  for (std::size_t i = 0; i < survivors.size(); ++i) {
    result.final_scores.push_back({survivors[i], "", final_scores[i]});
  }
  return result;
}

/// Every detector family whose engine run the store must reproduce:
/// entropy with auto Δh (its prepass re-opens the training stream), MAD
/// with exact and P² quantiles, EDF-KS and one calibrated CUSUM.
classify::DetectorSearchSpace capture_space() {
  classify::DetectorSearchSpace space;
  space.base.window_size = 100;  // the CUSUM candidate's capture window
  space.features = {classify::FeatureKind::kSampleEntropy,
                    classify::FeatureKind::kMedianAbsDeviation};
  space.quantile_modes = {classify::QuantileMode::kExact,
                          classify::QuantileMode::kP2Sketch};
  space.window_sizes = {50, 100};
  space.edf_distances = {classify::EdfDistance::kKolmogorovSmirnov};
  space.cpd_target_fars = {0.05};
  space.cpd_base.horizon = 200;
  space.cpd_base.trials = 40;
  return space;
}

void expect_bitwise_equal(const TuneResult& got, const TuneResult& want) {
  EXPECT_EQ(got.rounds, want.rounds);
  EXPECT_EQ(got.evaluations, want.evaluations);
  EXPECT_EQ(got.winner, want.winner);
  EXPECT_EQ(std::memcmp(&got.winner_score, &want.winner_score, sizeof(double)),
            0);
  ASSERT_EQ(got.final_scores.size(), want.final_scores.size());
  for (std::size_t i = 0; i < got.final_scores.size(); ++i) {
    SCOPED_TRACE(got.final_scores[i].label);
    EXPECT_EQ(got.final_scores[i].candidate, want.final_scores[i].candidate);
    EXPECT_EQ(std::memcmp(&got.final_scores[i].attack_score,
                          &want.final_scores[i].attack_score, sizeof(double)),
              0);
  }
}

TEST(TuneCapture, ScoresBitwiseEqualPerCandidateResimulationWithOneOpenPerKey) {
  const Scenario scenario = lab_zero_cross(make_cit());
  AdversaryPlan plan;
  plan.train_windows = 16;
  plan.test_windows = 16;
  const auto space = capture_space();
  ASSERT_EQ(space.size(), 9u);
  const std::uint64_t seed = 23;

  TuneOptions halving;
  halving.exhaustive_limit = 2;
  halving.min_windows = 4;  // 9 @4 → 5 @8 → 3 finalists @16
  TuneOptions exhaustive;
  exhaustive.exhaustive_limit = space.size();  // one full-budget round
  for (const auto& [label, options, rounds] :
       {std::tuple{"halving", halving, std::size_t{3}},
        std::tuple{"exhaustive", exhaustive, std::size_t{1}}}) {
    SCOPED_TRACE(label);
    const CountingBackend counting(sim_backend());
    const auto tuned =
        tune_adversary(scenario, plan, space, seed, counting, options);
    EXPECT_EQ(tuned.rounds, rounds);
    expect_bitwise_equal(tuned, tune_by_resimulation(scenario, plan, space,
                                                     seed, sim_backend(),
                                                     options));
    // One open per (class, salt), whatever the candidate and round count.
    const auto opens = counting.opens();
    ASSERT_EQ(opens.size(), 4u);
    for (const auto& [key, count] : opens) {
      EXPECT_EQ(count, 1u) << "class " << key.first << ", salt " << key.second;
      EXPECT_LT(key.first, 2u);
      EXPECT_TRUE(key.second == 1 || key.second == 2);
    }
  }
}

TEST(TuneCapture, ReadPastTheStoredStreamIsANamedError) {
  const Scenario scenario = lab_zero_cross(make_cit());
  const std::uint64_t seed = 5;
  const auto stored = detail::store_capture(sim_backend(), scenario, seed,
                                            /*train_piats=*/300,
                                            /*test_piats=*/200,
                                            /*batch_piats=*/64);
  auto source = stored->open(scenario, 1, seed, /*salt=*/1);
  std::vector<double> piats;
  ASSERT_EQ(source->collect(300, piats), 300u);
  const auto fresh = pull_stream(sim_backend(), scenario, 1, seed, 1, 300);
  ASSERT_EQ(fresh.size(), 300u);
  EXPECT_EQ(std::memcmp(piats.data(), fresh.data(), 300 * sizeof(double)), 0);

  try {
    (void)source->collect(1, piats);
    FAIL() << "expected std::out_of_range";
  } catch (const std::out_of_range& e) {
    EXPECT_NE(std::string(e.what()).find("stored capture"), std::string::npos)
        << e.what();
  }
  // A fresh open replays the stream from its start.
  auto again = stored->open(scenario, 1, seed, 1);
  std::vector<double> replay;
  EXPECT_EQ(again->collect(300, replay), 300u);
  EXPECT_EQ(std::memcmp(replay.data(), fresh.data(), 300 * sizeof(double)), 0);
  // Keys outside the store are the same named error.
  EXPECT_THROW((void)stored->open(scenario, 0, seed, 3), std::out_of_range);
  EXPECT_THROW((void)stored->open(scenario, 2, seed, 1), std::out_of_range);
  EXPECT_THROW((void)stored->open(scenario, 0, seed + 1, 1),
               std::out_of_range);
}

TEST(TuneCapture, ShortBackendExhaustsWhereTheBackendDid) {
  const Scenario scenario = lab_zero_cross(make_cit());
  const std::uint64_t seed = 9;
  const FiniteBackend finite(sim_backend(), /*limit=*/100);
  const auto stored = detail::store_capture(finite, scenario, seed, 300, 300,
                                            /*batch_piats=*/64);
  EXPECT_TRUE(stored->replayable());
  auto from_store = stored->open(scenario, 0, seed, 2);
  auto from_backend = finite.open(scenario, 0, seed, 2);
  std::vector<double> a;
  std::vector<double> b;
  for (const std::size_t want : {64u, 64u, 10u}) {
    EXPECT_EQ(from_store->collect(want, a), from_backend->collect(want, b))
        << "pull of " << want;
  }
  ASSERT_EQ(a.size(), 100u);
  ASSERT_EQ(b.size(), 100u);
  EXPECT_EQ(std::memcmp(a.data(), b.data(), 100 * sizeof(double)), 0);
}

}  // namespace
}  // namespace linkpad::core
