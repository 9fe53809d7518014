// The PIATs-only entry of the backend seam: ExperimentBackend::open_piats
// yields the PIATs open() yields, a simulated stream opened through it
// reports no overhead at all, and a backend that overrides only open()
// keeps its accounting everywhere — the engine's test streams, which read
// the delay percentiles, open through open() either way.
#include "core/piat_source.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/experiment.hpp"
#include "core/scenarios.hpp"

namespace linkpad::core {
namespace {

std::vector<std::uint64_t> words(const std::vector<double>& xs) {
  std::vector<std::uint64_t> w;
  w.reserve(xs.size());
  for (const double x : xs) w.push_back(std::bit_cast<std::uint64_t>(x));
  return w;
}

/// Every StreamOverhead field as 64-bit words.
std::vector<std::uint64_t> words(const StreamOverhead& oh) {
  return {oh.payload_packets,
          oh.dummy_packets,
          oh.suppressed_fires,
          std::bit_cast<std::uint64_t>(oh.wire_bps),
          std::bit_cast<std::uint64_t>(oh.padding_bps),
          std::bit_cast<std::uint64_t>(oh.dummy_fraction),
          std::bit_cast<std::uint64_t>(oh.delay_mean),
          std::bit_cast<std::uint64_t>(oh.delay_p50),
          std::bit_cast<std::uint64_t>(oh.delay_p95),
          std::bit_cast<std::uint64_t>(oh.delay_p99)};
}

/// A wrapper that overrides only open(), as perfbench's tracing backend
/// does: open_piats() falls back to it.
class OpenOnlyBackend final : public ExperimentBackend {
 public:
  [[nodiscard]] std::unique_ptr<PiatSource> open(
      const Scenario& scenario, std::size_t class_index, std::uint64_t seed,
      std::uint64_t salt) const override {
    return sim_backend().open(scenario, class_index, seed, salt);
  }
  [[nodiscard]] std::string name() const override { return "open-only"; }
};

std::vector<Scenario> scenarios() {
  return {lab_zero_cross(make_cit()),
          lab_cross_traffic(make_vit(1e-3), 0.51),
          lab_cross_traffic(make_onoff(20e-3), 0.95)};
}

TEST(OpenPiats, SamePiatsAsOpenAndNoOverhead) {
  for (const Scenario& scenario : scenarios()) {
    for (std::size_t c = 0; c < scenario.payload_rates.size(); ++c) {
      SCOPED_TRACE(scenario.name + " class " + std::to_string(c));
      auto full = sim_backend().open(scenario, c, 11, 1);
      auto piats_only = sim_backend().open_piats(scenario, c, 11, 1);
      EXPECT_FALSE(piats_only->overhead().has_value());
      for (const std::size_t pull : {1, 500, 8192, 3}) {
        std::vector<double> want;
        std::vector<double> got;
        ASSERT_EQ(full->collect(pull, want), pull);
        ASSERT_EQ(piats_only->collect(pull, got), pull);
        ASSERT_EQ(words(got), words(want)) << "pull " << pull;
        EXPECT_FALSE(piats_only->overhead().has_value());
      }
      const auto oh = full->overhead();
      ASSERT_TRUE(oh.has_value());
      EXPECT_GT(oh->payload_packets, 0u);
      EXPECT_GT(oh->delay_p95, 0.0);
    }
  }
}

TEST(OpenPiats, DefaultOpensThroughOpen) {
  const OpenOnlyBackend backend;
  const Scenario scenario = lab_zero_cross(make_cit());
  auto source = backend.open_piats(scenario, 1, 11, 1);
  std::vector<double> got;
  ASSERT_EQ(source->collect(4000, got), 4000u);
  const auto oh = source->overhead();
  ASSERT_TRUE(oh.has_value());
  EXPECT_GT(oh->delay_p95, 0.0);
  EXPECT_EQ(words(got), words(pull_stream(sim_backend(), scenario, 1, 11, 1,
                                          4000)));
}

TEST(OpenPiats, EngineTestStreamsKeepDelayPercentiles) {
  // Training streams open through open_piats(); the test streams, whose
  // delay percentiles end up in the result, must still carry them, on the
  // simulated backend and on a wrapper that overrides only open().
  ExperimentSpec spec;
  spec.scenario = lab_zero_cross(make_cit());
  spec.plan.adversary.feature = classify::FeatureKind::kSampleEntropy;
  spec.plan.extra_features = {classify::FeatureKind::kSampleVariance};
  spec.plan.adversary.window_size = 100;
  spec.plan.train_windows = 12;
  spec.plan.test_windows = 12;
  spec.sample_size_axis = {50, 100};
  spec.seed = 5;
  const ExperimentResult direct = ExperimentEngine(sim_backend()).run(spec);
  const OpenOnlyBackend backend;
  const ExperimentResult wrapped = ExperimentEngine(backend).run(spec);
  ASSERT_EQ(direct.overhead_per_class.size(), 2u);
  ASSERT_EQ(wrapped.overhead_per_class.size(), 2u);
  for (std::size_t c = 0; c < 2; ++c) {
    EXPECT_GT(direct.overhead_per_class[c].delay_p95, 0.0);
    EXPECT_EQ(words(wrapped.overhead_per_class[c]),
              words(direct.overhead_per_class[c]));
  }
  ASSERT_TRUE(direct.worst_delay_p95().has_value());
  ASSERT_EQ(wrapped.top().per_feature.size(), direct.top().per_feature.size());
  for (std::size_t f = 0; f < direct.top().per_feature.size(); ++f) {
    EXPECT_EQ(wrapped.top().per_feature[f].confusion.to_string(),
              direct.top().per_feature[f].confusion.to_string());
  }
}

}  // namespace
}  // namespace linkpad::core
