// Self-tests of the benchmark's own code: the digest check, the saturation
// guard, span self-time arithmetic, the seam-to-span rules and the
// dispersion statistics.
#include <gtest/gtest.h>

#include <stdexcept>

#include "checks.hpp"
#include "core/scenarios.hpp"
#include "stats.hpp"
#include "trace.hpp"
#include "workloads.hpp"

namespace pb = perfbench;

namespace {

pb::Span span(const char* name, double start, double end, pb::Rank rank,
              std::uint32_t thread = 0) {
  return {name, thread, start, end, rank, -1, 0.0};
}

pb::SeamEvent open_event(double t0, double t1, std::uint64_t seed,
                         std::uint64_t salt, std::size_t cls) {
  pb::SeamEvent e;
  e.kind = pb::SeamEvent::Kind::kOpen;
  e.t0 = t0;
  e.t1 = t1;
  e.seed = seed;
  e.salt = salt;
  e.cls = cls;
  return e;
}

pb::SeamEvent collect_event(double t0, double t1, std::size_t piats) {
  pb::SeamEvent e;
  e.kind = pb::SeamEvent::Kind::kCollect;
  e.t0 = t0;
  e.t1 = t1;
  e.piats = piats;
  return e;
}

pb::SeamEvent release_event(double t) {
  pb::SeamEvent e;
  e.kind = pb::SeamEvent::Kind::kRelease;
  e.t0 = e.t1 = t;
  return e;
}

double total_named(const std::vector<pb::Span>& spans, const std::string& name) {
  double sum = 0.0;
  for (const auto& s : spans) {
    if (s.name == name) sum += s.end - s.start;
  }
  return sum;
}

}  // namespace

// ----------------------------------------------------------------- digest

TEST(Digest, Fnv1aKnownVectors) {
  EXPECT_EQ(pb::fnv1a_hex(""), "cbf29ce484222325");
  EXPECT_EQ(pb::fnv1a_hex("a"), "af63dc4c8601ec8c");
  EXPECT_EQ(pb::fnv1a_hex("foobar"), "85944171f73967e8");
}

TEST(Digest, MatchPassesAndMismatchFailsWithBothDigests) {
  pb::Verdict ok;
  pb::check_digest(ok, "abc", pb::fnv1a_hex("abc"));
  EXPECT_TRUE(ok.ok);

  pb::Verdict bad;
  pb::check_digest(bad, "abd", pb::fnv1a_hex("abc"));
  EXPECT_FALSE(bad.ok);
  EXPECT_NE(bad.reason.find(pb::fnv1a_hex("abd")), std::string::npos);
  EXPECT_NE(bad.reason.find(pb::fnv1a_hex("abc")), std::string::npos);
}

TEST(Digest, EveryWorkloadHasACommittedDigestAndTheFirstFailureWins) {
  for (const char* w : {"fig4b_curve", "campaign_unsaturated",
                        "campaign_saturated", "robust_frontier"}) {
    for (std::size_t input = 0; input < pb::kInputs; ++input) {
      const auto digest = pb::committed_digest(w, input);
      ASSERT_TRUE(digest.has_value()) << w;
      EXPECT_EQ(digest->size(), 16u) << w << " input " << input;
    }
    EXPECT_FALSE(pb::committed_digest(w, pb::kInputs).has_value());
  }
  EXPECT_FALSE(pb::committed_digest("nope", 0).has_value());

  pb::Verdict v;
  v.require(true, "fine");
  v.require(false, "first");
  v.require(false, "second");
  EXPECT_FALSE(v.ok);
  EXPECT_EQ(v.reason, "first");
}

// ------------------------------------------------------- saturation guard

TEST(SaturationGuard, OfferedLoadCountsTheOtherFlows) {
  const auto scenario =
      linkpad::core::lab_cross_traffic(linkpad::core::make_cit(), 0.1);
  ASSERT_FALSE(scenario.base.hops_before_tap.empty());
  const auto& hop = scenario.base.hops_before_tap.front();
  const double per_flow = 0.8e6;

  const auto one = pb::offered_saturation(scenario, 1, per_flow, 0.95);
  EXPECT_DOUBLE_EQ(one.offered_utilization, hop.cross_utilization);
  EXPECT_EQ(one.saturated_hops, 0u);

  const auto m256 = pb::offered_saturation(scenario, 256, per_flow, 0.95);
  EXPECT_DOUBLE_EQ(m256.offered_utilization,
                   hop.cross_utilization + 255.0 * per_flow / hop.bandwidth_bps);
  EXPECT_EQ(m256.hops, scenario.base.hops_before_tap.size());
}

TEST(SaturationGuard, ThrowsWhenALabelDisagreesWithTheLoad) {
  pb::Saturation below;
  below.offered_utilization = 0.51;
  below.hops = 1;
  pb::Saturation above;
  above.offered_utilization = 160.0;
  above.saturated_hops = 1;
  above.hops = 1;

  EXPECT_NO_THROW(pb::require_saturation(below, false, "campaign_unsaturated"));
  EXPECT_NO_THROW(pb::require_saturation(above, true, "campaign_saturated"));
  EXPECT_THROW(pb::require_saturation(above, false, "campaign_unsaturated"),
               std::runtime_error);
  EXPECT_THROW(pb::require_saturation(below, true, "campaign_saturated"),
               std::runtime_error);
}

TEST(SaturationGuard, CapIsInclusive) {
  auto scenario = linkpad::core::lab_cross_traffic(linkpad::core::make_cit(), 0.1);
  scenario.base.hops_before_tap.resize(1);
  auto& hop = scenario.base.hops_before_tap.front();
  hop.cross_utilization = 0.45;
  hop.bandwidth_bps = 1e6;
  // 0.45 + 1 other flow × 0.5 Mb/s over 1 Mb/s = 0.95: exactly the cap.
  const auto at_cap = pb::offered_saturation(scenario, 2, 0.5e6, 0.95);
  EXPECT_EQ(at_cap.saturated_hops, 1u);
}

// ------------------------------------------------------ self-time arithmetic

TEST(SelfTime, SpanMinusTheUnionItsChildrenCover) {
  std::vector<pb::Span> spans = {
      span("op", 0.0, 10.0, pb::Rank::kRoot),
      span("sim", 1.0, 3.0, pb::Rank::kLeaf),
      span("classify.train", 3.0, 5.0, pb::Rank::kLeaf),
      span("shard.parse", 8.0, 9.5, pb::Rank::kApi),
  };
  pb::assign_parents_and_self(spans, 0);
  EXPECT_DOUBLE_EQ(spans[0].self, 10.0 - 2.0 - 2.0 - 1.5);
  EXPECT_DOUBLE_EQ(spans[1].self, 2.0);
  for (std::size_t i = 1; i < spans.size(); ++i) EXPECT_EQ(spans[i].parent, 0);
}

TEST(SelfTime, OverlappingChildrenOnOtherThreadsCountOnce) {
  // A shard span on the dispatching thread with two worker-thread chunks
  // that overlap in time: the covered part is their union, clipped.
  std::vector<pb::Span> spans = {
      span("op", 0.0, 20.0, pb::Rank::kRoot, 0),
      span("population.run_shard", 2.0, 12.0, pb::Rank::kApi, 0),
      span("population.chunk", 3.0, 8.0, pb::Rank::kGroup, 1),
      span("population.chunk", 5.0, 11.0, pb::Rank::kGroup, 2),
      span("sim", 4.0, 6.0, pb::Rank::kLeaf, 1),
  };
  spans[2].parent = 1;
  spans[3].parent = 1;
  pb::assign_parents_and_self(spans, 0);
  EXPECT_EQ(spans[4].parent, 2);
  EXPECT_DOUBLE_EQ(spans[1].self, 10.0 - 8.0);  // [3, 11) covered
  EXPECT_DOUBLE_EQ(spans[2].self, 5.0 - 2.0);
  EXPECT_DOUBLE_EQ(spans[0].self, 20.0 - 10.0);
}

TEST(SelfTime, IdenticalIntervalsNestByRank) {
  std::vector<pb::Span> spans = {
      span("op", 0.0, 10.0, pb::Rank::kRoot),
      span("experiment", 1.0, 4.0, pb::Rank::kExperiment),
      span("tuner", 1.0, 4.0, pb::Rank::kGroup),
      span("sim", 1.0, 2.0, pb::Rank::kLeaf),
  };
  pb::assign_parents_and_self(spans, 0);
  EXPECT_EQ(spans[2].parent, 0);
  EXPECT_EQ(spans[1].parent, 2);
  EXPECT_EQ(spans[3].parent, 1);
  EXPECT_DOUBLE_EQ(spans[2].self, 0.0);
  EXPECT_DOUBLE_EQ(spans[1].self, 2.0);
}

TEST(SelfTime, LayerOfSpanNames) {
  EXPECT_EQ(pb::layer_of("sim"), "sim");
  EXPECT_EQ(pb::layer_of("classify.prepass"), "classify");
  EXPECT_EQ(pb::layer_of("population.chunk"), "population");
  EXPECT_EQ(pb::layer_of("frontier.score"), "tuner");
}

// ---------------------------------------------------------- seam spans

TEST(SeamSpans, PullsAreSimAndTheGapsBetweenThemClassify) {
  // One flow: class-0/1 training streams, then class-0/1 test streams.
  const std::vector<pb::SeamEvent> events = {
      open_event(0.0, 0.1, 7, 1, 0), collect_event(0.1, 1.0, 100),
      collect_event(1.5, 2.0, 100), release_event(2.5),
      open_event(2.6, 2.7, 7, 1, 1), collect_event(2.7, 3.0, 100),
      release_event(3.2),
      open_event(4.0, 4.1, 7, 2, 0), collect_event(4.1, 5.0, 100),
      release_event(5.4),
      open_event(5.5, 5.6, 7, 2, 1), collect_event(5.6, 6.0, 100),
      release_event(6.1),
  };
  std::vector<pb::Span> spans;
  pb::SeamCounts counts;
  pb::derive_seam_spans(events, {}, {}, spans, counts);

  EXPECT_EQ(counts.piats, 500u);
  EXPECT_EQ(counts.experiments, 1u);
  EXPECT_NEAR(total_named(spans, "sim"), 0.1 + 0.9 + 0.5 + 0.1 + 0.3 + 0.1 + 0.9 + 0.1 + 0.4, 1e-12);
  // Training: between/after pulls (0.5 + 0.5 + 0.2) plus the fit before
  // the first test stream opens (3.2 -> 4.0).
  EXPECT_NEAR(total_named(spans, "classify.train"), 0.5 + 0.5 + 0.2 + 0.8, 1e-12);
  EXPECT_NEAR(total_named(spans, "classify.test"), 0.4 + 0.1, 1e-12);
  EXPECT_NEAR(total_named(spans, "experiment"), 6.1, 1e-12);
  EXPECT_DOUBLE_EQ(total_named(spans, "classify.prepass"), 0.0);
}

TEST(SeamSpans, ReopenedTrainingStreamMarksThePrepass) {
  const std::vector<pb::SeamEvent> events = {
      open_event(0.0, 0.1, 7, 1, 0), collect_event(0.1, 0.5, 10),
      release_event(0.7),  // prepass pass: 0.2 of bank work
      open_event(0.8, 0.9, 7, 1, 0), collect_event(0.9, 1.3, 10),
      release_event(1.6),  // training pass: 0.3
      open_event(1.7, 1.8, 7, 2, 0), collect_event(1.8, 2.0, 10),
      release_event(2.1),
  };
  std::vector<pb::Span> spans;
  pb::SeamCounts counts;
  pb::derive_seam_spans(events, {}, {}, spans, counts);
  EXPECT_NEAR(total_named(spans, "classify.prepass"), 0.2 + 0.1, 1e-12);
  EXPECT_NEAR(total_named(spans, "classify.train"), 0.3 + 0.1, 1e-12);
  EXPECT_EQ(counts.experiments, 1u);
}

TEST(SeamSpans, ChunksAndPhasesGroupExperiments) {
  const auto flow = [](double t, std::uint64_t seed) {
    return std::vector<pb::SeamEvent>{
        open_event(t, t + 0.1, seed, 1, 0), collect_event(t + 0.1, t + 0.2, 5),
        release_event(t + 0.3), open_event(t + 0.4, t + 0.5, seed, 2, 0),
        collect_event(t + 0.5, t + 0.6, 5), release_event(t + 0.7)};
  };
  std::vector<pb::SeamEvent> events;
  const std::vector<std::pair<double, std::uint64_t>> starts = {
      {0.0, 1}, {1.0, 1}, {2.0, 2}};
  for (const auto& [t, seed] : starts) {
    const auto f = flow(t, seed);
    events.insert(events.end(), f.begin(), f.end());
  }
  pb::SeamEvent done;
  done.kind = pb::SeamEvent::Kind::kChunkDone;
  done.t0 = done.t1 = 3.0;
  events.push_back(done);

  const pb::PhaseFn phase = [](std::uint64_t seed) {
    return seed == 1 ? std::string("tuner") : std::string("frontier.score");
  };
  std::vector<pb::Span> spans;
  pb::SeamCounts counts;
  pb::derive_seam_spans(events, {{5, -1.0, 10.0}}, phase, spans, counts);
  EXPECT_EQ(counts.experiments, 3u);
  EXPECT_EQ(counts.chunks, 1u);
  EXPECT_NEAR(total_named(spans, "tuner"), 1.7, 1e-12);
  EXPECT_NEAR(total_named(spans, "frontier.score"), 0.7, 1e-12);
  for (const auto& s : spans) {
    if (s.name == "population.chunk") {
      EXPECT_EQ(s.parent, 5);
      EXPECT_DOUBLE_EQ(s.start, -1.0);
      EXPECT_DOUBLE_EQ(s.end, 3.0);
    }
  }
}

// ---------------------------------------------------------- dispersion

TEST(Dispersion, QuartilesMatchPythonStatisticsQuantiles) {
  // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
  const auto q = pb::quartiles({10, 1, 2, 3, 4, 5, 6, 7, 8, 9});
  EXPECT_DOUBLE_EQ(q[0], 2.75);
  EXPECT_DOUBLE_EQ(q[1], 5.5);
  EXPECT_DOUBLE_EQ(q[2], 8.25);
  // statistics.quantiles([1, 2, 4], n=4) == [1.0, 2.0, 4.0]
  const auto small = pb::quartiles({4, 1, 2});
  EXPECT_DOUBLE_EQ(small[0], 1.0);
  EXPECT_DOUBLE_EQ(small[2], 4.0);
}

TEST(Dispersion, MedianAndMad) {
  const auto s = pb::summarize({1, 2, 3, 4, 100});
  EXPECT_DOUBLE_EQ(s.median, 3.0);
  EXPECT_DOUBLE_EQ(s.mad, 1.0);
  EXPECT_DOUBLE_EQ(s.max, 100.0);
  EXPECT_DOUBLE_EQ(pb::median({4, 1, 3, 2}), 2.5);
}
