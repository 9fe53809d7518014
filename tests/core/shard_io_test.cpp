// The shard serialization + merge wall (DESIGN.md §2.10):
//
//  1. Exact round-trip — serialize/parse of every aggregate is BITWISE
//     lossless: 200 seeded-random ChunkAggregates (full ExperimentResults,
//     confusion counts, optionals, ±inf/−0/NaN-payload doubles) survive a
//     text round trip with every bit intact, and re-serialization is
//     byte-identical (the format is canonical).
//  2. N-shard bit-identity — shards {1, 2, 3, 8} × flows {1, 2, 33, 1000}
//     × grains: run_population_shard per shard, merge_shards once, and the
//     result (including the order-sensitive P² finalize) equals the
//     1-process PopulationEngine::run byte for byte at any thread count.
//  3. Durability — a worker killed mid-chunk leaves a torn tail; parse
//     tolerates it, resume recomputes only the missing chunks, and the
//     resumed shard file converges to the uninterrupted bytes exactly.
//  4. Self-checking merges — missing chunks, foreign campaigns and format
//     version drift are loud errors, never quietly wrong numbers.
#include "core/shard_io.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <fstream>
#include <limits>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/population.hpp"
#include "core/scenarios.hpp"
#include "util/rng.hpp"

namespace linkpad::core {
namespace {

void expect_bits(double a, double b, const std::string& label) {
  EXPECT_EQ(std::memcmp(&a, &b, sizeof(double)), 0)
      << label << ": " << a << " vs " << b;
}

// ------------------------------------------------------------- hex doubles

TEST(HexDouble, SpecialValuesSurviveExactly) {
  const double specials[] = {
      0.0,
      -0.0,
      1.0,
      -1.0 / 3.0,
      std::numeric_limits<double>::infinity(),
      -std::numeric_limits<double>::infinity(),
      std::numeric_limits<double>::quiet_NaN(),
      std::numeric_limits<double>::denorm_min(),
      -std::numeric_limits<double>::denorm_min(),
      std::numeric_limits<double>::max(),
      std::numeric_limits<double>::epsilon(),
  };
  for (const double x : specials) {
    const std::string hex = encode_double(x);
    ASSERT_EQ(hex.size(), 16u);
    expect_bits(decode_double(hex), x, "hex " + hex);
  }
  // ±inf are the min/max fold identities of a default PopulationPoint —
  // they MUST cross the wire intact for empty-fold edges to merge right.
  EXPECT_EQ(encode_double(std::numeric_limits<double>::infinity()),
            "7ff0000000000000");
  EXPECT_EQ(encode_double(-std::numeric_limits<double>::infinity()),
            "fff0000000000000");
}

TEST(HexDouble, RandomBitPatternsRoundTrip) {
  for (std::uint64_t i = 0; i < 200; ++i) {
    const std::uint64_t bits = util::SplitMix64::mix(i);
    double x;
    std::memcpy(&x, &bits, sizeof x);
    const double back = decode_double(encode_double(x));
    std::uint64_t back_bits;
    std::memcpy(&back_bits, &back, sizeof back_bits);
    EXPECT_EQ(back_bits, bits) << "pattern " << i;
  }
}

TEST(HexDouble, MalformedInputThrows) {
  EXPECT_THROW((void)decode_double(""), std::invalid_argument);
  EXPECT_THROW((void)decode_double("3fe"), std::invalid_argument);
  EXPECT_THROW((void)decode_double("3fe000000000000g"), std::invalid_argument);
  EXPECT_THROW((void)decode_double("3FE0000000000000"), std::invalid_argument);
  EXPECT_THROW((void)decode_double("3fe00000000000000"), std::invalid_argument);
}

// ----------------------------------------- random aggregate property wall

double random_double(util::Rng& rng) {
  // Mostly ordinary magnitudes, with a deliberate seasoning of the edge
  // values a printf-based format would mangle first.
  const double roll = rng.uniform01();
  if (roll < 0.05) return std::numeric_limits<double>::infinity();
  if (roll < 0.10) return -std::numeric_limits<double>::infinity();
  if (roll < 0.14) return -0.0;
  if (roll < 0.18) return std::numeric_limits<double>::denorm_min();
  if (roll < 0.22) return rng.uniform(-1.0, 1.0) * 1e-300;
  return rng.uniform(-1e6, 1e6);
}

stats::BootstrapResult random_ci(util::Rng& rng) {
  stats::BootstrapResult ci;
  ci.estimate = random_double(rng);
  ci.lo = random_double(rng);
  ci.hi = random_double(rng);
  return ci;
}

classify::ConfusionMatrix random_confusion(util::Rng& rng) {
  const std::size_t classes = 2 + static_cast<std::size_t>(rng.uniform01() * 2);
  classify::ConfusionMatrix cm(classes);
  for (std::size_t t = 0; t < classes; ++t) {
    for (std::size_t p = 0; p < classes; ++p) {
      cm.add_count(static_cast<int>(t), static_cast<int>(p),
                   static_cast<std::uint64_t>(rng.uniform(0.0, 40.0)));
    }
  }
  return cm;
}

FeatureOutcome random_feature_outcome(util::Rng& rng) {
  FeatureOutcome f;
  f.feature = static_cast<classify::FeatureKind>(
      static_cast<int>(rng.uniform(0.0, 4.999)));
  f.detection_rate = random_double(rng);
  f.ci = random_ci(rng);
  f.confusion = random_confusion(rng);
  if (rng.uniform01() < 0.5) f.predicted = random_double(rng);
  return f;
}

ExperimentResult random_experiment_result(util::Rng& rng,
                                          std::size_t axis_points) {
  ExperimentResult r;
  r.detection_rate = random_double(rng);
  r.ci = random_ci(rng);
  r.confusion = random_confusion(rng);
  r.r_hat = random_double(rng);
  if (rng.uniform01() < 0.5) r.predicted = random_double(rng);
  r.piat_mean_low = random_double(rng);
  r.piat_mean_high = random_double(rng);
  r.piat_var_low = random_double(rng);
  r.piat_var_high = random_double(rng);
  const std::size_t features = 1 + static_cast<std::size_t>(rng.uniform01() * 2);
  for (std::size_t i = 0; i < features; ++i) {
    r.per_feature.push_back(random_feature_outcome(rng));
  }
  for (std::size_t i = 0; i < axis_points; ++i) {
    SampleSizePoint p;
    p.sample_size = 10 * (i + 1);
    p.train_windows = static_cast<std::size_t>(rng.uniform(1.0, 50.0));
    p.test_windows = static_cast<std::size_t>(rng.uniform(1.0, 50.0));
    p.r_hat = random_double(rng);
    for (std::size_t f = 0; f < features; ++f) {
      p.per_feature.push_back(random_feature_outcome(rng));
    }
    r.by_sample_size.push_back(std::move(p));
  }
  if (rng.uniform01() < 0.7) {
    for (int c = 0; c < 2; ++c) {
      StreamOverhead o;
      o.payload_packets = static_cast<std::uint64_t>(rng.uniform(0.0, 1e6));
      o.dummy_packets = static_cast<std::uint64_t>(rng.uniform(0.0, 1e6));
      o.suppressed_fires = static_cast<std::uint64_t>(rng.uniform(0.0, 1e4));
      o.wire_bps = random_double(rng);
      o.padding_bps = random_double(rng);
      o.dummy_fraction = random_double(rng);
      o.delay_mean = random_double(rng);
      o.delay_p50 = random_double(rng);
      o.delay_p95 = random_double(rng);
      o.delay_p99 = random_double(rng);
      r.overhead_per_class.push_back(o);
    }
  }
  return r;
}

FlowOverhead random_flow_overhead(util::Rng& rng) {
  FlowOverhead o;
  o.has_cost = rng.uniform01() < 0.8;
  o.padding_bps = random_double(rng);
  o.wire_bps = random_double(rng);
  o.dummy_fraction = random_double(rng);
  o.has_delay = rng.uniform01() < 0.8;
  o.delay_p95 = random_double(rng);
  return o;
}

/// A random but internally consistent shard: header + every chunk the
/// shard owns, each sized by the (flows, grain) partition.
PopulationShard random_shard(util::Rng& rng) {
  PopulationShard shard;
  shard.shard_count = 1 + static_cast<std::size_t>(rng.uniform(0.0, 3.999));
  shard.shard_index =
      static_cast<std::size_t>(rng.uniform01() * static_cast<double>(shard.shard_count));
  shard.flows = 1 + static_cast<std::size_t>(rng.uniform(0.0, 20.0));
  shard.grain = 1 + static_cast<std::size_t>(rng.uniform(0.0, 4.999));
  const std::size_t axis_points = 1 + static_cast<std::size_t>(rng.uniform01() * 2);
  for (std::size_t i = 0; i < axis_points; ++i) {
    shard.sample_sizes.push_back(10 * (i + 1));
  }
  shard.detection_threshold = rng.uniform(0.5, 1.0);
  shard.mean_interval = random_double(rng);
  shard.seed = util::SplitMix64::mix(static_cast<std::uint64_t>(rng.uniform(0.0, 1e9)));
  shard.keep_per_flow = rng.uniform01() < 0.5;
  if (rng.uniform01() < 0.5) {
    // Sampled campaign: a valid (m, round) pair — chunks then live in the
    // executed (m-flow) index space, not the deployed M.
    shard.sample_flows =
        1 + static_cast<std::size_t>(rng.uniform01() *
                                     static_cast<double>(shard.flows - 1));
    const std::size_t max_round =
        (shard.flows - shard.sample_flows) / shard.sample_flows;
    shard.sample_round = static_cast<std::size_t>(
        rng.uniform01() * static_cast<double>(max_round + 1));
    if (shard.sample_round > max_round) shard.sample_round = max_round;
  }

  for (const std::size_t id : shard.owned_chunk_ids()) {
    ChunkAggregate chunk;
    chunk.first_flow = id * shard.grain;
    const std::size_t count =
        std::min(shard.executed_flows(), chunk.first_flow + shard.grain) -
        chunk.first_flow;
    chunk.rates.resize(axis_points);
    for (auto& row : chunk.rates) {
      for (std::size_t f = 0; f < count; ++f) row.push_back(random_double(rng));
    }
    for (std::size_t f = 0; f < count; ++f) {
      chunk.overhead.push_back(random_flow_overhead(rng));
      if (shard.keep_per_flow) {
        chunk.per_flow.push_back(random_experiment_result(rng, axis_points));
      }
    }
    shard.chunks.push_back(std::move(chunk));
  }
  return shard;
}

void expect_same_overhead(const FlowOverhead& a, const FlowOverhead& b,
                          const std::string& label) {
  EXPECT_EQ(a.has_cost, b.has_cost) << label;
  EXPECT_EQ(a.has_delay, b.has_delay) << label;
  expect_bits(a.padding_bps, b.padding_bps, label + " padding_bps");
  expect_bits(a.wire_bps, b.wire_bps, label + " wire_bps");
  expect_bits(a.dummy_fraction, b.dummy_fraction, label + " dummy_fraction");
  expect_bits(a.delay_p95, b.delay_p95, label + " delay_p95");
}

void expect_same_result_bits(const ExperimentResult& a,
                             const ExperimentResult& b,
                             const std::string& label) {
  expect_bits(a.detection_rate, b.detection_rate, label + " rate");
  expect_bits(a.ci.estimate, b.ci.estimate, label + " ci.estimate");
  expect_bits(a.ci.lo, b.ci.lo, label + " ci.lo");
  expect_bits(a.ci.hi, b.ci.hi, label + " ci.hi");
  expect_bits(a.r_hat, b.r_hat, label + " r_hat");
  ASSERT_EQ(a.predicted.has_value(), b.predicted.has_value()) << label;
  if (a.predicted) expect_bits(*a.predicted, *b.predicted, label + " predicted");
  expect_bits(a.piat_mean_low, b.piat_mean_low, label + " piat_mean_low");
  expect_bits(a.piat_var_high, b.piat_var_high, label + " piat_var_high");
  ASSERT_EQ(a.confusion.num_classes(), b.confusion.num_classes()) << label;
  EXPECT_EQ(a.confusion.total(), b.confusion.total()) << label;
  for (std::size_t t = 0; t < a.confusion.num_classes(); ++t) {
    for (std::size_t p = 0; p < a.confusion.num_classes(); ++p) {
      EXPECT_EQ(a.confusion.count(static_cast<int>(t), static_cast<int>(p)),
                b.confusion.count(static_cast<int>(t), static_cast<int>(p)))
          << label;
    }
  }
  ASSERT_EQ(a.per_feature.size(), b.per_feature.size()) << label;
  for (std::size_t i = 0; i < a.per_feature.size(); ++i) {
    EXPECT_EQ(a.per_feature[i].feature, b.per_feature[i].feature) << label;
    expect_bits(a.per_feature[i].detection_rate,
                b.per_feature[i].detection_rate, label + " feature rate");
  }
  ASSERT_EQ(a.by_sample_size.size(), b.by_sample_size.size()) << label;
  for (std::size_t i = 0; i < a.by_sample_size.size(); ++i) {
    EXPECT_EQ(a.by_sample_size[i].sample_size, b.by_sample_size[i].sample_size);
    EXPECT_EQ(a.by_sample_size[i].train_windows,
              b.by_sample_size[i].train_windows);
    expect_bits(a.by_sample_size[i].r_hat, b.by_sample_size[i].r_hat,
                label + " point r_hat");
  }
  ASSERT_EQ(a.overhead_per_class.size(), b.overhead_per_class.size()) << label;
  for (std::size_t i = 0; i < a.overhead_per_class.size(); ++i) {
    EXPECT_EQ(a.overhead_per_class[i].payload_packets,
              b.overhead_per_class[i].payload_packets)
        << label;
    expect_bits(a.overhead_per_class[i].delay_p99,
                b.overhead_per_class[i].delay_p99, label + " delay_p99");
  }
}

TEST(ShardRoundTrip, TwoHundredRandomAggregatesSurviveBitwise) {
  for (std::uint64_t seed = 0; seed < 200; ++seed) {
    util::Rng rng(9000 + seed);
    const PopulationShard original = random_shard(rng);
    const std::string text = serialize_shard(original);
    const PopulationShard back = parse_shard(text);

    const std::string tag = "seed " + std::to_string(seed);
    EXPECT_EQ(back.version, original.version) << tag;
    EXPECT_EQ(back.shard_index, original.shard_index) << tag;
    EXPECT_EQ(back.shard_count, original.shard_count) << tag;
    EXPECT_EQ(back.flows, original.flows) << tag;
    EXPECT_EQ(back.grain, original.grain) << tag;
    EXPECT_EQ(back.sample_sizes, original.sample_sizes) << tag;
    expect_bits(back.detection_threshold, original.detection_threshold,
                tag + " threshold");
    expect_bits(back.mean_interval, original.mean_interval, tag + " interval");
    EXPECT_EQ(back.seed, original.seed) << tag;
    EXPECT_EQ(back.keep_per_flow, original.keep_per_flow) << tag;

    ASSERT_EQ(back.chunks.size(), original.chunks.size()) << tag;
    for (std::size_t c = 0; c < back.chunks.size(); ++c) {
      const auto& oc = original.chunks[c];
      const auto& bc = back.chunks[c];
      const std::string ctag = tag + " chunk " + std::to_string(c);
      EXPECT_EQ(bc.first_flow, oc.first_flow) << ctag;
      ASSERT_EQ(bc.rates.size(), oc.rates.size()) << ctag;
      for (std::size_t i = 0; i < oc.rates.size(); ++i) {
        ASSERT_EQ(bc.rates[i].size(), oc.rates[i].size()) << ctag;
        for (std::size_t j = 0; j < oc.rates[i].size(); ++j) {
          expect_bits(bc.rates[i][j], oc.rates[i][j], ctag + " rate");
        }
      }
      ASSERT_EQ(bc.overhead.size(), oc.overhead.size()) << ctag;
      for (std::size_t i = 0; i < oc.overhead.size(); ++i) {
        expect_same_overhead(bc.overhead[i], oc.overhead[i], ctag);
      }
      ASSERT_EQ(bc.per_flow.size(), oc.per_flow.size()) << ctag;
      for (std::size_t i = 0; i < oc.per_flow.size(); ++i) {
        expect_same_result_bits(bc.per_flow[i], oc.per_flow[i], ctag);
      }
    }

    // Canonical bytes: parse∘serialize is the identity on the TEXT too.
    EXPECT_EQ(serialize_shard(back), text) << tag;
  }
}

// --------------------------------------------------- stats state round trip

TEST(StatsStateJson, QuantileSketchRoundTripsIncludingEmpty) {
  {
    const stats::P2Quantile empty(0.5);
    const auto state = parse_quantile_state(serialize_quantile_state(empty.state()));
    EXPECT_EQ(state.count, 0u);
    stats::P2Quantile a = stats::P2Quantile::from_state(state);
    stats::P2Quantile b(0.5);
    for (int i = 0; i < 9; ++i) {
      a.add(0.1 * i);
      b.add(0.1 * i);
    }
    expect_bits(a.value(), b.value(), "empty sketch continuation");
  }
  util::Rng rng(1234);
  for (int trial = 0; trial < 20; ++trial) {
    stats::P2Quantile original(0.95);
    const int samples = trial * 3;  // crosses the exact<=5 regime
    for (int i = 0; i < samples; ++i) original.add(rng.uniform(0.0, 1.0));
    const auto state =
        parse_quantile_state(serialize_quantile_state(original.state()));
    stats::P2Quantile restored = stats::P2Quantile::from_state(state);
    for (int i = 0; i < 30; ++i) {
      const double x = rng.uniform(0.0, 1.0);
      original.add(x);
      restored.add(x);
    }
    expect_bits(original.value(), restored.value(),
                "trial " + std::to_string(trial));
  }
}

TEST(StatsStateJson, RunningStatsRoundTripsInfinityFoldIdentities) {
  // The ±inf extremes a fold identity uses must survive the text format.
  stats::RunningStats::State state;
  state.count = 0;
  state.min = std::numeric_limits<double>::infinity();
  state.max = -std::numeric_limits<double>::infinity();
  const auto back = parse_running_stats(serialize_running_stats(state));
  expect_bits(back.min, state.min, "min identity");
  expect_bits(back.max, state.max, "max identity");

  util::Rng rng(4321);
  stats::RunningStats original;
  for (int i = 0; i < 17; ++i) original.add(rng.uniform(-3.0, 3.0));
  const auto restored = stats::RunningStats::from_state(
      parse_running_stats(serialize_running_stats(original.state())));
  EXPECT_EQ(restored.count(), original.count());
  expect_bits(restored.mean(), original.mean(), "mean");
  expect_bits(restored.variance(), original.variance(), "variance");
  expect_bits(restored.min(), original.min(), "min");
  expect_bits(restored.max(), original.max(), "max");
}

TEST(StatsStateJson, HistogramsRoundTripExactly) {
  util::Rng rng(5);
  stats::Histogram dense(-1.0, 2.0, 12);
  for (int i = 0; i < 400; ++i) dense.add(rng.uniform(-2.0, 3.0));
  const stats::Histogram dense_back =
      parse_histogram(serialize_histogram(dense));
  EXPECT_EQ(dense_back.counts(), dense.counts());
  EXPECT_EQ(dense_back.underflow(), dense.underflow());
  EXPECT_EQ(dense_back.overflow(), dense.overflow());
  EXPECT_EQ(dense_back.total(), dense.total());
  expect_bits(dense_back.lo(), dense.lo(), "lo");
  expect_bits(dense_back.hi(), dense.hi(), "hi");

  stats::SparseHistogram sparse(0.125);
  for (int i = 0; i < 300; ++i) sparse.add(rng.uniform(-20.0, 20.0));
  ASSERT_LT(sparse.cells().begin()->first, 0);  // negative bins exercised
  const stats::SparseHistogram sparse_back =
      parse_sparse_histogram(serialize_sparse_histogram(sparse));
  EXPECT_EQ(sparse_back.cells(), sparse.cells());
  EXPECT_EQ(sparse_back.total(), sparse.total());
  expect_bits(sparse_back.bin_width(), sparse.bin_width(), "bin_width");
}

// ------------------------------------------------- N-shard bit-identity

/// Cheap per-flow experiment (the bench workload): the wall measures the
/// SHARD machinery, not classifier arithmetic.
PopulationSpec shard_spec(std::size_t flows, std::uint64_t seed = 20030324) {
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

void expect_same_population(const PopulationResult& a, const PopulationResult& b,
                            const std::string& label) {
  // The JSON rendering covers every aggregate bit (hex doubles) plus the
  // per-flow primary rates; byte equality IS the bit-identity check.
  EXPECT_EQ(population_result_json(a), population_result_json(b)) << label;
  ASSERT_EQ(a.per_flow.size(), b.per_flow.size()) << label;
  for (std::size_t f = 0; f < a.per_flow.size(); ++f) {
    expect_same_result_bits(a.per_flow[f], b.per_flow[f],
                            label + " flow " + std::to_string(f));
  }
}

std::vector<PopulationShard> run_all_shards(const PopulationSpec& spec,
                                            std::size_t shard_count,
                                            std::size_t grain,
                                            std::size_t threads) {
  std::vector<PopulationShard> shards;
  for (std::size_t i = 0; i < shard_count; ++i) {
    SweepOptions options;
    options.threads = threads;
    options.grain = grain;
    options.shard_index = i;
    options.shard_count = shard_count;
    shards.push_back(run_population_shard(spec, sim_backend(), options));
  }
  return shards;
}

TEST(ShardMerge, BitIdenticalToSingleProcessAcrossShardAndFlowCounts) {
  for (const std::size_t flows : {std::size_t{1}, std::size_t{2},
                                  std::size_t{33}}) {
    const auto spec = shard_spec(flows);
    SweepOptions reference_options;
    reference_options.threads = 1;
    const auto reference =
        PopulationEngine(sim_backend(), reference_options).run(spec);

    for (const std::size_t shard_count :
         {std::size_t{1}, std::size_t{2}, std::size_t{3}, std::size_t{8}}) {
      for (const std::size_t grain : {std::size_t{0}, std::size_t{1},
                                      std::size_t{5}}) {
        // The file round trip is part of the wall: serialize + parse every
        // shard before merging, exactly what separate processes would do.
        auto shards = run_all_shards(spec, shard_count, grain, 2);
        std::vector<PopulationShard> parsed;
        for (const auto& shard : shards) {
          parsed.push_back(parse_shard(serialize_shard(shard)));
        }
        const auto merged = merge_shards(std::move(parsed));
        expect_same_population(reference, merged,
                               "flows " + std::to_string(flows) + " shards " +
                                   std::to_string(shard_count) + " grain " +
                                   std::to_string(grain));
      }
    }
  }
}

TEST(ShardMerge, ThousandFlowWallAtEightShards) {
  // The large rung of the wall: M = 1000 split 8 ways (aggregate-only, so
  // the test exercises the keep_per_flow = false serialization path too).
  auto spec = shard_spec(1000);
  spec.keep_per_flow = false;
  SweepOptions reference_options;
  reference_options.threads = 0;  // shared pool, whatever width
  const auto reference =
      PopulationEngine(sim_backend(), reference_options).run(spec);

  auto shards = run_all_shards(spec, 8, 0, 0);
  std::vector<PopulationShard> parsed;
  for (const auto& shard : shards) {
    parsed.push_back(parse_shard(serialize_shard(shard)));
  }
  const auto merged = merge_shards(std::move(parsed));
  expect_same_population(reference, merged, "1000x8");
  EXPECT_EQ(merged.flow_count, 1000u);
  EXPECT_TRUE(merged.per_flow.empty());
}

// ------------------------------------------------------ durability / resume

TEST(ShardResume, TruncatedCheckpointConvergesToUninterruptedBytes) {
  const std::string path = testing::TempDir() + "linkpad_resume_test.shard";
  const auto spec = shard_spec(10, 31);

  SweepOptions options;
  options.threads = 1;
  options.grain = 1;  // 10 chunks -> shard 0/2 owns 5
  options.shard_index = 0;
  options.shard_count = 2;
  ShardRunOptions durability;
  durability.checkpoint_path = path;

  (void)run_population_shard(spec, sim_backend(), options, durability);
  std::string uninterrupted;
  {
    std::ifstream in(path, std::ios::binary);
    std::ostringstream buf;
    buf << in.rdbuf();
    uninterrupted = buf.str();
  }
  ASSERT_FALSE(uninterrupted.empty());

  // Kill mid-append: keep the header and a torn prefix that ends inside a
  // chunk line (no trailing newline), as a SIGKILL during a write would.
  const std::size_t cut = uninterrupted.size() * 3 / 5;
  ASSERT_NE(uninterrupted[cut], '\n');
  {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(uninterrupted.data(), static_cast<std::streamsize>(cut));
  }

  // The torn file still parses (tolerated tail) with FEWER chunks...
  const PopulationShard torn = read_shard_file(path, /*tolerate_partial_tail=*/true);
  EXPECT_LT(torn.chunks.size(), 5u);
  // ...and strict parsing refuses it.
  EXPECT_THROW((void)read_shard_file(path), std::invalid_argument);

  // Resume recomputes only what is missing and converges exactly.
  durability.resume = true;
  const PopulationShard resumed =
      run_population_shard(spec, sim_backend(), options, durability);
  EXPECT_EQ(resumed.chunks.size(), 5u);
  std::string after;
  {
    std::ifstream in(path, std::ios::binary);
    std::ostringstream buf;
    buf << in.rdbuf();
    after = buf.str();
  }
  EXPECT_EQ(after, uninterrupted);
  EXPECT_EQ(serialize_shard(resumed), uninterrupted);
  std::remove(path.c_str());
}

TEST(ShardResume, CheckpointRefusesForeignCampaign) {
  const std::string path = testing::TempDir() + "linkpad_foreign_test.shard";
  SweepOptions options;
  options.threads = 1;
  options.shard_index = 0;
  options.shard_count = 2;
  ShardRunOptions durability;
  durability.checkpoint_path = path;
  (void)run_population_shard(shard_spec(6, 1), sim_backend(), options, durability);

  durability.resume = true;
  EXPECT_THROW((void)run_population_shard(shard_spec(6, 2), sim_backend(),
                                          options, durability),
               std::invalid_argument);
  std::remove(path.c_str());
}

// ------------------------------------------------------- loud merge errors

TEST(ShardMerge, MissingShardIsALoudError) {
  const auto spec = shard_spec(9, 5);
  auto shards = run_all_shards(spec, 3, 1, 1);
  shards.erase(shards.begin() + 1);
  try {
    (void)merge_shards(std::move(shards));
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& err) {
    EXPECT_NE(std::string(err.what()).find("missing or incomplete"),
              std::string::npos)
        << err.what();
  }
}

TEST(ShardMerge, ForeignCampaignIsALoudError) {
  auto a = run_all_shards(shard_spec(4, 1), 2, 1, 1);
  auto b = run_all_shards(shard_spec(4, 2), 2, 1, 1);
  std::vector<PopulationShard> mixed;
  mixed.push_back(std::move(a[0]));
  mixed.push_back(std::move(b[1]));
  EXPECT_THROW((void)merge_shards(std::move(mixed)), std::invalid_argument);
}

TEST(ShardParse, FormatVersionDriftIsALoudError) {
  const auto shards = run_all_shards(shard_spec(4, 3), 1, 1, 1);
  std::string text = serialize_shard(shards[0]);
  const std::string current =
      "{\"linkpad_shard\":" + std::to_string(kShardFormatVersion);
  ASSERT_EQ(text.rfind(current, 0), 0u);
  text.replace(0, current.size(),
               "{\"linkpad_shard\":" +
                   std::to_string(kShardFormatVersion + 1));
  try {
    (void)parse_shard(text);
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& err) {
    EXPECT_NE(std::string(err.what()).find("version"), std::string::npos)
        << err.what();
  }
}

TEST(ShardParse, DeeplyNestedInputIsALoudErrorNotAStackOverflow) {
  // 100k nested brackets would recurse 100k frames deep in an uncapped
  // recursive-descent parser. The depth cap must turn them into the named
  // error, as a header line and as a chunk line after a valid header.
  const std::string arrays(100000, '[');
  std::string objects;
  for (int i = 0; i < 100000; ++i) objects += "{\"a\":";
  const auto shards = run_all_shards(shard_spec(4, 3), 1, 1, 1);
  const std::string text = serialize_shard(shards[0]);
  const std::string header = text.substr(0, text.find('\n') + 1);
  for (const std::string& bad :
       {arrays, objects, header + arrays + "\n", header + objects + "\n"}) {
    try {
      (void)parse_shard(bad);
      FAIL() << "expected std::invalid_argument";
    } catch (const std::invalid_argument& err) {
      EXPECT_NE(std::string(err.what()).find("nesting deeper than"),
                std::string::npos)
          << err.what();
    }
  }
  // Nesting within the cap parses; the array then fails the schema instead.
  try {
    (void)parse_shard(std::string(64, '[') + std::string(64, ']'));
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& err) {
    EXPECT_EQ(std::string(err.what()).find("nesting"), std::string::npos)
        << err.what();
  }
}

TEST(ShardCheckpoint, BytesIndependentOfThreadCount) {
  // The checkpoint file is a pure function of (spec, shard coordinates):
  // thread count must not leak into the bytes.
  const auto spec = shard_spec(12, 9);
  std::vector<std::string> texts;
  for (const std::size_t threads : {std::size_t{1}, std::size_t{3}}) {
    SweepOptions options;
    options.threads = threads;
    options.grain = 2;
    options.shard_index = 1;
    options.shard_count = 2;
    texts.push_back(
        serialize_shard(run_population_shard(spec, sim_backend(), options)));
  }
  EXPECT_EQ(texts[0], texts[1]);
}

}  // namespace
}  // namespace linkpad::core
