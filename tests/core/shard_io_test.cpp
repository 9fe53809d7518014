// The shard serialization + merge wall (DESIGN.md §2.10):
//
//  1. Exact round-trip — serialize/parse of every aggregate is BITWISE
//     lossless: 200 seeded-random shards (full ExperimentResults, CPD rows
//     and outcomes, confusion counts, optionals, ±inf/−0/NaN-payload
//     doubles) survive a text round trip with every bit intact, and
//     re-serialization is byte-identical (the format is canonical).
//  2. N-shard bit-identity — shards {1, 2, 3, 8} × flows {1, 2, 33, 1000}
//     × grains: run_population_shard per shard, merge_shards once, and the
//     result (including the order-sensitive P² finalize) equals the
//     1-process PopulationEngine::run byte for byte at any thread count.
//  3. Durability — a worker killed mid-chunk leaves a torn tail; parse
//     tolerates it, resume recomputes only the missing chunks, and the
//     resumed shard file converges to the uninterrupted bytes exactly.
//  4. Self-checking merges — missing chunks, foreign campaigns, chunks that
//     disagree on the change-point layout, values finalize cannot fold and
//     format version drift are loud errors, never quietly wrong numbers.
//  5. Pinned bytes — a golden shard literal and the digest of the seeded
//     corpus fail on any renamed or reordered key.
//  6. Hostile input — crafted fields and 10,000 seeded mutations of real
//     shard text parse or throw std::invalid_argument, nothing else; what
//     parses also merges and renders as result JSON, or throws the same.
#include "core/shard_io.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <fstream>
#include <iterator>
#include <limits>
#include <sstream>
#include <stdexcept>
#include <string>
#include <string_view>
#include <tuple>
#include <utility>
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
  if (roll < 0.03) {
    // A NaN with a random sign and payload: only the bits may cross.
    const std::uint64_t payload = rng() & 0x8007ffffffffffffULL;
    return std::bit_cast<double>(0x7ff8000000000000ULL | payload);
  }
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

classify::CpdOutcome random_cpd_outcome(util::Rng& rng) {
  classify::CpdOutcome c;
  c.kind = rng.uniform01() < 0.5 ? classify::CpdKind::kCusum
                                 : classify::CpdKind::kAdaptiveEwma;
  c.threshold = random_double(rng);
  c.ttd.detected = rng.uniform01() < 0.5;
  c.ttd.n_at_detection = static_cast<std::size_t>(rng.uniform(0.0, 1e5));
  c.ttd.false_alarms = static_cast<std::size_t>(rng.uniform(0.0, 20.0));
  return c;
}

std::vector<classify::CpdOutcome> random_cpd_outcomes(util::Rng& rng) {
  std::vector<classify::CpdOutcome> out(
      static_cast<std::size_t>(rng.uniform(0.0, 2.999)));
  for (auto& c : out) c = random_cpd_outcome(rng);
  return out;
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

DetectorOutcome random_detector_outcome(util::Rng& rng) {
  DetectorOutcome d;
  // Names a JSON writer must escape ride along with the real ones.
  const char* names[] = {"cusum", "EDF nearest (KS)", "say \"hi\"\\\n\t"};
  d.name = names[static_cast<std::size_t>(rng.uniform(0.0, 2.999))];
  d.attack_score = random_double(rng);
  d.confusion = random_confusion(rng);
  if (rng.uniform01() < 0.5) d.cpd = random_cpd_outcome(rng);
  return d;
}

ExperimentResult random_experiment_result(util::Rng& rng,
                                          std::size_t axis_points) {
  ExperimentResult r;
  r.piat_mean_low = random_double(rng);
  r.piat_mean_high = random_double(rng);
  r.piat_var_low = random_double(rng);
  r.piat_var_high = random_double(rng);
  const std::size_t features = 1 + static_cast<std::size_t>(rng.uniform01() * 2);
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
  r.detectors.resize(static_cast<std::size_t>(rng.uniform(0.0, 2.999)));
  for (auto& d : r.detectors) d = random_detector_outcome(rng);
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

/// A detection rate or dummy fraction: parse refuses anything outside
/// [0, 1], so the edges of that range (−0 included) are the values worth
/// seasoning with.
double random_fraction(util::Rng& rng) {
  const double roll = rng.uniform01();
  if (roll < 0.05) return 0.0;
  if (roll < 0.10) return 1.0;
  if (roll < 0.14) return -0.0;
  if (roll < 0.18) return std::numeric_limits<double>::denorm_min();
  return rng.uniform01();
}

/// A flow's bandwidth or delay: parse refuses anything but a finite value
/// >= 0, so zero (−0 included) and the smallest magnitudes are the edges
/// worth seasoning with.
double random_cost(util::Rng& rng) {
  const double roll = rng.uniform01();
  if (roll < 0.05) return 0.0;
  if (roll < 0.09) return -0.0;
  if (roll < 0.13) return std::numeric_limits<double>::denorm_min();
  if (roll < 0.17) return rng.uniform01() * 1e-300;
  return rng.uniform(0.0, 1e6);
}

FlowOverhead random_flow_overhead(util::Rng& rng) {
  FlowOverhead o;
  o.has_cost = rng.uniform01() < 0.8;
  o.padding_bps = random_cost(rng);
  o.wire_bps = random_cost(rng);
  o.dummy_fraction = random_fraction(rng);
  o.has_delay = rng.uniform01() < 0.8;
  o.delay_p95 = random_cost(rng);
  return o;
}

FlowCpd random_flow_cpd(util::Rng& rng) {
  FlowCpd c;
  c.detected = rng.uniform01() < 0.5;
  c.n_at_detection = static_cast<std::size_t>(rng.uniform(0.0, 1e5));
  c.false_alarms = static_cast<std::size_t>(rng.uniform(0.0, 20.0));
  // A threshold is a cost that may also be +inf: a detector that never
  // alarms.
  c.threshold = rng.uniform01() < 0.05
                    ? std::numeric_limits<double>::infinity()
                    : random_cost(rng);
  return c;
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
  std::vector<classify::CpdKind> cpd_kinds;
  for (const auto& c : random_cpd_outcomes(rng)) cpd_kinds.push_back(c.kind);

  for (const std::size_t id : shard.owned_chunk_ids()) {
    ChunkAggregate chunk;
    chunk.first_flow = id * shard.grain;
    const std::size_t count =
        std::min(shard.executed_flows(), chunk.first_flow + shard.grain) -
        chunk.first_flow;
    chunk.rates.resize(axis_points);
    for (auto& row : chunk.rates) {
      for (std::size_t f = 0; f < count; ++f) row.push_back(random_fraction(rng));
    }
    chunk.cpd_kinds = cpd_kinds;
    chunk.cpd.resize(cpd_kinds.size());
    for (auto& row : chunk.cpd) {
      for (std::size_t f = 0; f < count; ++f) {
        row.push_back(random_flow_cpd(rng));
      }
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

void expect_same_confusion(const classify::ConfusionMatrix& a,
                           const classify::ConfusionMatrix& b,
                           const std::string& label) {
  ASSERT_EQ(a.num_classes(), b.num_classes()) << label;
  for (std::size_t t = 0; t < a.num_classes(); ++t) {
    for (std::size_t p = 0; p < a.num_classes(); ++p) {
      EXPECT_EQ(a.count(static_cast<int>(t), static_cast<int>(p)),
                b.count(static_cast<int>(t), static_cast<int>(p)))
          << label;
    }
  }
}

void expect_same_result_bits(const ExperimentResult& a,
                             const ExperimentResult& b,
                             const std::string& label) {
  expect_bits(a.piat_mean_low, b.piat_mean_low, label + " piat_mean_low");
  expect_bits(a.piat_var_high, b.piat_var_high, label + " piat_var_high");
  ASSERT_EQ(a.by_sample_size.size(), b.by_sample_size.size()) << label;
  for (std::size_t i = 0; i < a.by_sample_size.size(); ++i) {
    const SampleSizePoint& pa = a.by_sample_size[i];
    const SampleSizePoint& pb = b.by_sample_size[i];
    EXPECT_EQ(pa.sample_size, pb.sample_size) << label;
    EXPECT_EQ(pa.train_windows, pb.train_windows) << label;
    expect_bits(pa.r_hat, pb.r_hat, label + " point r_hat");
    ASSERT_EQ(pa.per_feature.size(), pb.per_feature.size()) << label;
    for (std::size_t f = 0; f < pa.per_feature.size(); ++f) {
      const FeatureOutcome& fa = pa.per_feature[f];
      const FeatureOutcome& fb = pb.per_feature[f];
      EXPECT_EQ(fa.feature, fb.feature) << label;
      expect_bits(fa.detection_rate, fb.detection_rate, label + " rate");
      expect_bits(fa.ci.lo, fb.ci.lo, label + " ci.lo");
      expect_same_confusion(fa.confusion, fb.confusion, label);
      ASSERT_EQ(fa.predicted.has_value(), fb.predicted.has_value()) << label;
      if (fa.predicted) {
        expect_bits(*fa.predicted, *fb.predicted, label + " predicted");
      }
    }
  }
  ASSERT_EQ(a.detectors.size(), b.detectors.size()) << label;
  for (std::size_t j = 0; j < a.detectors.size(); ++j) {
    const DetectorOutcome& da = a.detectors[j];
    const DetectorOutcome& db = b.detectors[j];
    EXPECT_EQ(da.name, db.name) << label;
    expect_bits(da.attack_score, db.attack_score, label + " score");
    expect_same_confusion(da.confusion, db.confusion, label);
    ASSERT_EQ(da.cpd.has_value(), db.cpd.has_value()) << label;
    if (da.cpd) {
      EXPECT_EQ(da.cpd->kind, db.cpd->kind) << label;
      expect_bits(da.cpd->threshold, db.cpd->threshold, label + " threshold");
      EXPECT_EQ(da.cpd->ttd.n_at_detection, db.cpd->ttd.n_at_detection)
          << label;
    }
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
      EXPECT_EQ(bc.cpd_kinds, oc.cpd_kinds) << ctag;
      ASSERT_EQ(bc.cpd.size(), oc.cpd.size()) << ctag;
      for (std::size_t i = 0; i < oc.cpd.size(); ++i) {
        ASSERT_EQ(bc.cpd[i].size(), oc.cpd[i].size()) << ctag;
        for (std::size_t j = 0; j < oc.cpd[i].size(); ++j) {
          EXPECT_EQ(bc.cpd[i][j].detected, oc.cpd[i][j].detected) << ctag;
          EXPECT_EQ(bc.cpd[i][j].n_at_detection, oc.cpd[i][j].n_at_detection)
              << ctag;
          EXPECT_EQ(bc.cpd[i][j].false_alarms, oc.cpd[i][j].false_alarms)
              << ctag;
          expect_bits(bc.cpd[i][j].threshold, oc.cpd[i][j].threshold,
                      ctag + " cpd threshold");
        }
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

// ------------------------------------------------------------ pinned bytes
//
// The round trip above checks serialize and parse against each other, so
// a rename or reorder of a key would pass it. These two tests pin the
// bytes themselves: any change to them is a format change and needs a
// kShardFormatVersion bump.

// A header and one keep_per_flow chunk with CPD rows, a null and a set
// `predicted`, ±inf and −0, as format version 4 writes them.
const std::string kGoldenShard =
    R"({"linkpad_shard":4,"shard_index":1,"shard_count":2,"flows":4,"grain":1,)"
    R"("sample_flows":0,"sample_round":0,"sample_sizes":[20,40],"detection_thr)"
    R"(eshold":"3fe8000000000000","mean_interval":"3f847ae147ae147b","seed":20)"
    R"(030324,"keep_per_flow":true})"
    "\n"
    R"({"chunk":1,"first_flow":1,"rates":[["3fe0000000000000"],["3fee000000000)"
    R"(000"]],"overhead":[{"has_cost":true,"padding_bps":"41024f8000000000","w)"
    R"(ire_bps":"41286a0000000000","dummy_fraction":"8000000000000000","has_de)"
    R"(lay":false,"delay_p95":"0000000000000000"}],"cpd_kinds":[0,1],"cpd":[[{)"
    R"("detected":true,"n_at_detection":137,"false_alarms":2,"threshold":"4011)"
    R"(000000000000"}],[{"detected":false,"n_at_detection":0,"false_alarms":0,)"
    R"("threshold":"7ff0000000000000"}]],"per_flow":[{"piat":["3f847ae147ae147)"
    R"(b","3f847ae147ae147b","3e112e0be826d695","3e312e0be826d695"],"by_sample)"
    R"(_size":[{"n":20,"train":6,"test":6,"r_hat":"fff0000000000000","per_feat)"
    R"(ure":[{"feature":2,"rate":"3fe0000000000000","ci":{"estimate":"3fe00000)"
    R"(00000000","lo":"3fd0000000000000","hi":"3fe8000000000000"},"confusion":)"
    R"({"classes":2,"counts":[3,3,3,3]},"predicted":"3fe4000000000000"}]},{"n")"
    R"(:40,"train":3,"test":2,"r_hat":"7ff0000000000000","per_feature":[{"feat)"
    R"(ure":2,"rate":"3fee000000000000","ci":{"estimate":"3fee000000000000","l)"
    R"(o":"8000000000000000","hi":"3ff0000000000000"},"confusion":{"classes":2)"
    R"(,"counts":[7,1,0,8]},"predicted":null}]}],"detectors":[{"name":"cusum",)"
    R"("score":"3ff0000000000000","confusion":{"classes":2,"counts":[0,0,0,0]})"
    R"(,"cpd":{"kind":0,"threshold":"4011000000000000","detected":true,"n_at_d)"
    R"(etection":137,"false_alarms":2}},{"name":"adaptive-ewma","score":"3fe00)"
    R"(00000000000","confusion":{"classes":2,"counts":[0,0,0,0]},"cpd":{"kind")"
    R"(:1,"threshold":"7ff0000000000000","detected":false,"n_at_detection":0,")"
    R"(false_alarms":0}}],"overhead_per_class":[{"payload":1000,"dummy":250,"s)"
    R"(uppressed":3,"wire_bps":"41286a0000000000","padding_bps":"41024f8000000)"
    R"(000","dummy_fraction":"3fc999999999999a","delay_mean":"3f50624dd2f1a9fc)"
    R"(","delay_p50":"3f40624dd2f1a9fc","delay_p95":"8000000000000000","delay_)"
    R"(p99":"7ff0000000000000"}]}]})"
    "\n";

// The same campaign header as format version 3 wrote it, with
// ExperimentResult's copies of its top point and a `cpd` array on every
// SampleSizePoint.
const std::string kGoldenShardV3 =
    R"({"linkpad_shard":3,"shard_index":1,"shard_count":2,"flows":4,"grain":1,)"
    R"("sample_flows":0,"sample_round":0,"sample_sizes":[20,40],"detection_thr)"
    R"(eshold":"3fe8000000000000","mean_interval":"3f847ae147ae147b","seed":20)"
    R"(030324,"keep_per_flow":true})"
    "\n"
    R"({"chunk":1,"first_flow":1,"rates":[["3fe0000000000000"],["7ff0000000000)"
    R"(000"]],"overhead":[{"has_cost":true,"padding_bps":"41024f8000000000","w)"
    R"(ire_bps":"41286a0000000000","dummy_fraction":"8000000000000000","has_de)"
    R"(lay":false,"delay_p95":"0000000000000000"}],"cpd_kinds":[0,1],"cpd":[[{)"
    R"("detected":true,"n_at_detection":137,"false_alarms":2,"threshold":"4011)"
    R"(000000000000"}],[{"detected":false,"n_at_detection":0,"false_alarms":0,)"
    R"("threshold":"7ff0000000000000"}]],"per_flow":[{"rate":"3fee000000000000)"
    R"(","ci":{"estimate":"3fee000000000000","lo":"8000000000000000","hi":"3ff)"
    R"(0000000000000"},"confusion":{"classes":2,"counts":[7,1,0,8]},"r_hat":"f)"
    R"(ff0000000000000","predicted":null,"piat":["3f847ae147ae147b","3f847ae14)"
    R"(7ae147b","3e112e0be826d695","3e312e0be826d695"],"per_feature":[{"featur)"
    R"(e":2,"rate":"3fe0000000000000","ci":{"estimate":"3fe0000000000000","lo")"
    R"(:"3fd0000000000000","hi":"3fe8000000000000"},"confusion":{"classes":2,")"
    R"(counts":[0,0,0,0]},"predicted":"3fe4000000000000"}],"cpd":[{"kind":0,"t)"
    R"(hreshold":"4011000000000000","detected":true,"n_at_detection":137,"fals)"
    R"(e_alarms":2}],"by_sample_size":[{"n":40,"train":3,"test":2,"r_hat":"7ff)"
    R"(0000000000000","per_feature":[{"feature":2,"rate":"3fe0000000000000","c)"
    R"(i":{"estimate":"3fe0000000000000","lo":"3fd0000000000000","hi":"3fe8000)"
    R"(000000000"},"confusion":{"classes":2,"counts":[0,0,0,0]},"predicted":"3)"
    R"(fe4000000000000"}],"cpd":[{"kind":0,"threshold":"4011000000000000","det)"
    R"(ected":true,"n_at_detection":137,"false_alarms":2}]}],"overhead_per_cla)"
    R"(ss":[{"payload":1000,"dummy":250,"suppressed":3,"wire_bps":"41286a00000)"
    R"(00000","padding_bps":"41024f8000000000","dummy_fraction":"3fc9999999999)"
    R"(99a","delay_mean":"3f50624dd2f1a9fc","delay_p50":"3f40624dd2f1a9fc","de)"
    R"(lay_p95":"8000000000000000","delay_p99":"7ff0000000000000"}]}]})"
    "\n";

TEST(ShardBytes, GoldenShardIsAFixedPoint) {
  const PopulationShard shard = parse_shard(kGoldenShard);
  ASSERT_EQ(shard.chunks.size(), 1u);
  ASSERT_EQ(shard.chunks[0].per_flow.size(), 1u);
  EXPECT_FALSE(shard.chunks[0].per_flow[0].primary().predicted.has_value());
  ASSERT_EQ(shard.chunks[0].per_flow[0].detectors.size(), 2u);
  EXPECT_EQ(serialize_shard(shard), kGoldenShard);
}

TEST(ShardBytes, VersionThreeGoldenIsRefusedByVersion) {
  try {
    (void)parse_shard(kGoldenShardV3);
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& err) {
    EXPECT_NE(std::string(err.what()).find("shard format version 3 "),
              std::string::npos)
        << err.what();
  }
}

std::uint64_t fnv1a(std::string_view text) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const char c : text) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ULL;
  }
  return h;
}

TEST(ShardBytes, SeededCorpusDigestIsPinned) {
  std::string corpus;
  for (std::uint64_t seed = 0; seed < 200; ++seed) {
    util::Rng rng(9000 + seed);
    corpus += serialize_shard(random_shard(rng));
  }
  EXPECT_EQ(corpus.size(), 840332u);
  EXPECT_EQ(fnv1a(corpus), 0x45c4000d699a4b4fULL);
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

TEST(ShardMerge, MismatchedCpdLayoutIsALoudError) {
  // The header does not carry the change-point layout, so chunks that
  // disagree on it parse — from two files of one campaign, or within one
  // crafted file — and the merge must refuse them by name before the
  // reduction concatenates CPD rows by position.
  const auto spec = shard_spec(4, 7);
  const auto add_cusum_row = [](ChunkAggregate& chunk) {
    chunk.cpd_kinds.push_back(classify::CpdKind::kCusum);
    chunk.cpd.emplace_back(chunk.flow_count(), FlowCpd{});
  };
  auto two_files = run_all_shards(spec, 2, 1, 1);
  for (auto& chunk : two_files[1].chunks) add_cusum_row(chunk);
  auto one_file = run_all_shards(spec, 1, 1, 1);
  add_cusum_row(one_file[0].chunks[2]);

  for (const auto& shards : {two_files, one_file}) {
    std::vector<PopulationShard> parsed;
    for (const auto& shard : shards) {
      parsed.push_back(parse_shard(serialize_shard(shard)));
    }
    try {
      (void)merge_shards(std::move(parsed));
      FAIL() << "expected std::invalid_argument";
    } catch (const std::invalid_argument& err) {
      EXPECT_NE(std::string(err.what()).find("cpd_kinds"), std::string::npos)
          << err.what();
    }
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
  // A version-1 header also lacks keys this version reads; the error must
  // still name the version, not the first missing key.
  std::string v1 = kGoldenShard;
  const std::string sampled = R"("sample_flows":0,"sample_round":0,)";
  v1.erase(v1.find(sampled), sampled.size());
  v1.replace(0, current.size(), "{\"linkpad_shard\":1");
  for (const std::string& drifted : {text, v1}) {
    try {
      (void)parse_shard(drifted);
      FAIL() << "expected std::invalid_argument";
    } catch (const std::invalid_argument& err) {
      EXPECT_NE(std::string(err.what()).find("version"), std::string::npos)
          << err.what();
    }
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

TEST(ShardParse, CraftedConfusionMatricesAreNamedErrors) {
  // Each replaces the first confusion matrix of a real shard. 0 and 1
  // class are not a matrix; 2^32 and 2^63 + 2 square to 0 and 4 in 64-bit
  // arithmetic, so a size check on classes * classes would pass them.
  const std::string original =
      R"("confusion":{"classes":2,"counts":[7,1,0,8]})";
  const std::size_t at = kGoldenShard.find(original);
  ASSERT_NE(at, std::string::npos);
  for (const std::string crafted : {
           R"("confusion":{"classes":0,"counts":[]})",
           R"("confusion":{"classes":1,"counts":[]})",
           R"("confusion":{"classes":4294967296,"counts":[]})",
           R"("confusion":{"classes":9223372036854775810,"counts":[1,2,3,4]})",
       }) {
    std::string text = kGoldenShard;
    text.replace(at, original.size(), crafted);
    EXPECT_THROW((void)parse_shard(text), std::invalid_argument) << crafted;
    // The matrix sits on the last line, so a tolerant parse drops it.
    EXPECT_TRUE(
        parse_shard(text, /*tolerate_partial_tail=*/true).chunks.empty())
        << crafted;
  }
}

TEST(ShardParse, OutOfRangeEnumsAreNamedErrors) {
  // Enum values are range-checked before the cast: 2^32 + 1 would narrow
  // to a valid CpdKind in a 32-bit underlying type.
  for (const auto& [original, crafted] :
       std::vector<std::pair<std::string, std::string>>{
           {R"("feature":2)", R"("feature":5)"},
           {R"("kind":0)", R"("kind":2)"},
           {R"("cpd_kinds":[0,1])", R"("cpd_kinds":[0,4294967297])"},
       }) {
    std::string text = kGoldenShard;
    const std::size_t at = text.find(original);
    ASSERT_NE(at, std::string::npos) << original;
    text.replace(at, original.size(), crafted);
    EXPECT_THROW((void)parse_shard(text), std::invalid_argument) << crafted;
  }
}

TEST(ShardParse, ValuesFinalizeCannotFoldAreNamedErrors) {
  // Each craft keeps the golden's layout but carries a value the merge's
  // finalize or population_result_json cannot use: a rate or a dummy
  // fraction outside [0, 1] (NaN included), a kept result off the header's
  // sample-size axis, or a point with no per-feature outcome to read the
  // primary rate from.
  const std::string rates = R"("rates":[["3fe0000000000000"])";
  const std::string n20 = R"("by_sample_size":[{"n":20,)";
  const std::string n20_features =
      R"("per_feature":[{"feature":2,"rate":"3fe0000000000000","ci":{"estim)"
      R"(ate":"3fe0000000000000","lo":"3fd0000000000000","hi":"3fe8000000000)"
      R"(000"},"confusion":{"classes":2,"counts":[3,3,3,3]},"predicted":"3fe4)"
      R"(000000000000"}])";
  const std::size_t axis_begin = kGoldenShard.find(n20);
  const std::size_t axis_end = kGoldenShard.find(R"(,"detectors")");
  ASSERT_NE(axis_begin, std::string::npos);
  ASSERT_NE(axis_end, std::string::npos);
  const std::string axis =
      kGoldenShard.substr(axis_begin, axis_end - axis_begin);
  const std::string n40_only =
      R"("by_sample_size":[)" + axis.substr(axis.find(R"({"n":40,)"));

  for (const auto& [original, crafted, named] :
       std::vector<std::tuple<std::string, std::string, std::string>>{
           {rates, R"("rates":[["7ff8000000000000"])", "outside [0, 1]"},
           {rates, R"("rates":[["fff8000000000001"])", "outside [0, 1]"},
           {rates, R"("rates":[["3ff0000000000001"])", "outside [0, 1]"},
           {rates, R"("rates":[["bff0000000000000"])", "outside [0, 1]"},
           {R"("dummy_fraction":"8000000000000000")",
            R"("dummy_fraction":"7ff8000000000000")", "dummy fraction"},
           {R"("dummy_fraction":"8000000000000000")",
            R"("dummy_fraction":"3ff0000000000001")", "dummy fraction"},
           {axis, R"("by_sample_size":[])", "sample-size axis"},
           {axis, n40_only, "sample-size axis"},
           {n20, R"("by_sample_size":[{"n":30,)", "sample-size axis"},
           {n20_features, R"("per_feature":[])", "no per_feature"},
           {R"("sample_sizes":[20,40])", R"("sample_sizes":[])",
            "empty sample-size axis"},
       }) {
    std::string text = kGoldenShard;
    const std::size_t at = text.find(original);
    ASSERT_NE(at, std::string::npos) << original;
    text.replace(at, original.size(), crafted);
    try {
      (void)parse_shard(text);
      FAIL() << "expected std::invalid_argument for " << crafted;
    } catch (const std::invalid_argument& err) {
      EXPECT_NE(std::string(err.what()).find(named), std::string::npos)
          << err.what();
    }
  }
  // The range is closed: exact 0, −0 and 1 are rates.
  for (const std::string edge : {"0000000000000000", "8000000000000000",
                                 "3ff0000000000000"}) {
    std::string text = kGoldenShard;
    text.replace(text.find(rates), rates.size(),
                 R"("rates":[[")" + edge + R"("])");
    EXPECT_NO_THROW((void)parse_shard(text)) << edge;
  }
}

TEST(ShardParse, NonFiniteOverheadAndCpdValuesAreNamedErrors) {
  // The merge probes: a real sampled campaign's shard 1, one value of its
  // first chunk crafted. Unchecked, +inf padding merged into an infinite
  // mean_padding_bps and worst_delay_p95's fold skipped a NaN delay.
  auto spec = shard_spec(40, 12);
  spec.sample_flows = 6;
  spec.sample_round = 2;
  spec.keep_per_flow = false;
  classify::DetectorSpec cusum;
  cusum.cpd.emplace();
  spec.experiment.plan.detectors = {cusum};
  SweepOptions options;
  options.threads = 1;
  options.grain = 2;
  options.shard_count = 2;
  std::vector<PopulationShard> shards;
  for (const std::size_t index : {std::size_t{0}, std::size_t{1}}) {
    options.shard_index = index;
    shards.push_back(run_population_shard(spec, sim_backend(), options));
  }
  const std::string text = serialize_shard(shards[1]);
  (void)population_result_json(merge_shards({shards[0], parse_shard(text)}));

  const auto craft = [&](const std::string& key, std::string_view bits) {
    const std::string field = "\"" + key + "\":\"";
    const std::size_t at = text.find(field, text.find('\n'));
    EXPECT_NE(at, std::string::npos) << key;
    std::string crafted = text;
    crafted.replace(at + field.size(), 16, bits);
    return crafted;
  };
  for (const auto& [key, bits, named] :
       std::vector<std::tuple<std::string, std::string, std::string>>{
           {"padding_bps", "7ff0000000000000", "padding_bps"},
           {"padding_bps", "bff0000000000000", "padding_bps"},
           {"wire_bps", "fff0000000000000", "wire_bps"},
           {"wire_bps", "7ff8000000000000", "wire_bps"},
           {"delay_p95", "7ff8000000000000", "delay_p95"},
           {"delay_p95", "7ff0000000000000", "delay_p95"},
           {"threshold", "7ff8000000000000", "cpd threshold"},
           {"threshold", "c024000000000000", "cpd threshold"},
       }) {
    try {
      (void)parse_shard(craft(key, bits));
      ADD_FAILURE() << "expected std::invalid_argument for " << key << " "
                    << bits;
    } catch (const std::invalid_argument& err) {
      EXPECT_NE(std::string(err.what()).find("shard_io: "), std::string::npos)
          << err.what();
      EXPECT_NE(std::string(err.what()).find(named), std::string::npos)
          << err.what();
    }
  }
  // Zero (−0 included) is a cost, and +inf a threshold: a detector that
  // never alarms.
  for (const auto& [key, bits] :
       std::vector<std::pair<std::string, std::string>>{
           {"padding_bps", "8000000000000000"},
           {"delay_p95", "0000000000000000"},
           {"threshold", "7ff0000000000000"}}) {
    EXPECT_NO_THROW((void)parse_shard(craft(key, bits))) << key << " " << bits;
  }
}

// ----------------------------------------------------------- mutation fuzz

/// Real shard text: the golden, then shard 1 of 2 of an exhaustive
/// campaign with a CUSUM detector and per-flow results and of a sampled
/// campaign without them. `siblings` receives shard 0 of both campaigns,
/// so a parsed mutant can be merged the way `population_shard --merge`
/// would merge it.
std::vector<std::string> fuzz_sources(std::vector<PopulationShard>* siblings) {
  std::vector<std::string> sources = {kGoldenShard};
  SweepOptions options;
  options.threads = 1;
  options.grain = 2;
  options.shard_count = 2;

  auto exhaustive = shard_spec(6, 11);
  classify::DetectorSpec cusum;
  cusum.cpd.emplace();
  exhaustive.experiment.plan.detectors = {cusum};
  auto sampled = shard_spec(40, 12);
  sampled.sample_flows = 6;
  sampled.sample_round = 2;
  sampled.keep_per_flow = false;
  for (const PopulationSpec& spec : {exhaustive, sampled}) {
    options.shard_index = 1;
    sources.push_back(
        serialize_shard(run_population_shard(spec, sim_backend(), options)));
    options.shard_index = 0;
    siblings->push_back(run_population_shard(spec, sim_backend(), options));
  }
  return sources;
}

/// One seeded mutation of one source: truncate, flip a bit, overwrite a
/// byte with JSON punctuation, splice in a slice of another source, or
/// replace an integer literal with an edge value.
std::string mutate(const std::vector<std::string>& sources, util::Rng& rng) {
  const auto pick = [&rng](std::size_t n) {
    return std::min(n - 1, static_cast<std::size_t>(rng.uniform01() *
                                                    static_cast<double>(n)));
  };
  std::string text = sources[pick(sources.size())];
  switch (pick(5)) {
    case 0:
      text.resize(pick(text.size()));
      break;
    case 1: {
      char& c = text[pick(text.size())];
      c = static_cast<char>(c ^ (1 << pick(8)));
      break;
    }
    case 2: {
      const std::string_view punctuation = "{}[]:,\"\\- \n";
      text[pick(text.size())] = punctuation[pick(punctuation.size())];
      break;
    }
    case 3: {
      const std::string& other = sources[pick(sources.size())];
      const std::size_t from = pick(other.size());
      const std::size_t length = pick(other.size() - from + 1);
      const std::size_t at = pick(text.size() + 1);
      const std::size_t cut = pick(text.size() - at + 1);
      text.replace(at, cut, other, from, length);
      break;
    }
    default: {
      // Integer literals start right after ':', '[' or ','; hex doubles
      // start after a quote, so they are never picked.
      std::vector<std::size_t> starts;
      for (std::size_t i = 1; i < text.size(); ++i) {
        const bool digit = text[i] >= '0' && text[i] <= '9';
        const char before = text[i - 1];
        if (digit && (before == ':' || before == '[' || before == ',')) {
          starts.push_back(i);
        }
      }
      const std::size_t at = starts[pick(starts.size())];
      std::size_t end = at;
      while (end < text.size() && text[end] >= '0' && text[end] <= '9') ++end;
      const std::string_view edges[] = {"0",
                                        "1",
                                        "2",
                                        "4294967296",
                                        "9223372036854775810",
                                        "18446744073709551615",
                                        "-1"};
      text.replace(at, end - at, edges[pick(std::size(edges))]);
      break;
    }
  }
  return text;
}

/// The result fields that fold per-flow overheads and CPD thresholds hold
/// what parse admits: finite costs, and thresholds that are not NaN (+inf
/// is a detector that never alarms).
void expect_foldable(const PopulationResult& result, int variant) {
  for (const auto& [value, name] :
       {std::pair{result.mean_padding_bps, "mean_padding_bps"},
        std::pair{result.mean_wire_bps, "mean_wire_bps"},
        std::pair{result.worst_delay_p95, "worst_delay_p95"}}) {
    if (value) {
      EXPECT_TRUE(std::isfinite(*value))
          << "variant " << variant << " " << name << " = " << *value;
    }
  }
  for (const auto& point : result.cpd) {
    EXPECT_GE(point.mean_threshold, 0.0) << "variant " << variant;
  }
}

TEST(ShardFuzz, MutatedShardsParseOrFailByName) {
  // Shard files cross machines, so every byte sequence must either parse
  // or throw std::invalid_argument — never crash, hang or raise anything
  // else — with and without a tolerated tail. What parses re-serializes
  // to a fixed point, and merged beside each real campaign's other shard
  // it either renders as result JSON, with finite overhead folds, or is
  // refused by name too.
  std::vector<PopulationShard> siblings;
  const auto sources = fuzz_sources(&siblings);
  util::Rng rng(20030324);
  std::size_t parsed = 0;
  std::size_t refused = 0;
  std::size_t merged = 0;
  for (int variant = 0; variant < 10000; ++variant) {
    const std::string text = mutate(sources, rng);
    for (const bool tolerate : {false, true}) {
      try {
        const PopulationShard shard = parse_shard(text, tolerate);
        const std::string once = serialize_shard(shard);
        EXPECT_EQ(serialize_shard(parse_shard(once)), once)
            << "variant " << variant;
        ++parsed;
        for (const PopulationShard& sibling : siblings) {
          try {
            const PopulationResult result = merge_shards({sibling, shard});
            (void)population_result_json(result);
            expect_foldable(result, variant);
            ++merged;
          } catch (const std::invalid_argument&) {
          } catch (const std::exception& err) {
            ADD_FAILURE() << "variant " << variant << " (tolerate "
                          << tolerate << ") merged into something else: "
                          << err.what();
          }
        }
      } catch (const std::invalid_argument&) {
        ++refused;
      } catch (const std::exception& err) {
        ADD_FAILURE() << "variant " << variant << " (tolerate " << tolerate
                      << ") threw something else: " << err.what();
      }
    }
  }
  // Every outcome must be common, or the mutations test nothing.
  EXPECT_GT(parsed, 1000u);
  EXPECT_GT(refused, 1000u);
  EXPECT_GT(merged, 500u);
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
