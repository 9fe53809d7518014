// Reference wall for sim::Testbed's event loop. The oracle is the DES
// wiring of the same apparatus: a sim::Simulation driving PaddingGateway,
// the payload source and a PathModel tap in run_until slabs. Every policy ×
// payload × hop layout must give the same PIATs, gateway stats, clock, wire
// rate and event count, bit for bit, after every pull. A testbed without
// delay sketches is also held to one with them.
//
// The same file pins PacketLevelTestbed (the DES driver that stays) to
// digests of its PIATs and gateway stats.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <memory>
#include <string>
#include <tuple>
#include <vector>

#include "sim/gateway.hpp"
#include "sim/hop.hpp"
#include "sim/packet_path.hpp"
#include "sim/scheduler.hpp"
#include "sim/source.hpp"
#include "sim/testbed.hpp"
#include "sim/timer_policy.hpp"
#include "util/rng.hpp"

namespace linkpad::sim {
namespace {

/// Receives GW1's emissions and records their arrival times at the tap.
class PathTap final : public PacketSink {
 public:
  PathTap(PathModel& path, util::Rng& rng, std::vector<Seconds>& arrivals)
      : path_(path), rng_(rng), arrivals_(arrivals) {}
  void on_packet(const Packet& /*packet*/, Seconds now) override {
    arrivals_.push_back(path_.traverse(now, rng_));
  }

 private:
  PathModel& path_;
  util::Rng& rng_;
  std::vector<Seconds>& arrivals_;
};

/// The testbed as a general discrete-event simulation: every event goes
/// through sim::Simulation's queue, ordered by (time, insertion sequence).
class DesTestbed {
 public:
  DesTestbed(const TestbedConfig& config, util::Rng& rng)
      : config_(config),
        rng_(rng),
        path_(config.hops_before_tap, config.wire_bytes),
        tap_(path_, rng, arrivals_),
        gateway_(sim_, config.policy->clone(), config.jitter, rng, tap_,
                 config.wire_bytes),
        source_(make_payload_source(config)) {}

  void collect_piats(std::size_t count, std::vector<Seconds>& out) {
    if (!started_) {
      source_->start(sim_, gateway_, rng_);
      gateway_.start();
      started_ = true;
      cursor_ = config_.warmup_piats + 1;
    }
    const std::size_t target = cursor_ + count;
    const Seconds slab =
        static_cast<Seconds>(count + config_.warmup_piats + 2) *
        config_.policy->mean_interval();
    while (arrivals_.size() < target) sim_.run_until(sim_.now() + slab);
    for (std::size_t i = cursor_; i < target; ++i) {
      out.push_back(arrivals_[i] - arrivals_[i - 1]);
    }
    cursor_ = target;
    if (cursor_ > (1u << 16)) {
      arrivals_.erase(arrivals_.begin(),
                      arrivals_.begin() +
                          static_cast<std::ptrdiff_t>(cursor_ - 1));
      cursor_ = 1;
    }
  }

  [[nodiscard]] double measured_wire_bps() const {
    const Seconds elapsed = sim_.now();
    if (elapsed <= 0.0) return 0.0;
    const GatewayStats& gs = gateway_.stats();
    return 8.0 * static_cast<double>(gs.payload_bytes + gs.padding_bytes) /
           elapsed;
  }

  [[nodiscard]] const GatewayStats& gateway_stats() const {
    return gateway_.stats();
  }
  [[nodiscard]] const Simulation& simulation() const { return sim_; }

 private:
  TestbedConfig config_;
  util::Rng& rng_;
  Simulation sim_;
  PathModel path_;
  std::vector<Seconds> arrivals_;
  PathTap tap_;
  PaddingGateway gateway_;
  std::unique_ptr<TrafficSource> source_;
  bool started_ = false;
  std::size_t cursor_ = 0;
};

std::uint64_t bits(double x) { return std::bit_cast<std::uint64_t>(x); }

/// The GatewayStats counters, which do not depend on DelaySketches.
std::vector<std::uint64_t> counter_words(const GatewayStats& s) {
  return {s.payload_in,    s.payload_out, s.dummy_out,
          s.dropped,       s.timer_fires, s.suppressed_fires,
          s.payload_bytes, s.padding_bytes};
}

/// Every GatewayStats field as 64-bit words: the counters, the queueing
/// delay moments the sample size defines, and the three P² values.
std::vector<std::uint64_t> stats_words(const GatewayStats& s) {
  std::vector<std::uint64_t> w = counter_words(s);
  w.push_back(s.queueing_delay.count());
  const std::size_t n = s.queueing_delay.count();
  if (n > 0) {
    w.insert(w.end(), {bits(s.queueing_delay.mean()),
                       bits(s.queueing_delay.min()),
                       bits(s.queueing_delay.max())});
  }
  if (n > 1) w.push_back(bits(s.queueing_delay.variance()));
  if (n > 2) w.push_back(bits(s.queueing_delay.skewness()));
  if (n > 3) w.push_back(bits(s.queueing_delay.excess_kurtosis()));
  for (const stats::P2Quantile* q :
       {&s.delay_p50, &s.delay_p95, &s.delay_p99}) {
    w.push_back(q->count());
    if (q->count() > 0) w.push_back(bits(q->value()));
  }
  return w;
}

std::vector<std::uint64_t> piat_words(const std::vector<Seconds>& piats) {
  std::vector<std::uint64_t> w;
  w.reserve(piats.size());
  for (const Seconds x : piats) w.push_back(bits(x));
  return w;
}

/// Pull `pulls` from `reference` and `bed` in turn and require
/// bit-identity of everything either exposes after each pull: PIATs,
/// gateway stats (`words` picks which), clock, wire rate and event count.
template <typename Reference>
void expect_same_pulls(
    Reference& reference, Testbed& bed, const std::vector<std::size_t>& pulls,
    std::vector<std::uint64_t> (*words)(const GatewayStats&) = stats_words) {
  for (std::size_t p = 0; p < pulls.size(); ++p) {
    std::vector<Seconds> want;
    std::vector<Seconds> got;
    reference.collect_piats(pulls[p], want);
    ASSERT_EQ(bed.collect_piats(pulls[p], got), pulls[p]);
    ASSERT_EQ(piat_words(got), piat_words(want)) << "pull " << p;
    EXPECT_EQ(words(bed.gateway_stats()), words(reference.gateway_stats()))
        << "pull " << p;
    EXPECT_EQ(bits(bed.simulation().now()),
              bits(reference.simulation().now()))
        << "pull " << p;
    EXPECT_EQ(bits(bed.measured_wire_bps()),
              bits(reference.measured_wire_bps()))
        << "pull " << p;
    EXPECT_EQ(bed.simulation().events_processed(),
              reference.simulation().events_processed())
        << "pull " << p;
  }
}

/// The testbed against the DES oracle, both seeded with `seed`.
void expect_same_pulls(const TestbedConfig& config, std::uint64_t seed,
                       const std::vector<std::size_t>& pulls) {
  util::Xoshiro256pp rng_des(seed);
  util::Xoshiro256pp rng_bed(seed);
  DesTestbed des(config, rng_des);
  Testbed bed(config, rng_bed);
  expect_same_pulls(des, bed, pulls);
}

// ------------------------------------------------------------------ grid

constexpr int kPolicies = 7;
constexpr int kHopLayouts = 4;

/// Every TimerPolicy. CIT uses τ = 2^-7 s: its fires then land exactly on
/// slab ends, which pins the "events at t_end still run" rule.
std::shared_ptr<const TimerPolicy> grid_policy(int i) {
  switch (i) {
    case 0:
      return std::make_shared<ConstantIntervalTimer>(0x1p-7);
    case 1:
      return std::make_shared<NormalIntervalTimer>(10e-3, 500e-6);
    case 2:
      return std::make_shared<UniformIntervalTimer>(10e-3, 866e-6);
    case 3:
      return std::make_shared<ShiftedExponentialTimer>(9e-3, 1e-3);
    case 4:
      return std::make_shared<OnOffTimer>(
          std::make_unique<ConstantIntervalTimer>(10e-3), 20e-3);
    case 5:
      return std::make_shared<TokenBucketTimer>(
          std::make_unique<ConstantIntervalTimer>(10e-3), 20.0, 3.0);
    default:
      return std::make_shared<AdaptiveGapTimer>(10e-3, 0.5, 2e-3);
  }
}

const char* policy_label(int i) {
  static const char* const kLabels[] = {"cit",   "normal_vit", "uniform_vit",
                                        "shexp_vit", "onoff", "token_bucket",
                                        "adaptive_gap"};
  return kLabels[i];
}

HopConfig hop(double bandwidth_bps, double rho, int cross_bytes,
              ServiceModel model) {
  HopConfig h;
  h.bandwidth_bps = bandwidth_bps;
  h.cross_utilization = rho;
  h.cross_packet_bytes = cross_bytes;
  h.service_model = model;
  return h;
}

/// No hops; one at ρ 0.51; one at the 0.95 saturation cap; four hops that
/// mix deterministic, exponential and trimodal service.
std::vector<HopConfig> grid_hops(int i) {
  switch (i) {
    case 0:
      return {};
    case 1:
      return {hop(500e6, 0.51, 1500, ServiceModel::kDeterministic)};
    case 2:
      return {hop(500e6, 0.95, 1500, ServiceModel::kDeterministic)};
    default:
      return {hop(1e9, 0.3, 1000, ServiceModel::kDeterministic),
              hop(100e6, 0.6, 1500, ServiceModel::kExponential),
              hop(155e6, 0.45, 576, ServiceModel::kTrimodal),
              hop(45e6, 0.2, 1500, ServiceModel::kExponential)};
  }
}

const char* hops_label(int i) {
  static const char* const kLabels[] = {"no_hops", "rho051", "rho095_cap",
                                        "four_mixed"};
  return kLabels[i];
}

const char* payload_label(PayloadKind kind) {
  switch (kind) {
    case PayloadKind::kCbr:
      return "cbr";
    case PayloadKind::kPoisson:
      return "poisson";
    case PayloadKind::kOnOff:
      return "onoff";
  }
  return "?";
}

/// Pulls of 1, 7 and 8192 PIATs, then one that carries the consumed
/// arrivals past 65,536 (the testbed trims its arrival buffer there), then
/// one more from the trimmed buffer.
const std::vector<std::size_t> kPulls = {1, 7, 8192, 57500, 3};

using GridPoint = std::tuple<int, PayloadKind, int>;

class LoopMatchesDes : public ::testing::TestWithParam<GridPoint> {};

TEST_P(LoopMatchesDes, BitIdenticalAfterEveryPull) {
  const auto [policy, payload, hops] = GetParam();
  TestbedConfig config;
  config.policy = grid_policy(policy);
  config.payload_kind = payload;
  config.payload_rate = 40.0;
  config.hops_before_tap = grid_hops(hops);
  const std::uint64_t seed =
      20030324 + static_cast<std::uint64_t>(100 * policy + 10 * hops) +
      static_cast<std::uint64_t>(payload);
  expect_same_pulls(config, seed, kPulls);
}

INSTANTIATE_TEST_SUITE_P(
    Grid, LoopMatchesDes,
    ::testing::Combine(::testing::Range(0, kPolicies),
                       ::testing::Values(PayloadKind::kCbr,
                                         PayloadKind::kPoisson,
                                         PayloadKind::kOnOff),
                       ::testing::Range(0, kHopLayouts)),
    [](const ::testing::TestParamInfo<GridPoint>& info) {
      return std::string(policy_label(std::get<0>(info.param))) + "_" +
             payload_label(std::get<1>(info.param)) + "_" +
             hops_label(std::get<2>(info.param));
    });

// ---------------------------------------------------------- full queue

TEST(TestbedReference, SpecializedQueueFillsToCapacityAndDrops) {
  // CBR payload at four times the CIT timer rate: the gateway queue fills
  // to its capacity within 14 s, then three of every four arrivals drop,
  // on the testbed's loop exactly as on the DES oracle.
  TestbedConfig config;
  config.policy = std::make_shared<ConstantIntervalTimer>(10e-3);
  config.payload_rate = 400.0;
  expect_same_pulls(config, 93, {1, 8192, 20000});
  util::Xoshiro256pp rng(93);
  Testbed bed(config, rng);
  std::vector<Seconds> sink;
  bed.collect_piats(28193, sink);
  const GatewayStats& gs = bed.gateway_stats();
  EXPECT_GT(gs.dropped, 3 * 20000u);
  const std::uint64_t queued = gs.payload_in - gs.payload_out - gs.dropped;
  EXPECT_GE(queued, PaddingGateway::kDefaultQueueCapacity - 1);
  EXPECT_LE(queued, PaddingGateway::kDefaultQueueCapacity);
}

// ------------------------------------------------- delay sketches skipped

TEST(TestbedReference, SkippingDelaySketchesKeepsEverythingElse) {
  // PIATs, counters, clock, wire rate and event count must not depend on
  // the sketches; the skipping testbed's delay moments and sketches stay
  // empty.
  for (int policy : {0, 1, 4}) {
    for (int hops : {0, 2}) {
      TestbedConfig config;
      config.policy = grid_policy(policy);
      config.payload_kind =
          policy == 4 ? PayloadKind::kOnOff : PayloadKind::kCbr;
      config.payload_rate = 40.0;
      config.hops_before_tap = grid_hops(hops);
      SCOPED_TRACE(std::string(policy_label(policy)) + " " +
                   hops_label(hops));
      util::Xoshiro256pp rng_keep(31);
      util::Xoshiro256pp rng_skip(31);
      Testbed keep(config, rng_keep);
      Testbed skip(config, rng_skip, DelaySketches::kSkip);
      expect_same_pulls(keep, skip, kPulls, counter_words);
      const GatewayStats& kept = keep.gateway_stats();
      const GatewayStats& skipped = skip.gateway_stats();
      ASSERT_GT(kept.payload_out, 0u);
      EXPECT_EQ(kept.queueing_delay.count(), kept.payload_out);
      EXPECT_EQ(kept.delay_p95.count(), kept.payload_out);
      EXPECT_EQ(skipped.queueing_delay.count(), 0u);
      for (const stats::P2Quantile* q :
           {&skipped.delay_p50, &skipped.delay_p95, &skipped.delay_p99}) {
        EXPECT_EQ(q->count(), 0u);
      }
    }
  }
}

TEST(TestbedReference, EqualTimesRunInSchedulingOrder) {
  // Far out on the clock (t ≥ 2^24 s) the gateway's 1 ns push of a late
  // fire rounds away, so each pushed fire lands at exactly the time of the
  // emission scheduled just before it. Only the insertion sequence orders
  // the two: the emission must run first, as in sim::Simulation.
  TestbedConfig config;
  config.policy = std::make_shared<ConstantIntervalTimer>(0x1p24);
  config.payload_rate = 5e-9;
  config.jitter.sigma_context_switch = 0x1p28;
  config.warmup_piats = 5;
  expect_same_pulls(config, 77, {1, 40, 200});
}

TEST(TestbedReference, AlternatingPullsEqualOneBigPull) {
  // The tap buffer drops its consumed prefix after every collect. Pulls of
  // 1 and 8192 PIATs in turn, past 2 × 65,536 arrivals, must concatenate
  // to one big pull bit for bit, on the concrete loop and the generic one.
  std::vector<std::size_t> pulls;
  std::size_t total = 0;
  while (total <= 2 * 65536) {
    pulls.insert(pulls.end(), {1, 8192});
    total += 8193;
  }
  for (int policy : {0, 1}) {
    for (int hops : {0, 1}) {
      TestbedConfig config;
      config.policy = grid_policy(policy);
      config.payload_rate = 40.0;
      config.hops_before_tap = grid_hops(hops);
      SCOPED_TRACE(std::string(policy_label(policy)) + " " +
                   hops_label(hops));
      util::Xoshiro256pp rng_pulled(57);
      util::Xoshiro256pp rng_big(57);
      Testbed pulled(config, rng_pulled);
      Testbed big(config, rng_big);
      std::vector<Seconds> got;
      for (const std::size_t pull : pulls) {
        ASSERT_EQ(pulled.collect_piats(pull, got), pull);
      }
      std::vector<Seconds> want;
      ASSERT_EQ(big.collect_piats(total, want), total);
      EXPECT_EQ(piat_words(got), piat_words(want));
    }
  }
}

TEST(TestbedReference, OverflowingQueueDropsAlike) {
  // Payload at four times the timer rate fills the gateway's 4096-packet
  // queue within seconds; from then on every other arrival is dropped.
  TestbedConfig config;
  config.policy = std::make_shared<ConstantIntervalTimer>(10e-3);
  config.payload_kind = PayloadKind::kPoisson;
  config.payload_rate = 400.0;
  expect_same_pulls(config, 91, {1, 8192, 20000});
  util::Xoshiro256pp rng(91);
  Testbed bed(config, rng);
  std::vector<Seconds> sink;
  bed.collect_piats(8193, sink);
  EXPECT_GT(bed.gateway_stats().dropped, 0u);
}

// ------------------------------------------- PacketLevelTestbed digests

std::uint64_t fnv1a(const std::vector<std::uint64_t>& words) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const std::uint64_t w : words) {
    for (int byte = 0; byte < 8; ++byte) {
      h ^= (w >> (8 * byte)) & 0xffU;
      h *= 0x100000001b3ULL;
    }
  }
  return h;
}

/// Digest of 20k PIATs plus the gateway stats of one PacketLevelTestbed run.
std::uint64_t packet_level_digest(std::shared_ptr<const TimerPolicy> policy,
                                  std::size_t hops, std::uint64_t seed) {
  TestbedConfig config;
  config.policy = std::move(policy);
  config.payload_rate = 40.0;
  for (std::size_t i = 0; i < hops; ++i) {
    config.hops_before_tap.push_back(
        hop(100e6, 0.3, 1500, ServiceModel::kDeterministic));
  }
  util::Xoshiro256pp rng(seed);
  PacketLevelTestbed bed(config, rng);
  std::vector<std::uint64_t> words = piat_words(bed.collect_piats(20000));
  const std::vector<std::uint64_t> stats = stats_words(bed.gateway_stats());
  words.insert(words.end(), stats.begin(), stats.end());
  words.push_back(bed.events_processed());
  return fnv1a(words);
}

TEST(PacketLevelTestbedDigest, CitAndTokenBucketWithZeroAndTwoHops) {
  // Captured from the DES wiring before sim::Testbed got its own loop;
  // PacketLevelTestbed still runs on sim::Simulation and must not move.
  const auto cit = std::make_shared<ConstantIntervalTimer>(10e-3);
  const auto bucket = std::make_shared<TokenBucketTimer>(
      std::make_unique<ConstantIntervalTimer>(10e-3), 20.0, 3.0);
  EXPECT_EQ(packet_level_digest(cit, 0, 5), 0x929e05a2fcc5fda9ULL);
  EXPECT_EQ(packet_level_digest(cit, 2, 6), 0x9575655334fd3df8ULL);
  EXPECT_EQ(packet_level_digest(bucket, 0, 7), 0xde668bd41034a503ULL);
  EXPECT_EQ(packet_level_digest(bucket, 2, 8), 0xffb72ca37f85f9deULL);
}

}  // namespace
}  // namespace linkpad::sim
