// Schedule wall for ExperimentEngine's per-class pool tasks: a result is
// the same bits with no pool and with pools of 1, 2 and
// hardware_concurrency threads, on every path the class loops take (the
// materialized Δh prepass of a multi-point axis, the streamed prepass of a
// single point, CUSUM / EDF extra detectors, three classes, a
// payload-reactive policy). A live-like (non-replayable) backend keeps
// every open on the calling thread in class order, a nested call runs
// inline, and an error in one class task reaches the caller.
#include <gtest/gtest.h>

#include <bit>
#include <chrono>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <stdexcept>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include "core/experiment.hpp"
#include "core/piat_source.hpp"
#include "core/scenarios.hpp"
#include "util/thread_pool.hpp"

namespace linkpad::core {
namespace {

std::uint64_t bits(double x) { return std::bit_cast<std::uint64_t>(x); }

void append(std::vector<std::uint64_t>& w, const stats::BootstrapResult& ci) {
  w.insert(w.end(), {bits(ci.estimate), bits(ci.lo), bits(ci.hi)});
}

void append(std::vector<std::uint64_t>& w,
            const classify::ConfusionMatrix& cm) {
  w.push_back(cm.num_classes());
  for (std::size_t t = 0; t < cm.num_classes(); ++t) {
    for (std::size_t p = 0; p < cm.num_classes(); ++p) {
      w.push_back(cm.count(static_cast<ClassLabel>(t),
                           static_cast<ClassLabel>(p)));
    }
  }
  w.push_back(cm.total());
}

void append(std::vector<std::uint64_t>& w, const std::optional<double>& x) {
  w.push_back(x.has_value() ? 1 : 0);
  if (x) w.push_back(bits(*x));
}

void append(std::vector<std::uint64_t>& w, const classify::CpdOutcome& o) {
  w.insert(w.end(), {static_cast<std::uint64_t>(o.kind), bits(o.threshold),
                     o.ttd.detected ? 1u : 0u, o.ttd.n_at_detection,
                     o.ttd.false_alarms});
}

void append(std::vector<std::uint64_t>& w, const FeatureOutcome& f) {
  w.push_back(static_cast<std::uint64_t>(f.feature));
  w.push_back(bits(f.detection_rate));
  append(w, f.ci);
  append(w, f.confusion);
  append(w, f.predicted);
}

/// Every double (as bits), count and flag of a result, in field order.
std::vector<std::uint64_t> words(const ExperimentResult& r) {
  std::vector<std::uint64_t> w;
  w.insert(w.end(), {bits(r.piat_mean_low), bits(r.piat_mean_high),
                     bits(r.piat_var_low), bits(r.piat_var_high)});
  for (const auto& d : r.detectors) {
    w.push_back(std::hash<std::string>{}(d.name));
    w.push_back(bits(d.attack_score));
    append(w, d.confusion);
    w.push_back(d.cpd.has_value() ? 1 : 0);
    if (d.cpd) append(w, *d.cpd);
  }
  for (const auto& p : r.by_sample_size) {
    w.insert(w.end(), {p.sample_size, p.train_windows, p.test_windows,
                       bits(p.r_hat)});
    for (const auto& f : p.per_feature) append(w, f);
  }
  w.push_back(r.overhead_per_class.size());
  for (const auto& oh : r.overhead_per_class) {
    w.insert(w.end(),
             {oh.payload_packets, oh.dummy_packets, oh.suppressed_fires,
              bits(oh.wire_bps), bits(oh.padding_bps), bits(oh.dummy_fraction),
              bits(oh.delay_mean), bits(oh.delay_p50), bits(oh.delay_p95),
              bits(oh.delay_p99)});
  }
  return w;
}

// ------------------------------------------------------------------ specs

ExperimentSpec base_spec(Scenario scenario) {
  ExperimentSpec spec;
  spec.scenario = std::move(scenario);
  spec.seed = 20240611;
  return spec;
}

/// Fig 4(b)'s 10-point axis × the paper's features, as the figure builds
/// it (materialized Δh prepass: entropy on a multi-point axis).
ExperimentSpec fig4b_axis_spec() {
  ExperimentSpec spec = base_spec(lab_zero_cross(make_cit()));
  spec.plan.set_features({classify::FeatureKind::kSampleMean,
                          classify::FeatureKind::kSampleVariance,
                          classify::FeatureKind::kSampleEntropy});
  spec.sample_size_axis = {100, 200, 400, 500, 700, 1000, 1500, 2000, 2500,
                           3000};
  spec.plan.adversary.window_size = 3000;
  spec.plan.train_windows = 6;
  spec.plan.test_windows = 6;
  spec.max_windows_per_point = 12;
  return spec;
}

/// One entropy point without an explicit Δh: the streamed prepass.
ExperimentSpec single_entropy_spec() {
  ExperimentSpec spec = base_spec(lab_zero_cross(make_cit()));
  spec.plan.set_features({classify::FeatureKind::kSampleEntropy,
                          classify::FeatureKind::kSampleVariance});
  spec.plan.adversary.window_size = 400;
  spec.plan.train_windows = 30;
  spec.plan.test_windows = 30;
  return spec;
}

/// CUSUM and EDF detectors riding the capture through the plan's list.
ExperimentSpec detector_list_spec() {
  ExperimentSpec spec = base_spec(lab_zero_cross(make_cit()));
  spec.plan.adversary.feature = classify::FeatureKind::kSampleVariance;
  spec.plan.adversary.window_size = 300;
  spec.plan.train_windows = 20;
  spec.plan.test_windows = 20;
  classify::DetectorSpec edf;
  edf.adversary.window_size = 200;
  edf.edf = classify::EdfDistance::kKolmogorovSmirnov;
  classify::DetectorSpec cusum;
  cusum.adversary.window_size = 300;
  cusum.cpd.emplace();
  cusum.cpd->target_far = 0.05;
  cusum.cpd->horizon = 400;
  cusum.cpd->trials = 40;
  spec.plan.detectors = {edf, cusum};
  return spec;
}

ExperimentSpec three_class_spec() {
  ExperimentSpec spec = base_spec(lab_multirate(make_cit(), 3));
  spec.plan.set_features({classify::FeatureKind::kSampleVariance,
                          classify::FeatureKind::kSampleEntropy});
  spec.sample_size_axis = {100, 200};
  spec.plan.adversary.window_size = 200;
  spec.plan.train_windows = 15;
  spec.plan.test_windows = 15;
  return spec;
}

ExperimentSpec reactive_policy_spec() {
  ExperimentSpec spec = base_spec(lab_zero_cross(make_onoff(20e-3)));
  spec.plan.set_features({classify::FeatureKind::kSampleMean,
                          classify::FeatureKind::kSampleVariance});
  spec.plan.adversary.window_size = 200;
  spec.plan.train_windows = 20;
  spec.plan.test_windows = 20;
  return spec;
}

// ------------------------------------------------------------- backends

/// One open(): the class, the salt and the thread it ran on.
struct OpenRecord {
  std::size_t class_index = 0;
  std::uint64_t salt = 0;
  std::thread::id thread;
};

/// The simulated backend, recording every open and optionally sleeping in
/// class 0's collects or throwing on class 1's opens. `replayable` is what
/// the engine sees.
class ProbeBackend final : public ExperimentBackend {
 public:
  struct Options {
    bool replayable = true;
    bool slow_class_zero = false;
    bool throw_on_class_one = false;
  };

  explicit ProbeBackend(Options options) : options_(options) {}

  [[nodiscard]] std::unique_ptr<PiatSource> open(
      const Scenario& scenario, std::size_t class_index, std::uint64_t seed,
      std::uint64_t salt) const override {
    return wrap(sim_backend().open(scenario, class_index, seed, salt),
                class_index, salt);
  }
  [[nodiscard]] std::unique_ptr<PiatSource> open_piats(
      const Scenario& scenario, std::size_t class_index, std::uint64_t seed,
      std::uint64_t salt) const override {
    return wrap(sim_backend().open_piats(scenario, class_index, seed, salt),
                class_index, salt);
  }
  [[nodiscard]] bool replayable() const override {
    return options_.replayable;
  }
  [[nodiscard]] std::string name() const override { return "probe"; }

  [[nodiscard]] std::vector<OpenRecord> opens() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return opens_;
  }

 private:
  /// Sleeps before each collect, so class 0 finishes last.
  class SlowSource final : public PiatSource {
   public:
    explicit SlowSource(std::unique_ptr<PiatSource> inner)
        : inner_(std::move(inner)) {}
    std::size_t collect(std::size_t count, std::vector<double>& out) override {
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
      return inner_->collect(count, out);
    }
    [[nodiscard]] std::optional<StreamOverhead> overhead() const override {
      return inner_->overhead();
    }
    [[nodiscard]] std::string name() const override { return inner_->name(); }

   private:
    std::unique_ptr<PiatSource> inner_;
  };

  std::unique_ptr<PiatSource> wrap(std::unique_ptr<PiatSource> source,
                                   std::size_t class_index,
                                   std::uint64_t salt) const {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      opens_.push_back({class_index, salt, std::this_thread::get_id()});
    }
    if (options_.throw_on_class_one && class_index == 1) {
      throw std::runtime_error("probe: class 1 capture failed");
    }
    if (options_.slow_class_zero && class_index == 0) {
      return std::make_unique<SlowSource>(std::move(source));
    }
    return source;
  }

  Options options_;
  mutable std::mutex mutex_;
  mutable std::vector<OpenRecord> opens_;
};

std::vector<std::tuple<std::size_t, std::uint64_t>> keys(
    const std::vector<OpenRecord>& opens) {
  std::vector<std::tuple<std::size_t, std::uint64_t>> out;
  for (const auto& o : opens) out.emplace_back(o.class_index, o.salt);
  return out;
}

/// `spec` with no pool, then on pools of 1, 2 and hardware_concurrency
/// threads: every result must be the no-pool result's bits.
void expect_schedule_free(const ExperimentSpec& spec,
                          const ExperimentBackend& backend = sim_backend()) {
  const auto reference = words(ExperimentEngine(backend).run(spec));
  for (const std::size_t threads : {std::size_t{1}, std::size_t{2},
                                    std::size_t{0}}) {
    util::ThreadPool pool(threads);
    SCOPED_TRACE("pool of " + std::to_string(pool.thread_count()));
    EXPECT_EQ(words(ExperimentEngine(backend, 8192, &pool).run(spec)),
              reference);
  }
}

// ------------------------------------------------------------------ tests

TEST(ClassSchedule, Fig4bAxisIsBitIdenticalOnEveryPool) {
  expect_schedule_free(fig4b_axis_spec());
}

TEST(ClassSchedule, StreamedPrepassIsBitIdenticalOnEveryPool) {
  expect_schedule_free(single_entropy_spec());
}

TEST(ClassSchedule, ExtraCusumAndEdfDetectorsAreBitIdenticalOnEveryPool) {
  const auto spec = detector_list_spec();
  const auto result = ExperimentEngine().run(spec);
  ASSERT_EQ(result.detectors.size(), 2u);
  EXPECT_FALSE(result.detectors[0].cpd.has_value());
  EXPECT_TRUE(result.detectors[1].cpd.has_value());
  expect_schedule_free(spec);
}

TEST(ClassSchedule, ThreeClassesAreBitIdenticalOnEveryPool) {
  const auto spec = three_class_spec();
  ASSERT_EQ(spec.scenario.payload_rates.size(), 3u);
  expect_schedule_free(spec);
}

TEST(ClassSchedule, PayloadReactivePolicyIsBitIdenticalOnEveryPool) {
  const auto spec = reactive_policy_spec();
  ASSERT_TRUE(spec.scenario.base.policy->payload_reactive());
  ASSERT_EQ(ExperimentEngine().run(spec).overhead_per_class.size(), 2u);
  expect_schedule_free(spec);
}

TEST(ClassSchedule, OverheadSlotsFollowClassOrderWhenClassZeroEndsLast) {
  // Class 0's collects sleep, so on a pool its test stream ends after
  // class 1's; its overhead must still land in slot 0.
  const ProbeBackend slow({.slow_class_zero = true});
  const auto spec = reactive_policy_spec();
  const auto result = ExperimentEngine(sim_backend()).run(spec);
  ASSERT_EQ(result.overhead_per_class.size(), 2u);
  EXPECT_NE(result.overhead_per_class[0].payload_packets,
            result.overhead_per_class[1].payload_packets);
  util::ThreadPool pool(2);
  EXPECT_EQ(words(ExperimentEngine(slow, 8192, &pool).run(spec)),
            words(result));
}

TEST(ClassSchedule, NonReplayableBackendOpensOnTheCallerInClassOrder) {
  for (const auto& spec : {fig4b_axis_spec(), reactive_policy_spec()}) {
    const ProbeBackend serial({.replayable = false});
    const ProbeBackend pooled({.replayable = false});
    const auto reference = words(ExperimentEngine(serial).run(spec));
    util::ThreadPool pool(2);
    EXPECT_EQ(words(ExperimentEngine(pooled, 8192, &pool).run(spec)),
              reference);
    const auto opens = pooled.opens();
    ASSERT_FALSE(opens.empty());
    EXPECT_EQ(keys(opens), keys(serial.opens()));
    for (const auto& o : opens) {
      EXPECT_EQ(o.thread, std::this_thread::get_id())
          << "class " << o.class_index << " salt " << o.salt;
    }
    for (std::size_t i = 1; i < opens.size(); ++i) {
      if (opens[i].salt == opens[i - 1].salt) {
        EXPECT_EQ(opens[i].class_index, opens[i - 1].class_index + 1);
      }
    }
  }
}

TEST(ClassSchedule, ReplayableBackendRunsClassesOnPoolWorkers) {
  const ProbeBackend probe({});
  util::ThreadPool pool(2);
  (void)ExperimentEngine(probe, 8192, &pool).run(reactive_policy_spec());
  const auto opens = probe.opens();
  ASSERT_FALSE(opens.empty());
  for (const auto& o : opens) {
    EXPECT_NE(o.thread, std::this_thread::get_id())
        << "class " << o.class_index << " salt " << o.salt;
  }
}

TEST(ClassSchedule, EngineInsideAPoolTaskRunsInline) {
  const auto spec = fig4b_axis_spec();
  const auto reference = words(ExperimentEngine().run(spec));
  const ProbeBackend probe({});
  util::ThreadPool pool(2);
  std::vector<std::uint64_t> nested;
  std::thread::id worker;
  pool.submit([&] {
    worker = std::this_thread::get_id();
    nested = words(ExperimentEngine(probe, 8192, &pool).run(spec));
  });
  pool.wait_idle();
  EXPECT_EQ(nested, reference);
  const auto opens = probe.opens();
  ASSERT_FALSE(opens.empty());
  for (const auto& o : opens) EXPECT_EQ(o.thread, worker);
}

TEST(ClassSchedule, AClassTaskErrorReachesTheCaller) {
  for (const auto& spec : {fig4b_axis_spec(), reactive_policy_spec()}) {
    const ProbeBackend failing({.throw_on_class_one = true});
    for (const std::size_t threads : {std::size_t{1}, std::size_t{2}}) {
      util::ThreadPool pool(threads);
      try {
        (void)ExperimentEngine(failing, 8192, &pool).run(spec);
        ADD_FAILURE() << "expected the class 1 error";
      } catch (const std::runtime_error& error) {
        EXPECT_STREQ(error.what(), "probe: class 1 capture failed");
      }
    }
  }
}

}  // namespace
}  // namespace linkpad::core
