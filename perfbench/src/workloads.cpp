#include "workloads.hpp"

#include <algorithm>
#include <cstdio>
#include <stdexcept>

#include "classify/cpd.hpp"
#include "core/experiment.hpp"
#include "core/figures.hpp"
#include "core/population.hpp"
#include "core/robust_frontier.hpp"
#include "core/scenarios.hpp"
#include "core/shard_io.hpp"
#include "sim/testbed.hpp"
#include "stats.hpp"
#include "util/rng.hpp"

namespace perfbench {

namespace core = linkpad::core;
namespace classify = linkpad::classify;

namespace {

bool in_unit(double x) { return x >= 0.0 && x <= 1.0; }

std::string hex_list(const std::vector<double>& values) {
  std::string out;
  for (const double v : values) {
    if (!out.empty()) out.push_back(',');
    out += core::encode_double(v);
  }
  return out;
}

void check_against_commit(Verdict& verdict, std::string_view workload,
                          std::uint64_t seed, std::size_t input,
                          const std::string& canonical) {
  if (seed != kDefaultSeed) return;
  const auto expected = committed_digest(workload, input);
  verdict.require(expected.has_value(), "no committed digest");
  if (expected) {
    check_digest(verdict, canonical, *expected);
    if (!verdict.ok) verdict.reason = "input " + std::to_string(input) + ": " + verdict.reason;
  }
}

/// Simulation events per captured PIAT, averaged over the scenario's
/// classes: a direct sim::Testbed run on the workload's resolved scenario.
double events_per_piat(const core::Scenario& scenario, std::uint64_t seed) {
  constexpr std::size_t kPiats = 20000;
  double sum = 0.0;
  for (std::size_t c = 0; c < scenario.payload_rates.size(); ++c) {
    linkpad::util::Rng rng = linkpad::util::RngFactory(seed).make(1, c);
    linkpad::sim::Testbed testbed(scenario.config_for(c), rng);
    std::vector<double> out;
    testbed.collect_piats(kPiats, out);
    sum += static_cast<double>(testbed.simulation().events_processed()) /
           static_cast<double>(out.size());
  }
  return sum / static_cast<double>(scenario.payload_rates.size());
}

/// Test windows every detector of one experiment classified.
double windows_classified(const core::ExperimentResult& result) {
  double windows = 0.0;
  for (const auto& point : result.by_sample_size) {
    for (const auto& outcome : point.per_feature) {
      windows += static_cast<double>(outcome.confusion.total());
    }
  }
  return windows;
}

template <typename Fn>
double median_seconds(int repeats, Fn&& fn) {
  std::vector<double> t;
  for (int i = 0; i < repeats; ++i) {
    const double t0 = now_s();
    fn();
    t.push_back(now_s() - t0);
  }
  return median(std::move(t));
}

// ------------------------------------------------------------ fig4b_curve

class Fig4bCurve final : public Workload {
 public:
  explicit Fig4bCurve(std::uint64_t seed) : seed_(seed) {}

  std::string name() const override { return "fig4b_curve"; }
  std::string spec_text() const override {
    return "fig4b_curve;fig4b_detection_vs_n;effort=1.0;seed=" +
           std::to_string(seed_);
  }
  std::size_t pool_threads() const override { return 1; }

  void setup() override {
    core::FigureOptions warm;
    warm.seed = input_seed(seed_, 0);
    warm.effort = 0.1;
    (void)core::fig4b_detection_vs_n(warm);
  }

  void run_op(const core::ExperimentBackend& backend, Tracer*,
              std::size_t input) override {
    input_ = input;
    core::FigureOptions options;
    options.seed = input_seed(seed_, input);
    options.effort = 1.0;
    // FigureOptions holds the backend by shared_ptr; this one outlives the
    // call, so the pointer does not own it.
    options.backend = std::shared_ptr<const core::ExperimentBackend>(
        &backend, [](const core::ExperimentBackend*) {});
    series_ = core::fig4b_detection_vs_n(options);
  }

  Verdict check(std::size_t& units) const override {
    Verdict v;
    v.require(series_.x.size() == 10, "expected 10 sample sizes");
    v.require(series_.curves.size() == 6, "expected 3 features x 2 curves");
    std::string canonical = "x:" + hex_list(series_.x) + "\n";
    for (const auto& curve : series_.curves) {
      canonical += curve.name + ":" + hex_list(curve.y) + "\n";
      v.require(curve.y.size() == series_.x.size(), curve.name + " length");
      for (const double y : curve.y) {
        v.require(in_unit(y), curve.name + " rate outside [0, 1]");
      }
    }
    check_against_commit(v, name(), seed_, input_, canonical);
    units = series_.x.size() * 3;
    return v;
  }

  Probes probe() override {
    // The figure's one experiment, rebuilt from its documented shape so its
    // window counts can be read; its rates must equal the figure's curves.
    core::ExperimentSpec spec;
    spec.scenario = core::lab_zero_cross(core::make_cit());
    spec.plan.set_features({classify::FeatureKind::kSampleMean,
                            classify::FeatureKind::kSampleVariance,
                            classify::FeatureKind::kSampleEntropy});
    for (const double n : series_.x) {
      spec.sample_size_axis.push_back(static_cast<std::size_t>(n));
    }
    spec.plan.adversary.window_size = spec.sample_size_axis.back();
    spec.plan.train_windows = 250;
    spec.plan.test_windows = 250;
    spec.max_windows_per_point = 500;
    spec.seed = input_seed(seed_, input_);
    const auto result = core::ExperimentEngine().run(spec);
    for (std::size_t i = 0; i < series_.x.size(); ++i) {
      for (std::size_t f = 0; f < 3; ++f) {
        if (result.by_sample_size[i].per_feature[f].detection_rate !=
            series_.curves[2 * f].y[i]) {
          throw std::runtime_error(
              "fig4b_curve probe: rebuilt experiment disagrees with the figure");
        }
      }
    }
    return {{"classify.windows", windows_classified(result)},
            {"sim.events_per_piat", events_per_piat(spec.scenario, spec.seed)}};
  }

 private:
  std::uint64_t seed_;
  std::size_t input_ = 0;
  core::FigureSeries series_;
};

// --------------------------------------------------------------- campaigns

class Campaign final : public Workload {
 public:
  Campaign(std::string name, std::uint64_t seed, std::size_t flows,
           std::size_t sample_flows, std::size_t threads, bool saturated)
      : name_(std::move(name)),
        seed_(seed),
        flows_(flows),
        sample_flows_(sample_flows),
        threads_(threads),
        saturated_(saturated) {}

  std::string name() const override { return name_; }
  std::string spec_text() const override {
    char buf[320];
    std::snprintf(buf, sizeof buf,
                  "%s;lab_cross_traffic(cit,0.1);features=variance,entropy;"
                  "axis=100,300,1000;windows=10;keep_per_flow=0;flows=%zu;"
                  "sample=%zu;shards=%zu;threads=%zu;seed=%llu",
                  name_.c_str(), flows_, sample_flows_, kShards, threads_,
                  static_cast<unsigned long long>(seed_));
    return buf;
  }
  std::size_t pool_threads() const override { return threads_; }

  void setup() override {
    core::PopulationSpec spec;
    spec.experiment.scenario = core::lab_cross_traffic(core::make_cit(), 0.1);
    spec.experiment.plan.set_features({classify::FeatureKind::kSampleVariance,
                                       classify::FeatureKind::kSampleEntropy});
    spec.experiment.plan.adversary.window_size = 1000;
    spec.experiment.sample_size_axis = {100, 300, 1000};
    spec.experiment.plan.train_windows = 10;
    spec.experiment.plan.test_windows = 10;
    spec.flows = flows_;
    spec.keep_per_flow = false;
    spec.seed = input_seed(seed_, 0);
    if (sample_flows_ > 0) spec = spec.sampled(sample_flows_);
    spec_ = spec;

    const double per_flow_bps = core::flow_wire_rate_bps(
        spec_.experiment.scenario,
        core::derive_point_seed(spec_.seed, core::PopulationSpec::kCalibrationSalt));
    saturation_ = offered_saturation(spec_.experiment.scenario,
                                     spec_.effective_contention(), per_flow_bps,
                                     spec_.max_hop_utilization);
    require_saturation(saturation_, saturated_, name_);

    (void)core::ExperimentEngine().run(spec_.flow_spec(0));
  }

  void run_op(const core::ExperimentBackend& backend, Tracer* tracer,
              std::size_t input) override {
    input_ = input;
    spec_.seed = input_seed(seed_, input);
    std::vector<core::PopulationShard> shards;
    for (std::size_t i = 0; i < kShards; ++i) {
      core::SweepOptions options;
      options.threads = threads_;
      options.shard_index = i;
      options.shard_count = kShards;
      core::ShardRunOptions durability;
      if (tracer) {
        // Fires after each completed chunk (done >= 1) on the thread that
        // ran it, and once up front with done = 0.
        durability.chunk_progress = [tracer](std::size_t done, std::size_t) {
          if (done > 0) tracer->chunk_done();
        };
      }
      const auto span = Tracer::scope(tracer, "population.run_shard");
      shards.push_back(
          core::run_population_shard(spec_, backend, options, durability));
    }
    files_.clear();
    {
      const auto span = Tracer::scope(tracer, "shard.serialize");
      for (const auto& shard : shards) {
        files_.push_back(core::serialize_shard(shard));
      }
    }
    std::vector<core::PopulationShard> parsed;
    {
      const auto span = Tracer::scope(tracer, "shard.parse");
      for (const auto& file : files_) parsed.push_back(core::parse_shard(file));
    }
    {
      const auto span = Tracer::scope(tracer, "shard.merge");
      result_ = core::merge_shards(std::move(parsed));
    }
    const auto span = Tracer::scope(tracer, "population.result_json");
    json_ = core::population_result_json(result_);
  }

  Verdict check(std::size_t& units) const override {
    Verdict v;
    v.require(result_.flow_count == spec_.executed_flows(),
              "flow_count " + std::to_string(result_.flow_count) + " != " +
                  std::to_string(spec_.executed_flows()));
    v.require(result_.sampled_from == (sample_flows_ > 0 ? flows_ : 0),
              "sampled_from does not name the deployed population");
    v.require(result_.by_sample_size.size() == 3, "expected 3 sample sizes");
    for (const auto& p : result_.by_sample_size) {
      const auto& q = p.quantiles;
      for (const double r : {p.detected_fraction, p.mean_rate, p.min_rate,
                             p.max_rate, q.p05, q.p25, q.median, q.p75, q.p95}) {
        v.require(in_unit(r), "population rate outside [0, 1]");
      }
    }
    check_against_commit(v, name_, seed_, input_, json_);
    units = result_.flow_count;
    return v;
  }

  Probes probe() override {
    // finalize_population alone, on the chunks of the last op's shard
    // files; the result must render to the op's bytes.
    std::vector<core::ChunkAggregate> chunks;
    std::size_t bytes = 0;
    core::PopulationShard head;
    for (const auto& file : files_) {
      bytes += file.size();
      auto shard = core::parse_shard(file);
      for (auto& chunk : shard.chunks) chunks.push_back(std::move(chunk));
      head = std::move(shard);
    }
    std::sort(chunks.begin(), chunks.end(),
              [](const auto& a, const auto& b) { return a.first_flow < b.first_flow; });
    const auto all = linkpad::util::tree_reduce(
        std::move(chunks),
        [](core::ChunkAggregate& left, core::ChunkAggregate& right) {
          left.merge(right);
        });
    core::SampledFinalize sampled;
    if (head.sample_flows != 0) {
      sampled.population = head.flows;
      sampled.flow_ids = core::sampled_flow_ids(head.flows, head.sample_flows,
                                                head.sample_round, head.seed);
    }
    core::PopulationResult finalized;
    const double finalize_s = median_seconds(3, [&] {
      finalized = core::finalize_population(
          all, head.executed_flows(), head.sample_sizes, head.detection_threshold,
          head.mean_interval, head.sample_flows != 0 ? &sampled : nullptr);
    });
    if (core::population_result_json(finalized) != json_) {
      throw std::runtime_error(name_ +
                               " probe: finalize_population disagrees with merge");
    }

    const auto flow = core::ExperimentEngine().run(spec_.flow_spec(0));
    const double executed = static_cast<double>(spec_.executed_flows());
    return {
        {"population.finalize_s", finalize_s},
        {"population.offered_utilization", saturation_.offered_utilization},
        {"population.saturated_hops",
         static_cast<double>(saturation_.saturated_hops)},
        {"shard.bytes_per_flow", static_cast<double>(bytes) / executed},
        {"classify.windows", windows_classified(flow) * executed},
        {"sim.events_per_piat",
         events_per_piat(spec_.loaded_scenario(), spec_.seed)},
    };
  }

 private:
  static constexpr std::size_t kShards = 4;

  std::string name_;
  std::uint64_t seed_;
  std::size_t flows_;
  std::size_t sample_flows_;
  std::size_t threads_;
  bool saturated_;
  std::size_t input_ = 0;
  core::PopulationSpec spec_;
  Saturation saturation_;
  core::PopulationResult result_;
  std::vector<std::string> files_;
  std::string json_;
};

// ---------------------------------------------------------- robust_frontier

class RobustFrontier final : public Workload {
 public:
  explicit RobustFrontier(std::uint64_t seed) : seed_(seed) {}

  std::string name() const override { return "robust_frontier"; }
  std::string spec_text() const override {
    return "robust_frontier;lab_zero_cross(cit);budget_ladder=0,40,70,85,100;"
           "onoff=0.02;n=200;windows=12;space=5 features x 100,200,400 + "
           "cusum@far=0.05;threads=1;seed=" +
           std::to_string(seed_);
  }
  std::size_t pool_threads() const override { return 1; }

  void setup() override {
    core::RobustFrontierSpec spec;
    spec.frontier.scenario = core::lab_zero_cross(core::make_cit());
    spec.frontier.policies = core::budget_ladder({0.0, 40.0, 70.0, 85.0, 100.0});
    spec.frontier.policies.push_back(core::make_onoff(20e-3));
    spec.frontier.plan.adversary.window_size = 200;
    spec.frontier.plan.train_windows = 12;
    spec.frontier.plan.test_windows = 12;
    spec.frontier.seed = input_seed(seed_, 0);
    spec.space.window_sizes = {100, 200, 400};
    spec.space.cpd_target_fars = {0.05};
    if (spec.space.size() != 16) {
      throw std::runtime_error("robust_frontier: expected 16 candidates");
    }
    spec_ = spec;
    phase_.clear();
    for (std::size_t input = 0; input < kInputs; ++input) {
      spec.frontier.seed = input_seed(seed_, input);
      for (std::size_t i = 0; i < spec.frontier.policies.size(); ++i) {
        phase_[spec.selection_seed(i)] = "tuner";
        phase_[spec.scoring_seed(i)] = "frontier.score";
      }
    }
    (void)core::ExperimentEngine().run(spec_.frontier.point_spec(0));
  }

  void run_op(const core::ExperimentBackend& backend, Tracer*,
              std::size_t input) override {
    input_ = input;
    spec_.frontier.seed = input_seed(seed_, input);
    core::SweepOptions options;
    options.threads = 1;
    result_ = core::run_robust_frontier(spec_, backend, options);
  }

  Verdict check(std::size_t& units) const override {
    Verdict v;
    const auto& points = result_.points;
    v.require(points.size() == spec_.frontier.policies.size(),
              "one point per policy");
    std::vector<core::FrontierPoint> ladder;
    for (const auto& p : points) {
      v.require(in_unit(p.fixed_detection) && in_unit(p.tuned_detection) &&
                    in_unit(p.selection_score),
                "frontier rate outside [0, 1]");
      v.require(p.tuned_detection >= p.fixed_detection,
                "tuned < fixed at " + p.policy);
      if (ladder.size() + 1 < points.size()) {
        core::FrontierPoint rung;
        rung.detection_rate = p.tuned_detection;
        ladder.push_back(rung);
      }
    }
    // robust_frontier_study's rule: one test window of slack per rung.
    v.require(core::detection_monotone_nonincreasing(
                  ladder, 1.0 / static_cast<double>(
                                    spec_.frontier.plan.test_windows)),
              "budget ladder not monotone under tuned rates");
    check_against_commit(v, name(), seed_, input_,
                         core::robust_frontier_json(result_));
    units = points.size();
    return v;
  }

  PhaseFn phases() const override {
    return [map = phase_](std::uint64_t seed) {
      const auto it = map.find(seed);
      return it == map.end() ? std::string() : it->second;
    };
  }

  Probes probe() override {
    const auto candidates = spec_.space.expand();
    std::size_t cpd_index = candidates.size();
    for (std::size_t i = 0; i < candidates.size(); ++i) {
      if (candidates[i].cpd) cpd_index = i;
    }
    // The tuner's own counts: tune_adversary per point, exactly as
    // run_robust_frontier calls it; its winners must match the op's.
    double evaluations = 0.0;
    double rounds = 0.0;
    double finalists = 0.0;
    double calibrations = 0.0;
    for (std::size_t i = 0; i < spec_.frontier.policies.size(); ++i) {
      core::Scenario scenario = spec_.frontier.scenario;
      scenario.base.policy = spec_.frontier.policies[i];
      core::TuneOptions tune = spec_.tune;
      tune.sweep.threads = 1;
      const auto tuned = core::tune_adversary(scenario, spec_.frontier.plan,
                                              spec_.space,
                                              spec_.selection_seed(i),
                                              core::sim_backend(), tune);
      if (tuned.winner != result_.points[i].winner || tuned.rounds > 2) {
        throw std::runtime_error(
            "robust_frontier probe: tuner replay disagrees with the op");
      }
      evaluations += static_cast<double>(tuned.evaluations);
      rounds += static_cast<double>(tuned.rounds);
      finalists += static_cast<double>(tuned.final_scores.size());
      // One calibration per engine run carrying the CUSUM candidate: the
      // first (all-candidate) round, the final round if it survived, and
      // the scoring run if it won.
      bool in_final = false;
      for (const auto& s : tuned.final_scores) in_final |= s.candidate == cpd_index;
      calibrations += (tuned.rounds > 1 ? 1.0 : 0.0) + (in_final ? 1.0 : 0.0) +
                      (tuned.winner == cpd_index ? 1.0 : 0.0);
    }

    // The CUSUM candidate's Monte-Carlo calibration, called directly on the
    // first point's training capture (the engine's first-k raw pool).
    const core::ExperimentSpec point = spec_.frontier.point_spec(0);
    classify::CpdConfig config = *candidates.at(cpd_index).cpd;
    std::vector<std::vector<double>> samples;
    for (std::size_t c = 0; c < point.scenario.payload_rates.size(); ++c) {
      samples.push_back(core::ExperimentEngine().class_stream(
          point, c, config.max_training_samples, /*salt=*/1));
    }
    const double far = config.target_far;
    config.target_far = 0.0;  // fit only; the replay loop is timed below
    const auto model = classify::CpdModel::train(config, samples);
    const double calibration_s = median_seconds(3, [&] {
      (void)classify::calibrate_threshold(model, samples, far, config.horizon,
                                          config.trials, config.calibration_seed);
    });

    const auto scored = core::ExperimentEngine().run(point);
    const double trials = static_cast<double>(config.trials);
    return {
        {"tuner.evaluations", evaluations},
        {"tuner.rounds", rounds},
        {"tuner.useful_ratio", finalists / evaluations},
        {"cpd.calibration_s", calibration_s},
        {"cpd.replays", trials * calibrations},
        {"cpd.updates_per_s",
         trials * static_cast<double>(config.horizon) / calibration_s},
        {"classify.windows",
         windows_classified(scored) *
             static_cast<double>(spec_.frontier.policies.size())},
        {"sim.events_per_piat", events_per_piat(point.scenario, point.seed)},
    };
  }

 private:
  std::uint64_t seed_;
  std::size_t input_ = 0;
  core::RobustFrontierSpec spec_;
  std::map<std::uint64_t, std::string> phase_;
  core::RobustFrontierResult result_;
};

}  // namespace

std::uint64_t input_seed(std::uint64_t seed, std::size_t input) {
  return core::derive_point_seed(seed, input);
}

std::vector<std::string> workload_names() {
  return {"fig4b_curve", "campaign_unsaturated", "campaign_saturated",
          "robust_frontier"};
}

std::unique_ptr<Workload> make_workload(std::string_view name,
                                        std::uint64_t seed) {
  if (name == "fig4b_curve") return std::make_unique<Fig4bCurve>(seed);
  if (name == "campaign_unsaturated") {
    return std::make_unique<Campaign>(std::string(name), seed, 256, 0, 2, false);
  }
  if (name == "campaign_saturated") {
    return std::make_unique<Campaign>(std::string(name), seed, 100000, 128, 1,
                                      true);
  }
  if (name == "robust_frontier") return std::make_unique<RobustFrontier>(seed);
  return nullptr;
}

}  // namespace perfbench
