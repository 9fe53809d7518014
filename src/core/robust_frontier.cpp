#include "core/robust_frontier.hpp"

#include <algorithm>
#include <array>
#include <memory>
#include <numeric>
#include <stdexcept>
#include <utility>

#include "analysis/overhead.hpp"
#include "core/wire.hpp"
#include "util/check.hpp"

namespace linkpad::core::wire {

template <class V, Is<RobustFrontierPoint> T>
void fields(V& v, T& p) {
  v("policy", p.policy);
  v("overhead_bps", p.overhead_bps);
  v("wire_bps", p.wire_bps);
  v("dummy_fraction", p.dummy_fraction);
  v("delay_p95", p.delay_p95);
  v("fixed_detection", p.fixed_detection);
  v("tuned_detection", p.tuned_detection);
  v("winner", p.winner);
  v("winner_label", p.winner_label);
  v("selection_score", p.selection_score);
  v("pareto", p.pareto_efficient);
}

}  // namespace linkpad::core::wire

namespace linkpad::core {

namespace {

/// The candidate's evaluation spec: `plan` stripped to the candidate
/// alone. The engine requires a primary feature detector, so a sample-mean
/// probe at the candidate's own window size rides along (cheapest
/// accumulator; its verdict is never read) while the candidate itself
/// rides plan.detectors and its DetectorOutcome::attack_score is the only
/// number the tuner consumes. Matching the probe window to the candidate
/// sizes the capture exactly: train/test limits scale with the candidate's
/// window, so small-window candidates are not charged for large-window
/// captures.
ExperimentSpec candidate_spec(const Scenario& scenario,
                              const AdversaryPlan& plan,
                              const classify::DetectorSpec& candidate,
                              std::uint64_t seed, std::size_t train_windows,
                              std::size_t test_windows) {
  ExperimentSpec spec;
  spec.scenario = scenario;
  spec.plan = plan;
  spec.plan.extra_features.clear();
  spec.plan.adversary = candidate.adversary;
  spec.plan.adversary.feature = classify::FeatureKind::kSampleMean;
  spec.plan.detectors = {candidate};
  spec.plan.train_windows = train_windows;
  spec.plan.test_windows = test_windows;
  spec.seed = seed;
  return spec;
}

/// Fail fast when the backend cannot account padding cost (same probe as
/// run_frontier): reject a passive live tap BEFORE paying for tuning.
void require_overhead_accounting(const ExperimentBackend& backend,
                                 const ExperimentSpec& probe_spec,
                                 const char* who) {
  const auto source = backend.open(probe_spec.scenario, /*class_index=*/0,
                                   probe_spec.seed, /*salt=*/1);
  if (!source->overhead().has_value()) {
    throw std::invalid_argument(
        std::string(who) + ": backend '" + backend.name() +
        "' provides no padding-cost accounting (PiatSource::overhead) — "
        "the overhead/detectability frontier needs a gateway-visible "
        "backend such as the simulated testbed");
  }
}

/// One stored (class, salt) stream of a tuning capture.
struct StoredStream {
  std::vector<double> piats;
  bool exhausted = false;  ///< the source backend came up short
};

/// Reads one stored stream from its start, like a fresh open of the
/// backend it was pulled from.
class StoredSource final : public PiatSource {
 public:
  StoredSource(const StoredStream& stream, std::size_t class_index,
               std::uint64_t salt)
      : stream_(&stream), class_index_(class_index), salt_(salt) {}

  std::size_t collect(std::size_t count, std::vector<double>& out) override {
    const std::size_t left = stream_->piats.size() - cursor_;
    if (count > left && !stream_->exhausted) {
      throw std::out_of_range(
          "stored capture: read past the stored stream (class " +
          std::to_string(class_index_) + ", salt " + std::to_string(salt_) +
          "): " + std::to_string(stream_->piats.size()) + " PIATs stored, " +
          std::to_string(cursor_ + count) + " requested");
    }
    const std::size_t take = std::min(count, left);
    const double* first = stream_->piats.data() + cursor_;
    out.insert(out.end(), first, first + take);
    cursor_ += take;
    return take;
  }

  [[nodiscard]] std::string name() const override { return "stored"; }

 private:
  const StoredStream* stream_;
  std::size_t class_index_;
  std::uint64_t salt_;
  std::size_t cursor_ = 0;
};

/// Read-only backend over the (class, salt ∈ {1, 2}) streams of one
/// (scenario, seed). Every open of a key replays the same stored vector,
/// so the store is replayable whatever the backend it was pulled from.
class StoredCaptureBackend final : public ExperimentBackend {
 public:
  StoredCaptureBackend(std::uint64_t seed,
                       std::vector<std::array<StoredStream, 2>> streams)
      : seed_(seed), streams_(std::move(streams)) {}

  [[nodiscard]] std::unique_ptr<PiatSource> open(
      const Scenario&, std::size_t class_index, std::uint64_t seed,
      std::uint64_t salt) const override {
    if (seed != seed_ || class_index >= streams_.size() || salt < 1 ||
        salt > 2) {
      throw std::out_of_range(
          "stored capture: no stream for class " +
          std::to_string(class_index) + ", seed " + std::to_string(seed) +
          ", salt " + std::to_string(salt));
    }
    return std::make_unique<StoredSource>(streams_[class_index][salt - 1],
                                          class_index, salt);
  }

  [[nodiscard]] std::string name() const override { return "stored"; }

 private:
  std::uint64_t seed_;
  std::vector<std::array<StoredStream, 2>> streams_;  ///< [class][salt − 1]
};

}  // namespace

namespace detail {

std::unique_ptr<ExperimentBackend> store_capture(
    const ExperimentBackend& backend, const Scenario& scenario,
    std::uint64_t seed, std::size_t train_piats, std::size_t test_piats,
    std::size_t batch_piats) {
  std::vector<std::array<StoredStream, 2>> streams(
      scenario.payload_rates.size());
  for (std::size_t c = 0; c < streams.size(); ++c) {
    for (const std::uint64_t salt : {1, 2}) {
      const std::size_t want = salt == 1 ? train_piats : test_piats;
      StoredStream& stream = streams[c][salt - 1];
      stream.piats =
          pull_stream(backend, scenario, c, seed, salt, want, batch_piats);
      stream.exhausted = stream.piats.size() < want;
    }
  }
  return std::make_unique<StoredCaptureBackend>(seed, std::move(streams));
}

}  // namespace detail

TuneResult tune_adversary(const Scenario& scenario, const AdversaryPlan& plan,
                          const classify::DetectorSearchSpace& space,
                          std::uint64_t seed, const ExperimentBackend& backend,
                          const TuneOptions& options) {
  LINKPAD_EXPECTS(options.exhaustive_limit >= 1);
  LINKPAD_EXPECTS(options.min_windows >= 2);
  LINKPAD_EXPECTS(plan.train_windows >= 2);
  LINKPAD_EXPECTS(plan.test_windows >= 1);
  const auto candidates = space.expand();

  // Simulate once per call: every candidate of every round reads the same
  // (class, salt) streams of (scenario, seed), so pull each once at the
  // widest budget any candidate reads — a candidate's capture is its
  // train/test windows × its own window size — and serve the rounds from
  // memory.
  std::size_t widest_window = 0;
  for (const auto& candidate : candidates) {
    widest_window = std::max(widest_window, candidate.adversary.window_size);
  }
  const auto capture = detail::store_capture(
      backend, scenario, seed, plan.train_windows * widest_window,
      plan.test_windows * widest_window, options.sweep.batch_piats);

  TuneResult result;
  // One round = one SweepRunner sweep over the survivors, every candidate
  // an independent point of the same (scenario, seed): identical captures,
  // so a round is a fair race, and the runner's determinism contract makes
  // the ranking bit-identical at any thread count.
  const auto evaluate = [&](const std::vector<std::size_t>& survivors,
                            std::size_t train_windows,
                            std::size_t test_windows) {
    const auto results =
        SweepRunner(*capture, options.sweep)
            .run(survivors.size(), [&](std::size_t i) {
              return candidate_spec(scenario, plan, candidates[survivors[i]],
                                    seed, train_windows, test_windows);
            });
    std::vector<double> scores(survivors.size());
    for (std::size_t i = 0; i < survivors.size(); ++i) {
      scores[i] = results[i].detectors.at(0).attack_score;
    }
    result.rounds += 1;
    result.evaluations += survivors.size();
    return scores;
  };

  std::vector<std::size_t> survivors(candidates.size());
  std::iota(survivors.begin(), survivors.end(), std::size_t{0});

  // Halving rounds: budget doubles from min_windows, each round keeps the
  // better half. The prefix property makes the schedule honest — a doubled
  // budget reads a longer prefix of the same stored capture rather than
  // re-rolling it, so survivors are re-scored on strictly more of the same
  // evidence, never on a different draw.
  std::size_t budget = options.min_windows;
  while (survivors.size() > options.exhaustive_limit &&
         budget < plan.train_windows) {
    const auto scores =
        evaluate(survivors, std::min(budget, plan.train_windows),
                 std::min(budget, plan.test_windows));
    std::vector<std::size_t> order(survivors.size());
    std::iota(order.begin(), order.end(), std::size_t{0});
    // stable_sort on descending score + ascending survivors ⇒ ties break
    // toward the lower candidate index, deterministically.
    std::stable_sort(order.begin(), order.end(),
                     [&](std::size_t a, std::size_t b) {
                       return scores[a] > scores[b];
                     });
    const std::size_t keep = (survivors.size() + 1) / 2;
    std::vector<std::size_t> next;
    next.reserve(keep);
    for (std::size_t i = 0; i < keep; ++i) next.push_back(survivors[order[i]]);
    std::sort(next.begin(), next.end());
    survivors = std::move(next);
    budget *= 2;
  }

  // Final round: the finalists (or, for small spaces, the whole grid) at
  // the plan's full budget.
  const auto final_scores =
      evaluate(survivors, plan.train_windows, plan.test_windows);
  std::size_t best = 0;
  for (std::size_t i = 1; i < survivors.size(); ++i) {
    if (final_scores[i] > final_scores[best]) best = i;
  }
  result.winner = survivors[best];
  result.winner_spec = candidates[result.winner];
  result.winner_label = classify::candidate_label(result.winner_spec);
  result.winner_score = final_scores[best];
  result.final_scores.reserve(survivors.size());
  for (std::size_t i = 0; i < survivors.size(); ++i) {
    result.final_scores.push_back(
        {survivors[i], classify::candidate_label(candidates[survivors[i]]),
         final_scores[i]});
  }
  return result;
}

std::vector<std::size_t> RobustFrontierResult::front() const {
  std::vector<std::size_t> indices;
  for (std::size_t i = 0; i < points.size(); ++i) {
    if (points[i].pareto_efficient) indices.push_back(i);
  }
  return indices;
}

RobustFrontierResult run_robust_frontier(const RobustFrontierSpec& spec,
                                         const ExperimentBackend& backend,
                                         SweepOptions options) {
  LINKPAD_EXPECTS(!spec.frontier.policies.empty());
  require_overhead_accounting(backend, spec.frontier.point_spec(0),
                              "run_robust_frontier");

  const std::size_t count = spec.frontier.policies.size();

  // Stage 1 — selection: tune the attacker per policy point on the
  // held-out seed. Points run in sequence; each tuning round is itself a
  // sharded sweep, so the pool stays busy and the outer order carries no
  // nondeterminism.
  std::vector<TuneResult> tuned;
  tuned.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    Scenario scenario = spec.frontier.scenario;
    scenario.base.policy = spec.frontier.policies[i];
    TuneOptions tune = spec.tune;
    tune.sweep = options;  // one sharding knob drives both stages
    tuned.push_back(tune_adversary(scenario, spec.frontier.plan, spec.space,
                                   spec.selection_seed(i), backend, tune));
  }

  // Stage 2 — scoring: one ordinary frontier sweep on run_frontier's
  // per-point seeds, each point's winner riding its bank. The fixed
  // detectors see streams bit-identical to run_frontier's (same seed, same
  // plan; the extra detector taps the capture without perturbing it), so
  // fixed_detection reproduces run_frontier exactly.
  const auto results = SweepRunner(backend, std::move(options))
                           .run(count, [&](std::size_t i) {
                             ExperimentSpec point = spec.frontier.point_spec(i);
                             point.plan.detectors.push_back(
                                 tuned[i].winner_spec);
                             return point;
                           });

  RobustFrontierResult result;
  result.points.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    const ExperimentResult& scored = results[i];
    RobustFrontierPoint point;
    point.policy = spec.frontier.policies[i]->name();
    for (const auto& outcome : scored.top().per_feature) {
      point.fixed_detection =
          std::max(point.fixed_detection, outcome.detection_rate);
    }
    // The tuned attacker keeps the fixed bank in hand: its rate is the
    // best of the fixed features AND the tuned detector, so the tuned
    // column is ≥ the fixed column by construction.
    point.tuned_detection = std::max(
        point.fixed_detection, scored.detectors.back().attack_score);
    if (!scored.mean_padding_bps().has_value()) {
      throw std::invalid_argument(
          "run_robust_frontier: backend '" + backend.name() +
          "' stopped providing padding-cost accounting mid-sweep");
    }
    point.overhead_bps = *scored.mean_padding_bps();
    point.wire_bps = *scored.mean_wire_bps();
    point.dummy_fraction = *scored.mean_dummy_fraction();
    point.delay_p95 = *scored.worst_delay_p95();
    point.winner = tuned[i].winner;
    point.winner_label = tuned[i].winner_label;
    point.selection_score = tuned[i].winner_score;
    result.points.push_back(std::move(point));
  }

  // Re-mark Pareto efficiency on the (overhead, TUNED detection) plane —
  // the frontier the defender actually faces.
  std::vector<std::pair<double, double>> coords;
  coords.reserve(result.points.size());
  for (const auto& point : result.points) {
    coords.emplace_back(point.overhead_bps, point.tuned_detection);
  }
  for (const std::size_t i : analysis::pareto_front(coords)) {
    result.points[i].pareto_efficient = true;
  }
  return result;
}

std::string robust_frontier_json(const RobustFrontierResult& result) {
  std::string out;
  wire::Writer writer(out);
  writer("version", 1u);
  writer("points", result.points);
  writer("front", result.front());
  writer.close();
  return out;
}

}  // namespace linkpad::core
