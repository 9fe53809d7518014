#include "core/frontier.hpp"

#include <algorithm>
#include <limits>
#include <stdexcept>
#include <utility>

#include "analysis/overhead.hpp"
#include "util/check.hpp"

namespace linkpad::core {

ExperimentSpec FrontierSpec::point_spec(std::size_t point) const {
  LINKPAD_EXPECTS(point < policies.size());
  LINKPAD_EXPECTS(policies[point] != nullptr);
  ExperimentSpec spec;
  spec.scenario = scenario;
  spec.scenario.base.policy = policies[point];
  spec.plan = plan;
  spec.seed = derive_point_seed(seed, point);
  return spec;
}

std::vector<std::size_t> FrontierResult::front() const {
  std::vector<std::size_t> indices;
  for (std::size_t i = 0; i < points.size(); ++i) {
    if (points[i].pareto_efficient) indices.push_back(i);
  }
  return indices;
}

namespace {

/// Fail fast when the backend cannot account padding cost: probe one
/// stream's overhead() BEFORE the sweep runs, so an unusable backend (a
/// passive live tap) is rejected without paying for the whole capture.
void require_overhead_accounting(const ExperimentBackend& backend,
                                 const ExperimentSpec& probe_spec) {
  const auto source = backend.open(probe_spec.scenario, /*class_index=*/0,
                                   probe_spec.seed, /*salt=*/1);
  if (!source->overhead().has_value()) {
    throw std::invalid_argument(
        "run_frontier: backend '" + backend.name() +
        "' provides no padding-cost accounting (PiatSource::overhead) — "
        "the overhead/detectability frontier needs a gateway-visible "
        "backend such as the simulated testbed");
  }
}

}  // namespace

FrontierResult run_frontier(const FrontierSpec& spec,
                            const ExperimentBackend& backend,
                            SweepOptions options) {
  LINKPAD_EXPECTS(!spec.policies.empty());
  require_overhead_accounting(backend, spec.point_spec(0));

  const auto results =
      SweepRunner(backend, std::move(options))
          .run(spec.policies.size(),
               [&](std::size_t i) { return spec.point_spec(i); });

  FrontierResult result;
  result.points.reserve(spec.policies.size());
  for (std::size_t i = 0; i < spec.policies.size(); ++i) {
    FrontierPoint point;
    point.policy = spec.policies[i]->name();
    point.result = results[i];
    for (const auto& outcome : point.result.top().per_feature) {
      point.detection_rate =
          std::max(point.detection_rate, outcome.detection_rate);
    }
    // The frontier IS the (overhead, detection) plane: scoring a point
    // without accounting as 0 would silently rank full CIT padding as
    // free. The pre-sweep probe above makes this unreachable for uniform
    // backends; keep it as the safety net.
    if (!point.result.mean_padding_bps().has_value()) {
      throw std::invalid_argument(
          "run_frontier: backend '" + backend.name() +
          "' stopped providing padding-cost accounting mid-sweep");
    }
    point.overhead_bps = *point.result.mean_padding_bps();
    point.wire_bps = *point.result.mean_wire_bps();
    point.dummy_fraction = *point.result.mean_dummy_fraction();
    point.delay_p95 = *point.result.worst_delay_p95();
    result.points.push_back(std::move(point));
  }

  std::vector<std::pair<double, double>> coords;
  coords.reserve(result.points.size());
  for (const auto& point : result.points) {
    coords.emplace_back(point.overhead_bps, point.detection_rate);
  }
  for (const std::size_t i : analysis::pareto_front(coords)) {
    result.points[i].pareto_efficient = true;
  }
  return result;
}

std::vector<std::shared_ptr<const sim::TimerPolicy>> budget_ladder(
    const std::vector<double>& dummy_budgets, Seconds tau, double burst) {
  std::vector<std::shared_ptr<const sim::TimerPolicy>> ladder;
  ladder.reserve(dummy_budgets.size());
  for (const double budget : dummy_budgets) {
    ladder.push_back(make_budgeted(budget, burst, tau));
  }
  return ladder;
}

bool detection_monotone_nonincreasing(const std::vector<FrontierPoint>& points,
                                      double tolerance) {
  LINKPAD_EXPECTS(tolerance >= 0.0);
  // Compare against the running minimum, not the previous point: adjacent
  // checks would let detection drift upward by the tolerance PER RUNG, so
  // a slow cumulative rise — a real "more budget helped the adversary"
  // violation — could pass. The running minimum bounds the total rise.
  double floor = std::numeric_limits<double>::infinity();
  for (const FrontierPoint& point : points) {
    if (point.detection_rate > floor + tolerance) return false;
    floor = std::min(floor, point.detection_rate);
  }
  return true;
}

}  // namespace linkpad::core
