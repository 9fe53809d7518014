#include "classify/cpd.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <limits>

#include "util/check.hpp"
#include "util/rng.hpp"

namespace linkpad::classify {

namespace {

/// Mean / variance of a training pool (population variance, matching the
/// GaussianDensity fit the CUSUM side uses).
struct Moments {
  double mean = 0.0;
  double var = 0.0;
};

Moments moments_of(const std::vector<double>& xs) {
  Moments m;
  const double n = static_cast<double>(xs.size());
  for (double x : xs) m.mean += x;
  m.mean /= n;
  for (double x : xs) m.var += (x - m.mean) * (x - m.mean);
  m.var /= n;
  return m;
}

/// Variance floor: a jitter-free CIT capture is CONSTANT, and the EWMA
/// statistic divides by σ². Relative to the mean so the floor scales with
/// the PIAT magnitude; the absolute term keeps a zero-mean pool safe.
double floored_var(const Moments& m) {
  return std::max(m.var, 1e-12 * m.mean * m.mean +
                             std::numeric_limits<double>::min());
}

}  // namespace

std::string cpd_kind_name(CpdKind kind) {
  return kind == CpdKind::kCusum ? "cusum" : "adaptive-ewma";
}

CpdModel CpdModel::train(const CpdConfig& config,
                         const std::vector<std::vector<double>>& class_samples) {
  LINKPAD_EXPECTS(class_samples.size() == 2);
  for (const auto& pool : class_samples) LINKPAD_EXPECTS(pool.size() >= 2);
  LINKPAD_EXPECTS(config.ewma_alpha > 0.0);
  LINKPAD_EXPECTS(config.ewma_beta > 0.0 && config.ewma_beta < 1.0);
  LINKPAD_EXPECTS(config.target_far >= 0.0 && config.target_far < 1.0);
  if (config.target_far > 0.0) {
    LINKPAD_EXPECTS(config.horizon >= 1);
    LINKPAD_EXPECTS(config.trials >= 1);
  } else {
    LINKPAD_EXPECTS(config.threshold > 0.0);
  }

  CpdModel model;
  model.config_ = config;
  model.threshold_ = config.threshold;

  const Moments low = moments_of(class_samples[0]);
  const Moments high = moments_of(class_samples[1]);
  if (config.kind == CpdKind::kCusum) {
    model.classifier_ = BayesClassifier::train(
        class_samples, {0.5, 0.5}, config.density, config.bandwidth,
        config.fixed_bandwidth);
  } else {
    // Each side starts its EWMA at ITS null class's moments and presumes a
    // drift of ±alpha·μ toward the target class. sign(0) = 0: when the
    // trained means coincide (a perfectly equalizing defense) the side's
    // increment is identically zero — the detector honestly never fires.
    const double direction =
        high.mean > low.mean ? 1.0 : (high.mean < low.mean ? -1.0 : 0.0);
    model.ewma_[kSideHigh] = {low.mean, floored_var(low),
                              config.ewma_alpha * direction};
    model.ewma_[kSideLow] = {high.mean, floored_var(high),
                             -config.ewma_alpha * direction};
  }

  if (config.target_far > 0.0) {
    model.threshold_ =
        calibrate_threshold(model, class_samples, config.target_far,
                            config.horizon, config.trials,
                            config.calibration_seed);
  }
  return model;
}

CpdClassState CpdModel::initial_state() const {
  CpdClassState state;
  state.high.mean = ewma_[kSideHigh].mean0;
  state.low.mean = ewma_[kSideLow].mean0;
  return state;
}

double CpdModel::llr(double x) const {
  const auto& clf = *classifier_;
  return clf.density(1).log_pdf(x) - clf.density(0).log_pdf(x);
}

double CpdModel::increment(std::size_t side, CpdSideState& state,
                           double x) const {
  if (config_.kind == CpdKind::kCusum) {
    const double inc = llr(x);
    return side == kSideHigh ? inc : -inc;
  }
  const auto& params = ewma_[side];
  const double mu = state.mean;
  const double delta = params.drift * mu;  // presumed post-change shift
  state.mean = config_.ewma_beta * mu + (1.0 - config_.ewma_beta) * x;
  return (delta / params.var) * (x - mu - 0.5 * delta);
}

void CpdModel::update(CpdClassState& state, double x) const {
  ++state.n;
  const auto step = [&](CpdSideState& s, double inc) {
    s.g = std::max(0.0, s.g + inc);
    if (s.g > threshold_) {
      ++s.alarms;
      if (s.first_alarm == 0) s.first_alarm = state.n;
      s.g = 0.0;  // Page's reset: keep watching for the next change
    }
  };
  if (config_.kind == CpdKind::kCusum) {
    // One LLR per sample serves both sides: +llr targets ω_h, −llr ω_l.
    const double inc = llr(x);
    step(state.high, inc);
    step(state.low, -inc);
  } else {
    step(state.high, increment(kSideHigh, state.high, x));
    step(state.low, increment(kSideLow, state.low, x));
  }
}

double CpdModel::max_statistic(std::size_t side,
                               std::span<const double> stream) const {
  LINKPAD_EXPECTS(side == kSideHigh || side == kSideLow);
  CpdSideState state;
  state.mean = ewma_[side].mean0;
  double peak = 0.0;
  for (double x : stream) {
    state.g = std::max(0.0, state.g + increment(side, state, x));
    peak = std::max(peak, state.g);
  }
  return peak;
}

TimeToDetection CpdModel::time_to_detection(
    std::span<const CpdClassState> per_class) const {
  LINKPAD_EXPECTS(per_class.size() == 2);
  TimeToDetection out;
  out.detected = true;
  std::size_t worst = 0;
  for (std::size_t c = 0; c < per_class.size(); ++c) {
    const auto& state = per_class[c];
    const CpdSideState& detecting = c == 1 ? state.high : state.low;
    const CpdSideState& opposite = c == 1 ? state.low : state.high;
    if (detecting.first_alarm == 0) out.detected = false;
    worst = std::max(worst, detecting.first_alarm);
    out.false_alarms += opposite.alarms;
  }
  out.n_at_detection = out.detected ? worst : 0;
  return out;
}

double calibrate_threshold(const CpdModel& model,
                           const std::vector<std::vector<double>>& class_samples,
                           double target_far, std::size_t horizon,
                           std::size_t trials, std::uint64_t seed) {
  LINKPAD_EXPECTS(class_samples.size() == 2);
  for (const auto& pool : class_samples) LINKPAD_EXPECTS(!pool.empty());
  LINKPAD_EXPECTS(target_far > 0.0 && target_far < 1.0);
  LINKPAD_EXPECTS(horizon >= 1 && trials >= 1);

  // Per trial: bootstrap-replay each side's NULL class over the horizon
  // and keep the worst of the two side maxima — the first alarm at
  // threshold h happens within the horizon iff that max exceeds h
  // (resets only matter after the first crossing). Trials draw their RNG
  // substreams by index, so the estimate is order- and thread-independent.
  //
  // A CUSUM increment is a pure function of x, and a replay only ever
  // draws pool elements: each side's increments are computed once per
  // pool element, and every replay step is a table load plus the same
  // g ← max(0, g + inc) fold as max_statistic, on the same draws. The
  // adaptive-EWMA increment depends on its running mean, so it replays
  // through max_statistic sample by sample.
  const bool tabulate = model.config().kind == CpdKind::kCusum;
  std::array<std::vector<double>, 2> increments;
  if (tabulate) {
    for (const std::size_t side : {CpdModel::kSideHigh, CpdModel::kSideLow}) {
      const auto& pool = class_samples[side == CpdModel::kSideHigh ? 0 : 1];
      increments[side].reserve(pool.size());
      for (const double x : pool) {
        const double inc = model.llr(x);
        increments[side].push_back(side == CpdModel::kSideHigh ? inc : -inc);
      }
    }
  }
  const util::RngFactory factory(seed);
  std::vector<double> maxima;
  maxima.reserve(trials);
  std::vector<double> stream(tabulate ? 0 : horizon);
  for (std::size_t t = 0; t < trials; ++t) {
    auto rng = factory.make(t);
    double worst = 0.0;
    for (const std::size_t side :
         {CpdModel::kSideHigh, CpdModel::kSideLow}) {
      const auto& pool =
          class_samples[side == CpdModel::kSideHigh ? 0 : 1];
      const double size = static_cast<double>(pool.size());
      const auto draw = [&] {
        return static_cast<std::size_t>(rng.uniform01() * size);
      };
      double peak = 0.0;
      if (tabulate) {
        const std::vector<double>& table = increments[side];
        double g = 0.0;
        for (std::size_t i = 0; i < horizon; ++i) {
          g = std::max(0.0, g + table[draw()]);
          peak = std::max(peak, g);
        }
      } else {
        for (auto& x : stream) x = pool[draw()];
        peak = model.max_statistic(side, stream);
      }
      worst = std::max(worst, peak);
    }
    maxima.push_back(worst);
  }
  std::sort(maxima.begin(), maxima.end());
  // h = the empirical (1 − far) quantile: with a strict > alarm rule, the
  // fraction of trials whose max EXCEEDS h is ≈ target_far (≤ it on ties).
  const auto rank = static_cast<std::size_t>(
      std::ceil((1.0 - target_far) * static_cast<double>(trials)));
  const std::size_t index = std::min(trials - 1, std::max<std::size_t>(rank, 1) - 1);
  return maxima[index];
}

}  // namespace linkpad::classify
