#include "sim/timer_policy.hpp"

#include <algorithm>
#include <sstream>

#include "util/check.hpp"
#include "util/types.hpp"

namespace linkpad::sim {

// --------------------------------------------------- ConstantIntervalTimer

ConstantIntervalTimer::ConstantIntervalTimer(Seconds tau) : tau_(tau) {
  LINKPAD_EXPECTS(tau > 0.0);
}

std::string ConstantIntervalTimer::name() const {
  std::ostringstream out;
  out << "CIT(tau=" << units::to_ms(tau_) << "ms)";
  return out.str();
}

std::unique_ptr<TimerPolicy> ConstantIntervalTimer::clone() const {
  return std::make_unique<ConstantIntervalTimer>(*this);
}

// ----------------------------------------------------- NormalIntervalTimer

NormalIntervalTimer::NormalIntervalTimer(Seconds tau, Seconds sigma,
                                         Seconds min_interval)
    : tau_(tau),
      sigma_(sigma),
      min_interval_(min_interval >= 0.0 ? min_interval : tau / 100.0),
      dist_(tau, sigma, min_interval >= 0.0 ? min_interval : tau / 100.0) {
  LINKPAD_EXPECTS(tau > 0.0);
  LINKPAD_EXPECTS(sigma > 0.0);
  LINKPAD_EXPECTS(min_interval_ < tau);
}

Seconds NormalIntervalTimer::next_interval(util::Rng& rng) {
  return dist_.sample(rng);
}

Seconds NormalIntervalTimer::mean_interval() const { return dist_.mean(); }

double NormalIntervalTimer::interval_variance() const {
  return dist_.variance();
}

std::string NormalIntervalTimer::name() const {
  std::ostringstream out;
  out << "VIT-normal(tau=" << units::to_ms(tau_)
      << "ms, sigma=" << units::to_us(sigma_) << "us)";
  return out.str();
}

std::unique_ptr<TimerPolicy> NormalIntervalTimer::clone() const {
  return std::make_unique<NormalIntervalTimer>(tau_, sigma_, min_interval_);
}

// ---------------------------------------------------- UniformIntervalTimer

UniformIntervalTimer::UniformIntervalTimer(Seconds tau, Seconds half_width)
    : tau_(tau), half_width_(half_width),
      dist_(tau - half_width, tau + half_width) {
  LINKPAD_EXPECTS(tau > 0.0);
  LINKPAD_EXPECTS(half_width > 0.0);
  LINKPAD_EXPECTS(half_width < tau);
}

Seconds UniformIntervalTimer::next_interval(util::Rng& rng) {
  return dist_.sample(rng);
}

double UniformIntervalTimer::interval_variance() const {
  return dist_.variance();
}

std::string UniformIntervalTimer::name() const {
  std::ostringstream out;
  out << "VIT-uniform(tau=" << units::to_ms(tau_)
      << "ms, w=" << units::to_us(half_width_) << "us)";
  return out.str();
}

std::unique_ptr<TimerPolicy> UniformIntervalTimer::clone() const {
  return std::make_unique<UniformIntervalTimer>(tau_, half_width_);
}

// ------------------------------------------------- ShiftedExponentialTimer

ShiftedExponentialTimer::ShiftedExponentialTimer(Seconds offset, Seconds scale)
    : offset_(offset), scale_(scale), dist_(scale) {
  LINKPAD_EXPECTS(offset >= 0.0);
  LINKPAD_EXPECTS(scale > 0.0);
}

Seconds ShiftedExponentialTimer::next_interval(util::Rng& rng) {
  return offset_ + dist_.sample(rng);
}

std::string ShiftedExponentialTimer::name() const {
  std::ostringstream out;
  out << "VIT-shiftexp(offset=" << units::to_ms(offset_)
      << "ms, scale=" << units::to_us(scale_) << "us)";
  return out.str();
}

std::unique_ptr<TimerPolicy> ShiftedExponentialTimer::clone() const {
  return std::make_unique<ShiftedExponentialTimer>(offset_, scale_);
}

// --------------------------------------------------------------- OnOffTimer

OnOffTimer::OnOffTimer(std::unique_ptr<TimerPolicy> base, Seconds hangover)
    : base_(std::move(base)), hangover_(hangover) {
  LINKPAD_EXPECTS(base_ != nullptr);
  LINKPAD_EXPECTS(hangover >= 0.0);
}

Seconds OnOffTimer::next_interval(util::Rng& rng) {
  return base_->next_interval(rng);
}

Seconds OnOffTimer::mean_interval() const { return base_->mean_interval(); }

double OnOffTimer::interval_variance() const {
  return base_->interval_variance();
}

void OnOffTimer::observe(const GatewayFeedback& feedback) {
  if (feedback.arrivals_since_fire > 0 || feedback.emitted_payload) {
    last_activity_ = feedback.now;
  }
  base_->observe(feedback);
}

bool OnOffTimer::spend_dummy(const GatewayFeedback& feedback) {
  // Activity during this interval keeps the pad on even before observe()
  // has refreshed the clock; otherwise pad only within the hangover window.
  // Either way the base gets the final word (and charges its own budget),
  // so decorators compose: OnOff(TokenBucket(...)) still caps dummies.
  if (feedback.arrivals_since_fire == 0 &&
      feedback.now - last_activity_ > hangover_) {
    return false;
  }
  return base_->spend_dummy(feedback);
}

std::string OnOffTimer::name() const {
  std::ostringstream out;
  out << "onoff[" << base_->name() << ", hangover=" << units::to_ms(hangover_)
      << "ms]";
  return out.str();
}

std::unique_ptr<TimerPolicy> OnOffTimer::clone() const {
  // Configuration only: the clone starts idle.
  return std::make_unique<OnOffTimer>(base_->clone(), hangover_);
}

// --------------------------------------------------------- TokenBucketTimer

TokenBucketTimer::TokenBucketTimer(std::unique_ptr<TimerPolicy> base,
                                   double dummy_budget_per_sec, double burst)
    : base_(std::move(base)),
      rate_(dummy_budget_per_sec),
      burst_(burst),
      tokens_(burst) {
  LINKPAD_EXPECTS(base_ != nullptr);
  LINKPAD_EXPECTS(dummy_budget_per_sec >= 0.0);
  LINKPAD_EXPECTS(burst >= 0.0);
  // A positive budget with a bucket that can never hold one whole token
  // (burst < 1) would silently emit NOTHING forever — reject the trap.
  LINKPAD_EXPECTS(dummy_budget_per_sec == 0.0 || burst >= 1.0);
}

Seconds TokenBucketTimer::next_interval(util::Rng& rng) {
  return base_->next_interval(rng);
}

Seconds TokenBucketTimer::mean_interval() const {
  return base_->mean_interval();
}

double TokenBucketTimer::interval_variance() const {
  return base_->interval_variance();
}

void TokenBucketTimer::refill(Seconds now) {
  if (now > last_refill_) {
    tokens_ = std::min(burst_, tokens_ + (now - last_refill_) * rate_);
    last_refill_ = now;
  }
}

void TokenBucketTimer::observe(const GatewayFeedback& feedback) {
  // Forward link state so reactive bases (e.g. Budget(OnOff(...))) keep
  // their own clocks current.
  base_->observe(feedback);
}

bool TokenBucketTimer::spend_dummy(const GatewayFeedback& feedback) {
  refill(feedback.now);
  if (tokens_ < 1.0) return false;
  if (!base_->spend_dummy(feedback)) return false;
  tokens_ -= 1.0;
  return true;
}

std::string TokenBucketTimer::name() const {
  std::ostringstream out;
  out << "budget[" << base_->name() << ", dummies=" << rate_
      << "/s, burst=" << burst_ << "]";
  return out.str();
}

std::unique_ptr<TimerPolicy> TokenBucketTimer::clone() const {
  // Configuration only: the clone starts with a full bucket at t = 0.
  return std::make_unique<TokenBucketTimer>(base_->clone(), rate_, burst_);
}

// ---------------------------------------------------------- AdaptiveGapTimer

AdaptiveGapTimer::AdaptiveGapTimer(Seconds base_gap, double gain,
                                   Seconds min_gap)
    : base_gap_(base_gap), gain_(gain), min_gap_(min_gap) {
  LINKPAD_EXPECTS(base_gap > 0.0);
  LINKPAD_EXPECTS(gain >= 0.0);
  LINKPAD_EXPECTS(min_gap > 0.0 && min_gap <= base_gap);
}

Seconds AdaptiveGapTimer::next_interval(util::Rng& /*rng*/) {
  const Seconds gap =
      base_gap_ / (1.0 + gain_ * static_cast<double>(queue_depth_));
  return std::max(min_gap_, gap);
}

void AdaptiveGapTimer::observe(const GatewayFeedback& feedback) {
  queue_depth_ = feedback.queue_depth;
}

std::string AdaptiveGapTimer::name() const {
  std::ostringstream out;
  out << "adaptive-gap(base=" << units::to_ms(base_gap_)
      << "ms, gain=" << gain_ << ", min=" << units::to_ms(min_gap_) << "ms)";
  return out.str();
}

std::unique_ptr<TimerPolicy> AdaptiveGapTimer::clone() const {
  // Configuration only: the clone starts with an empty-queue view.
  return std::make_unique<AdaptiveGapTimer>(base_gap_, gain_, min_gap_);
}

}  // namespace linkpad::sim
