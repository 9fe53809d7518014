// Padding timer policies: the single tunable parameter of a link-padding
// gateway (paper Sec 3.2 remark 2).
//
//  * CIT — constant interval timer: T ≡ τ (the common choice, shown by the
//    paper to leak through sample variance / entropy).
//  * VIT — variable interval timer: T drawn per interrupt from a positive
//    distribution. The paper models T ~ N(τ, σ_T²); we truncate at a minimum
//    interval so the timer stays physically realizable for any σ_T.
//  * Uniform / shifted-exponential VIT variants are extensions used by the
//    `abl_vit_distributions` bench: Theorems 1–3 depend on T only through
//    σ_T², so distribution shape should not matter — the bench verifies it.
//
// Beyond the paper's two points, the defense-frontier policies (DESIGN.md
// §2.8) REACT to the payload through the gateway's queue-feedback seam:
//  * OnOffTimer — idle-stop padding: dummies only near payload activity.
//  * TokenBucketTimer — budgeted padding: a hard cap on emitted dummy rate.
//  * AdaptiveGapTimer — the designed gap shrinks with gateway queue depth.
// These deliberately break the constant-wire-rate invariant; consumers that
// need a flow's offered load must measure it (sim::measured_wire_rate_bps)
// whenever payload_reactive() is true.
#pragma once

#include <memory>
#include <string>

#include "stats/distributions.hpp"
#include "util/rng.hpp"
#include "util/types.hpp"

namespace linkpad::sim {

/// Link-local state the gateway hands to payload-reactive policies at every
/// timer fire — the queue-feedback seam. Stateless policies ignore it.
struct GatewayFeedback {
  Seconds now = 0.0;                 ///< sim time of this interrupt routine
  std::size_t queue_depth = 0;       ///< payload packets waiting (post-dequeue)
  unsigned arrivals_since_fire = 0;  ///< payload arrivals since previous fire
  bool emitted_payload = false;      ///< this fire forwarded queued payload
  bool emitted_dummy = false;        ///< this fire emitted a dummy
};

/// Strategy producing successive designed timer intervals T_k.
class TimerPolicy {
 public:
  virtual ~TimerPolicy() = default;

  /// Draw the next designed interrupt interval (strictly positive).
  virtual Seconds next_interval(util::Rng& rng) = 0;

  /// E[T]: mean designed interval. For payload-reactive policies this is
  /// the designed (idle) pacing, NOT the realized wire rate.
  [[nodiscard]] virtual Seconds mean_interval() const = 0;

  /// Var(T) = σ_T² of eq. (9); zero for CIT. Designed variance only — a
  /// reactive policy's realized interval process is payload-driven.
  [[nodiscard]] virtual double interval_variance() const = 0;

  [[nodiscard]] virtual std::string name() const = 0;

  /// Queue-feedback seam: called by the gateway once per timer fire, after
  /// the emission decision and before the next interval is drawn. Stateful
  /// policies update their view of the link here; default is a no-op.
  virtual void observe(const GatewayFeedback& feedback) {
    (void)feedback;
  }

  /// Whether the gateway should emit a dummy at a fire that found the queue
  /// empty. Called at most once per fire, only when the queue is empty and
  /// before observe(); `feedback.emitted_*` are not yet set. Budgeted
  /// policies spend their budget here. Default: always pad (the paper's
  /// behaviour). Must not consume gateway RNG — emission decisions are a
  /// deterministic function of the observed link state.
  [[nodiscard]] virtual bool spend_dummy(const GatewayFeedback& feedback) {
    (void)feedback;
    return true;
  }

  /// True when emissions react to payload (on/off, budgeted, adaptive): the
  /// constant-wire-rate invariant does NOT hold, so shared-link load must be
  /// measured (sim::measured_wire_rate_bps), never derived from
  /// mean_interval().
  [[nodiscard]] virtual bool payload_reactive() const { return false; }

  /// Deep copy (each parallel trial owns an independent policy object).
  /// Clones copy CONFIGURATION but reset runtime state: a fresh testbed
  /// must not inherit another run's bucket level or activity clock.
  [[nodiscard]] virtual std::unique_ptr<TimerPolicy> clone() const = 0;
};

/// CIT: T ≡ tau.
class ConstantIntervalTimer final : public TimerPolicy {
 public:
  explicit ConstantIntervalTimer(Seconds tau);

  Seconds next_interval(util::Rng& /*rng*/) override { return tau_; }
  [[nodiscard]] Seconds mean_interval() const override { return tau_; }
  [[nodiscard]] double interval_variance() const override { return 0.0; }
  [[nodiscard]] std::string name() const override;
  [[nodiscard]] std::unique_ptr<TimerPolicy> clone() const override;

 private:
  Seconds tau_;
};

/// VIT with normal intervals N(tau, sigma²) truncated to [min_interval, ∞).
class NormalIntervalTimer final : public TimerPolicy {
 public:
  /// `min_interval` defaults to tau/100 (a timer cannot fire arbitrarily
  /// fast; the gateway needs time to emit the previous packet).
  NormalIntervalTimer(Seconds tau, Seconds sigma, Seconds min_interval = -1.0);

  Seconds next_interval(util::Rng& rng) override;
  [[nodiscard]] Seconds mean_interval() const override;
  [[nodiscard]] double interval_variance() const override;
  [[nodiscard]] std::string name() const override;
  [[nodiscard]] std::unique_ptr<TimerPolicy> clone() const override;

  [[nodiscard]] Seconds sigma_parameter() const { return sigma_; }

 private:
  Seconds tau_;
  Seconds sigma_;
  Seconds min_interval_;
  stats::TruncatedNormal dist_;
};

/// VIT with uniform intervals on [tau−w, tau+w] (same variance as a normal
/// when w = σ_T·√3).
class UniformIntervalTimer final : public TimerPolicy {
 public:
  UniformIntervalTimer(Seconds tau, Seconds half_width);

  Seconds next_interval(util::Rng& rng) override;
  [[nodiscard]] Seconds mean_interval() const override { return tau_; }
  [[nodiscard]] double interval_variance() const override;
  [[nodiscard]] std::string name() const override;
  [[nodiscard]] std::unique_ptr<TimerPolicy> clone() const override;

 private:
  Seconds tau_;
  Seconds half_width_;
  stats::Uniform dist_;
};

/// VIT with shifted-exponential intervals: T = offset + Exp(scale);
/// mean = offset + scale, variance = scale² (a skewed alternative).
class ShiftedExponentialTimer final : public TimerPolicy {
 public:
  ShiftedExponentialTimer(Seconds offset, Seconds scale);

  Seconds next_interval(util::Rng& rng) override;
  [[nodiscard]] Seconds mean_interval() const override { return offset_ + scale_; }
  [[nodiscard]] double interval_variance() const override { return scale_ * scale_; }
  [[nodiscard]] std::string name() const override;
  [[nodiscard]] std::unique_ptr<TimerPolicy> clone() const override;

 private:
  Seconds offset_;
  Seconds scale_;
  stats::Exponential dist_;
};

// ------------------------------------------- payload-reactive policies

/// On/off (idle-stop) padding: pace like `base`, but emit dummies only
/// within `hangover` seconds of the last payload activity (an arrival or a
/// forwarded payload packet). An idle protected subnet sends NOTHING — zero
/// idle overhead — at the price of leaking coarse on/off activity, the
/// weakness practical detectors exploit against naive adaptive shaping.
class OnOffTimer final : public TimerPolicy {
 public:
  OnOffTimer(std::unique_ptr<TimerPolicy> base, Seconds hangover);

  Seconds next_interval(util::Rng& rng) override;
  [[nodiscard]] Seconds mean_interval() const override;
  [[nodiscard]] double interval_variance() const override;
  [[nodiscard]] std::string name() const override;
  void observe(const GatewayFeedback& feedback) override;
  [[nodiscard]] bool spend_dummy(const GatewayFeedback& feedback) override;
  [[nodiscard]] bool payload_reactive() const override { return true; }
  [[nodiscard]] std::unique_ptr<TimerPolicy> clone() const override;

  [[nodiscard]] Seconds hangover() const { return hangover_; }

 private:
  std::unique_ptr<TimerPolicy> base_;
  Seconds hangover_;
  /// Time of the last observed payload activity; starts "idle" so a silent
  /// subnet never pads before its first packet.
  Seconds last_activity_ = -1e300;
};

/// Token-bucket budgeted padding: pace like `base`, but dummy emissions
/// spend from a bucket of capacity `burst` refilled at `dummy_budget`
/// tokens/sec. The dummies emitted over any horizon t are therefore capped
/// at burst + dummy_budget·t — a HARD overhead budget (property-tested on
/// random streams). Payload is never blocked; only dummies cost tokens.
/// A positive budget requires burst ≥ 1 (a bucket that can never hold one
/// whole token would silently never pad); budget 0 means no dummies beyond
/// the initial burst.
class TokenBucketTimer final : public TimerPolicy {
 public:
  TokenBucketTimer(std::unique_ptr<TimerPolicy> base,
                   double dummy_budget_per_sec, double burst = 1.0);

  Seconds next_interval(util::Rng& rng) override;
  [[nodiscard]] Seconds mean_interval() const override;
  [[nodiscard]] double interval_variance() const override;
  [[nodiscard]] std::string name() const override;
  void observe(const GatewayFeedback& feedback) override;
  [[nodiscard]] bool spend_dummy(const GatewayFeedback& feedback) override;
  [[nodiscard]] bool payload_reactive() const override { return true; }
  [[nodiscard]] std::unique_ptr<TimerPolicy> clone() const override;

  [[nodiscard]] double dummy_budget_per_sec() const { return rate_; }
  [[nodiscard]] double burst() const { return burst_; }

 private:
  void refill(Seconds now);

  std::unique_ptr<TimerPolicy> base_;
  double rate_;
  double burst_;
  double tokens_;  ///< starts full (= burst_)
  Seconds last_refill_ = 0.0;
};

/// Adaptive-gap padding: the designed interval reacts to gateway queue
/// depth — gap = max(min_gap, base_gap / (1 + gain·depth)) — so bursts
/// drain quickly while an idle link pads at the slow base rate. Wire rate
/// tracks payload (low overhead); the gap process is payload-correlated,
/// which is exactly the leak the defense frontier quantifies.
class AdaptiveGapTimer final : public TimerPolicy {
 public:
  AdaptiveGapTimer(Seconds base_gap, double gain, Seconds min_gap);

  Seconds next_interval(util::Rng& rng) override;
  [[nodiscard]] Seconds mean_interval() const override { return base_gap_; }
  [[nodiscard]] double interval_variance() const override { return 0.0; }
  [[nodiscard]] std::string name() const override;
  void observe(const GatewayFeedback& feedback) override;
  [[nodiscard]] bool payload_reactive() const override { return true; }
  [[nodiscard]] std::unique_ptr<TimerPolicy> clone() const override;

  [[nodiscard]] Seconds base_gap() const { return base_gap_; }
  [[nodiscard]] Seconds min_gap() const { return min_gap_; }

 private:
  Seconds base_gap_;
  double gain_;
  Seconds min_gap_;
  std::size_t queue_depth_ = 0;
};

}  // namespace linkpad::sim
