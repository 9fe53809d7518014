// Gateway interrupt-jitter model: the physical mechanism behind δ_gw.
//
// The paper traces CIT's information leak to the gateway OS (Sec 4.1.2):
//  (1) context switching into the timer interrupt routine takes a random
//      time, and
//  (2) each arriving payload packet raises a NIC interrupt that can BLOCK
//      the scheduled timer interrupt for a short random time.
// Mechanism (2) couples the padded stream's timing to the payload rate:
// more payload packets per timer interval ⇒ more blocking events ⇒ larger
// Var(δ_gw) ⇒ σ_gw,h > σ_gw,l ⇒ variance ratio r > 1 (eq. 16/28).
//
// We model the emission delay of one timer interrupt as
//     δ = |N(0, σ_cs²)|  +  Σ_{i=1..A} |N(0, σ_irq²)|
// where A is the number of payload arrivals since the previous interrupt.
// Delays are one-sided (an interrupt can be late, never early). The rate-
// dependent mean of δ cancels out of inter-arrival differences, so padded
// PIAT keeps the same mean at all payload rates — the paper's assumption in
// Sec 4.2, which Fig 4(a) validates.
//
// Default constants are calibrated so the zero-cross-traffic lab system
// shows σ(PIAT) ≈ 9–10 µs and r_CIT ≈ 1.3 (see DESIGN.md "Calibration").
#pragma once

#include "stats/distributions.hpp"
#include "util/rng.hpp"
#include "util/types.hpp"

namespace linkpad::sim {

/// Tunable jitter constants for a gateway host.
struct JitterParams {
  /// Std-dev of the context-switch component (half-normal), seconds.
  double sigma_context_switch = 10e-6;
  /// Std-dev of one NIC-interrupt blocking delay (half-normal), seconds.
  double sigma_irq_block = 6.4e-6;

  /// A perfectly clean host (useful in unit tests).
  static JitterParams none() { return {1e-12, 1e-12}; }
};

/// Samples emission delays for the padding gateway's timer interrupts.
class GatewayJitterModel {
 public:
  explicit GatewayJitterModel(const JitterParams& params);

  /// Delay added to the scheduled interrupt time when `payload_arrivals`
  /// payload packets arrived since the previous interrupt. Always ≥ 0.
  /// Inline: the gateway draws one per timer fire.
  [[nodiscard]] Seconds emission_delay(util::Rng& rng,
                                       unsigned payload_arrivals) const {
    Seconds delay = context_switch_.sample(rng);
    for (unsigned i = 0; i < payload_arrivals; ++i) {
      delay += irq_block_.sample(rng);
    }
    return delay;
  }

  /// Marginal Var(δ) when the per-interval arrival count is Bernoulli with
  /// mean `a` ≤ 1 (used by tests to cross-check the sampler).
  [[nodiscard]] double delay_variance(double mean_arrivals_per_interval) const;

  /// EFFECTIVE contribution of gateway jitter to Var(PIAT). A PIAT is the
  /// difference of consecutive emission delays, X_k = T + δ_k − δ_{k−1}, so
  ///   Var-contribution = 2·Var(δ) − 2·Cov(δ_k, δ_{k−1})
  ///                    = 2·[σ_cs²(1−2/π) + a·E[D²]] ,  E[D²] = σ_irq².
  /// The covariance term matters: with CBR payload below 1/(2τ) pps an
  /// arrival window is never followed by another arrival window, giving
  /// Cov(A_k, A_{k−1}) = −a² — which cancels the −(aE[D])² of the marginal
  /// variance exactly; Poisson arrivals (Var(A)=a, Cov=0) land on the same
  /// expression. Validated against the DES in tests/sim/gateway_test.cpp.
  [[nodiscard]] double effective_piat_variance(
      double mean_arrivals_per_interval) const;

  [[nodiscard]] const JitterParams& params() const { return params_; }

 private:
  JitterParams params_;
  stats::HalfNormal context_switch_;
  stats::HalfNormal irq_block_;
};

}  // namespace linkpad::sim
