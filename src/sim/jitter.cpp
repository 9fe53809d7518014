#include "sim/jitter.hpp"

#include <cmath>

#include "util/check.hpp"

namespace linkpad::sim {

GatewayJitterModel::GatewayJitterModel(const JitterParams& params)
    : params_(params),
      context_switch_(params.sigma_context_switch),
      irq_block_(params.sigma_irq_block) {
  LINKPAD_EXPECTS(params.sigma_context_switch > 0.0);
  LINKPAD_EXPECTS(params.sigma_irq_block > 0.0);
}

double GatewayJitterModel::effective_piat_variance(
    double mean_arrivals_per_interval) const {
  const double s2 = params_.sigma_irq_block * params_.sigma_irq_block;
  const double cs2 =
      params_.sigma_context_switch * params_.sigma_context_switch;
  const double cs_var = cs2 * (1.0 - 2.0 / M_PI);
  return 2.0 * (cs_var + mean_arrivals_per_interval * s2);
}

double GatewayJitterModel::delay_variance(
    double mean_arrivals_per_interval) const {
  // For a Bernoulli/Poisson number A of blocking events with mean a:
  // Var(Σ) = a·E[D²] − a·E[D]² + Var(A)·E[D]² ≈ a·E[D²] − a²·E[D]²·0 ...
  // For the CBR payloads we use, A is 0/1 with P(1)=a (a ≤ 1):
  //   Var = a·E[D²] − (a·E[D])².
  const double s2 = params_.sigma_irq_block * params_.sigma_irq_block;
  const double ed = params_.sigma_irq_block * std::sqrt(2.0 / M_PI);
  const double a = mean_arrivals_per_interval;
  const double blocking = a * s2 - (a * ed) * (a * ed);
  const double cs2 = params_.sigma_context_switch * params_.sigma_context_switch;
  const double cs_var = cs2 * (1.0 - 2.0 / M_PI);
  return cs_var + blocking;
}

}  // namespace linkpad::sim
