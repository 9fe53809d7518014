#include "stats/distributions.hpp"

#include <array>
#include <cmath>

#include "stats/special_math.hpp"
#include "util/check.hpp"

namespace linkpad::stats {

namespace {
constexpr double kTwoPi = 6.283185307179586;

// ------------------------------------------------------------- Ziggurat --
//
// 256-layer Ziggurat rejection (Marsaglia & Tsang 2000, in the double-based
// formulation of Doornik 2005). The density is covered by 255 equal-area
// horizontal strips plus a base strip holding the tail; a draw picks a
// strip, accepts immediately when it lands inside the strip's rectangle
// core (~98.8% of draws: one uniform, one table compare), and otherwise
// falls back to an edge/tail test. Tables are built once at first use from
// the published (R, V) constants, not transcribed, so they are exact to
// double precision.

constexpr int kZigLayers = 256;

struct ZigTables {
  // x[0] > R is the pseudo-edge of the base strip; x[1] = R; x[256] = 0.
  std::array<double, kZigLayers + 1> x;
  std::array<double, kZigLayers + 1> f;  // density at x[i]
};

/// Build strip edges for a monotone density `pdf` with strip area `v` and
/// tail cut `r` (pdf unnormalized such that pdf(0) == 1).
template <typename Pdf, typename PdfInv>
ZigTables build_zig(double r, double v, Pdf pdf, PdfInv pdf_inv) {
  ZigTables t;
  t.x[0] = v / pdf(r);  // base strip: rectangle of width V/f(R) + the tail
  t.x[1] = r;
  t.x[kZigLayers] = 0.0;
  for (int i = 2; i < kZigLayers; ++i) {
    // Strip i sits on top of strip i-1: area V = x_i · (f(x_i) − f(x_{i−1}))
    t.x[i] = pdf_inv(v / t.x[i - 1] + pdf(t.x[i - 1]));
  }
  for (int i = 0; i <= kZigLayers; ++i) t.f[i] = pdf(t.x[i]);
  // Strip edges must descend strictly to 0 — anything else means the
  // (R, V) constants do not match the layer count.
  for (int i = 1; i <= kZigLayers; ++i) {
    LINKPAD_ENSURES(std::isfinite(t.x[i]) && t.x[i] < t.x[i - 1]);
  }
  return t;
}

const ZigTables& normal_zig() {
  // Doornik 2005, table for 256 blocks of the standard normal half-density.
  static const ZigTables t = build_zig(
      3.6541528853610088, 0.00492867323399,
      [](double x) { return std::exp(-0.5 * x * x); },
      [](double y) { return std::sqrt(-2.0 * std::log(y)); });
  return t;
}

const ZigTables& exponential_zig() {
  // Doornik 2005, 256 blocks of exp(−x).
  static const ZigTables t = build_zig(
      7.69711747013104972, 0.0039496598225815571993,
      [](double x) { return std::exp(-x); },
      [](double y) { return -std::log(y); });
  return t;
}

/// Uniform in (0, 1]: safe to pass to log().
inline double uniform_open0(Rng& rng) { return 1.0 - rng.uniform01(); }

/// Exact normal tail beyond `r` (Marsaglia 1964), sign applied by caller.
double normal_tail(Rng& rng, double r) {
  for (;;) {
    const double x = std::log(uniform_open0(rng)) / r;  // x <= 0
    const double y = std::log(uniform_open0(rng));
    if (-2.0 * y >= x * x) return r - x;
  }
}

}  // namespace

double sample_standard_normal_ziggurat(Rng& rng) {
  const ZigTables& t = normal_zig();
  for (;;) {
    const std::uint64_t bits = rng();
    const int i = static_cast<int>(bits & 0xff);
    const double u = 2.0 * rng.uniform01() - 1.0;
    const double x = u * t.x[i];
    // Inside the strip's rectangle core: accept without evaluating exp().
    if (std::abs(x) < t.x[i + 1]) return x;
    if (i == 0) {
      // Base strip: the rectangle part was rejected, so draw from the tail.
      const double tail = normal_tail(rng, t.x[1]);
      return u < 0.0 ? -tail : tail;
    }
    // Strip edge: accept against the density wedge.
    const double fx = std::exp(-0.5 * x * x);
    if (t.f[i + 1] + rng.uniform01() * (t.f[i] - t.f[i + 1]) < fx) return x;
  }
}

double sample_standard_exponential_ziggurat(Rng& rng) {
  const ZigTables& t = exponential_zig();
  for (;;) {
    const std::uint64_t bits = rng();
    const int i = static_cast<int>(bits & 0xff);
    const double u = rng.uniform01();
    const double x = u * t.x[i];
    if (x < t.x[i + 1]) return x;
    if (i == 0) {
      // Tail beyond R: memorylessness makes the tail draw exact.
      return t.x[1] + sample_standard_exponential_ziggurat(rng);
    }
    const double fx = std::exp(-x);
    if (t.f[i + 1] + rng.uniform01() * (t.f[i] - t.f[i + 1]) < fx) return x;
  }
}

double sample_standard_normal(Rng& rng) {
  // Marsaglia polar method; we deliberately do not cache the second deviate
  // so that the distribution objects stay stateless/shareable.
  for (;;) {
    const double u = 2.0 * rng.uniform01() - 1.0;
    const double v = 2.0 * rng.uniform01() - 1.0;
    const double s = u * u + v * v;
    if (s > 0.0 && s < 1.0) {
      return u * std::sqrt(-2.0 * std::log(s) / s);
    }
  }
}

// ---------------------------------------------------------------- Normal --

Normal::Normal(double mean_value, double sigma) : mean_(mean_value), sigma_(sigma) {
  LINKPAD_EXPECTS(sigma > 0.0);
}

double Normal::pdf(double x) const {
  const double z = (x - mean_) / sigma_;
  return std::exp(-0.5 * z * z) / (sigma_ * std::sqrt(kTwoPi));
}

double Normal::log_pdf(double x) const {
  const double z = (x - mean_) / sigma_;
  return -0.5 * z * z - std::log(sigma_) - 0.5 * std::log(kTwoPi);
}

double Normal::cdf(double x) const {
  return normal_cdf((x - mean_) / sigma_);
}

double Normal::quantile(double p) const {
  return mean_ + sigma_ * normal_quantile(p);
}

double Normal::sample(Rng& rng) const {
  return mean_ + sigma_ * sample_standard_normal(rng);
}

// ------------------------------------------------------------ HalfNormal --

HalfNormal::HalfNormal(double sigma) : sigma_(sigma) {
  LINKPAD_EXPECTS(sigma > 0.0);
}

double HalfNormal::mean() const { return sigma_ * std::sqrt(2.0 / M_PI); }

double HalfNormal::variance() const {
  return sigma_ * sigma_ * (1.0 - 2.0 / M_PI);
}

double HalfNormal::pdf(double x) const {
  if (x < 0.0) return 0.0;
  const double z = x / sigma_;
  return std::sqrt(2.0 / M_PI) / sigma_ * std::exp(-0.5 * z * z);
}

double HalfNormal::sample(Rng& rng) const {
  return std::abs(sample_standard_normal(rng)) * sigma_;
}

// ------------------------------------------------------- TruncatedNormal --

TruncatedNormal::TruncatedNormal(double mean_value, double sigma, double lower)
    : mean_(mean_value), sigma_(sigma), lower_(lower) {
  LINKPAD_EXPECTS(sigma > 0.0);
  alpha_ = (lower_ - mean_) / sigma_;
  z_ = 1.0 - normal_cdf(alpha_);
  LINKPAD_EXPECTS(z_ > 0.0);
}

double TruncatedNormal::mean() const {
  const double lambda = normal_pdf(alpha_) / z_;
  return mean_ + sigma_ * lambda;
}

double TruncatedNormal::variance() const {
  const double lambda = normal_pdf(alpha_) / z_;
  const double delta = lambda * (lambda - alpha_);
  return sigma_ * sigma_ * (1.0 - delta);
}

double TruncatedNormal::pdf(double x) const {
  if (x < lower_) return 0.0;
  const double z = (x - mean_) / sigma_;
  return normal_pdf(z) / (sigma_ * z_);
}

double TruncatedNormal::sample(Rng& rng) const {
  if (alpha_ < -8.0) {
    // Truncation point is >8σ below the mean: the constraint is
    // statistically invisible; plain normal sampling is exact in practice.
    return mean_ + sigma_ * sample_standard_normal(rng);
  }
  if (z_ > 0.25) {
    // Cheap rejection: expected <4 iterations.
    for (;;) {
      const double x = mean_ + sigma_ * sample_standard_normal(rng);
      if (x >= lower_) return x;
    }
  }
  // Deep truncation: inverse-CDF on the conditioned uniform range.
  const double u_lo = normal_cdf(alpha_);
  const double u = u_lo + (1.0 - u_lo) * rng.uniform01();
  const double clipped = std::min(std::max(u, 1e-300), 1.0 - 1e-16);
  return mean_ + sigma_ * normal_quantile(clipped);
}

// ----------------------------------------------------------- Exponential --

Exponential::Exponential(double mean_value) : mean_(mean_value) {
  LINKPAD_EXPECTS(mean_value > 0.0);
}

double Exponential::pdf(double x) const {
  if (x < 0.0) return 0.0;
  return std::exp(-x / mean_) / mean_;
}

double Exponential::cdf(double x) const {
  if (x < 0.0) return 0.0;
  return 1.0 - std::exp(-x / mean_);
}

double Exponential::sample(Rng& rng) const {
  // Inversion: -mean * log(1 - U) with U in [0,1) never takes log(0).
  return -mean_ * std::log1p(-rng.uniform01());
}

// --------------------------------------------------------------- Uniform --

Uniform::Uniform(double lo, double hi) : lo_(lo), hi_(hi) {
  LINKPAD_EXPECTS(hi > lo);
}

double Uniform::variance() const {
  const double w = hi_ - lo_;
  return w * w / 12.0;
}

double Uniform::pdf(double x) const {
  return (x >= lo_ && x < hi_) ? 1.0 / (hi_ - lo_) : 0.0;
}

double Uniform::sample(Rng& rng) const { return rng.uniform(lo_, hi_); }

// ---------------------------------------------------------------- Pareto --

Pareto::Pareto(double scale, double shape) : scale_(scale), shape_(shape) {
  LINKPAD_EXPECTS(scale > 0.0);
  LINKPAD_EXPECTS(shape > 0.0);
}

double Pareto::mean() const {
  LINKPAD_EXPECTS(shape_ > 1.0);
  return shape_ * scale_ / (shape_ - 1.0);
}

double Pareto::sample(Rng& rng) const {
  // Inversion of the survival function.
  const double u = 1.0 - rng.uniform01();  // in (0, 1]
  return scale_ * std::pow(u, -1.0 / shape_);
}

// --------------------------------------------------------------- Poisson --

std::uint64_t sample_poisson(Rng& rng, double lambda) {
  LINKPAD_EXPECTS(lambda >= 0.0);
  if (lambda == 0.0) return 0;
  if (lambda < 30.0) {
    // Knuth inversion.
    const double limit = std::exp(-lambda);
    double prod = rng.uniform01();
    std::uint64_t k = 0;
    while (prod > limit) {
      prod *= rng.uniform01();
      ++k;
    }
    return k;
  }
  // Normal approximation with continuity correction, rejected below zero;
  // adequate for the traffic-volume draws we use it for (lambda >= 30).
  for (;;) {
    const double x = lambda + std::sqrt(lambda) * sample_standard_normal(rng);
    if (x >= -0.5) return static_cast<std::uint64_t>(std::llround(std::max(0.0, x)));
  }
}

// ------------------------------------------------------------ ChiSquared --

ChiSquared::ChiSquared(double dof) : dof_(dof) { LINKPAD_EXPECTS(dof > 0.0); }

double ChiSquared::pdf(double x) const {
  if (x <= 0.0) return 0.0;
  const double k2 = 0.5 * dof_;
  return std::exp((k2 - 1.0) * std::log(x) - 0.5 * x - k2 * std::log(2.0) -
                  log_gamma(k2));
}

double ChiSquared::cdf(double x) const { return chi_squared_cdf(dof_, x); }

}  // namespace linkpad::stats
