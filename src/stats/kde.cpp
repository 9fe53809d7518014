#include "stats/kde.hpp"

#include <algorithm>
#include <array>
#include <cmath>

#if defined(__x86_64__)
#include <immintrin.h>
#endif

#include "stats/descriptive.hpp"
#include "util/check.hpp"

namespace linkpad::stats {

namespace {
constexpr double kInvSqrt2Pi = 0.3989422804014327;
// Kernels beyond 8 bandwidths contribute < 1e-14 relative mass.
constexpr double kWindowSigmas = 8.0;
constexpr double kLogFloor = -745.0;  // ~ log(DBL_MIN)

// ------------------------------------------ the lane-summed log-density
//
// log_pdf_bounds(x) encloses v = log_pdf(x), the double the exact loop
// returns, around ṽ, the same quantity from a vectorized sum. Write
// u = 2^-53, γ_n = nu / (1 − nu), m for the window's kernel count and
// S = Σ_k exp(a_k), a_k = −((x − s_k)/h)² / 2, over the m kernels of the
// window pdf() sums (both sides take it from window()). Each operation
// below rounds at most once (FMA contraction, where a compiler applies it,
// only removes roundings), glibc's exp and log are within 1 ulp (the budget
// allows 2, i.e. 4u relative), and the guards in log_pdf_bounds hold:
// m ≤ kLaneMaxKernels = 2^14, every kernel within 9h of x (|a_k| ≤
// 40.5(1 + 5u) < 40.6), h ≥ 2^-1000 and p̃, the lane-summed density, in
// [2^-1000, 2^1000], so every product, quotient and log below is normal.
// (A difference x − s_k that underflows is exact; a z² that underflows
// leaves |a_k| < 2^-1000, where both sides' terms are within 2u of 1.)
//
// Exact side (pdf, log_pdf):
//  E1. â_k = −½·fl(ẑ²), ẑ = fl(fl(x − s_k)/h): |â_k − a_k| ≤ γ_5·40.6 <
//      204u, so t̂_k, exp(â_k) within 4u, is within 209u of exp(a_k).
//  E2. acc = t̂_1 ⊕ … ⊕ t̂_m in order, positive terms: within γ_(m−1) of
//      Σ t̂_k, so acc = S(1 + α), |α| ≤ (210 + m)u.
//  E3. p = fl(fl(acc·c)/fl(N·h)), c = kInvSqrt2Pi: p = P(1 + β),
//      P = S·c/(N·h) (c the double constant, N·h the exact product),
//      |β| ≤ (214 + m)u.
//  E4. v = log(p): |v − ln p| ≤ 4u·|ln p| < 2776u (|ln p| < 694), and
//      |ln p − ln P| ≤ 1.0001·|β|. So |v − ln P| < (2991 + 1.0001m)u.
// Lane side (kernel_sum_lanes, then the same p and log):
//  F1. z̃ = fl(fl(x − s_k)·fl(1/h)), ã = −½·fl(z̃²): the reciprocal adds
//      one rounding, |ã − a_k| ≤ γ_7·40.6 < 285u.
//  F2. exp(ã) = 2^k·e^r with k = fl(ã·kLog2e + S) − S (S = kShifter),
//      the integer nearest ã·kLog2e, k ∈ [−59, 0], and r = ã − k·ln 2 by
//      two FMAs against ln 2 = kLn2Hi + kLn2Lo (|kLn2Hi + kLn2Lo − ln 2| <
//      2^-108): |r| ≤ ρ = 0.34658 and r is within 0.7u of exact. e^r is the
//      degree-11 Taylor polynomial (coefficients fl(1/j!)) by Estrin's
//      scheme: remainder ρ^12/12!·e^ρ < 8.9e-15, coefficient rounding
//      u·e^ρ, evaluation γ_11·e^ρ·(1 + u) (no coefficient passes more than
//      11 roundings: c_11 its pair's FMA, two more FMAs, and the one inside
//      r^2 and the seven inside r^8); relative to e^r ≥ e^-ρ that is
//      < 140u. 2^k scales exactly (the term is ≥ e^-40.6 > 2^-59). So t̃_k
//      is within 426u of exp(a_k).
//  F3. Four lane sums plus two pairwise adds (the masked tail lanes add
//      exact zeros) nest at most m + 2 deep: Ã = S(1 + α̃), |α̃| ≤
//      (429 + m)u.
//  F4. As E3–E4: |ṽ − ln P| < (3210 + 1.0001m)u.
// Hence |v − ṽ| < (6201 + 2.0002m)u ≤ 38973u < 4.33e-12 for m ≤ 2^14,
// and the half-width GaussianKde::kLaneHalfWidth = 1e-9 is more than 230
// times that. Rounding ṽ ∓ 1e-9 moves the bounds by at most u·695 <
// 7.8e-14, still outside [v, v].

// Windows of fewer kernels cost as much exactly (and the lane tail reads a
// whole block of 4); more kernels would let summation error pass 1e-11.
constexpr std::size_t kLaneMinKernels = 4;
constexpr std::size_t kLaneMaxKernels = std::size_t{1} << 14;
constexpr double kLaneMaxZ = 9.0;  // kernels farther out void the bound
constexpr double kLaneMinBandwidth = 0x1p-1000;
constexpr double kLaneMinDensity = 0x1p-1000;
constexpr double kLaneMaxDensity = 0x1p1000;

#if defined(__x86_64__)
constexpr double kLog2e = 0x1.71547652b82fep0;
constexpr double kLn2Hi = 0x1.62e42fefa39efp-1;   // fl(ln 2)
constexpr double kLn2Lo = 0x1.abc9e3b39803fp-56;  // fl(ln 2 − kLn2Hi)
// 1.5·2^52 + 1023: adding it rounds to an integer k and leaves k + 1023 in
// the low mantissa bits.
constexpr double kShifter = 0x1.8p52 + 1023.0;

/// 1/j! + r/(j + 1)! in each lane, j ≤ 10.
__attribute__((target("avx2,fma"))) __m256d taylor_pair(std::size_t j,
                                                       __m256d r) {
  constexpr std::array<double, 12> kInvFactorial = {
      1.0,           1.0,            0.5,             1.0 / 6.0,
      1.0 / 24.0,    1.0 / 120.0,    1.0 / 720.0,     1.0 / 5040.0,
      1.0 / 40320.0, 1.0 / 362880.0, 1.0 / 3628800.0, 1.0 / 39916800.0};
  return _mm256_fmadd_pd(_mm256_set1_pd(kInvFactorial[j + 1]), r,
                         _mm256_set1_pd(kInvFactorial[j]));
}

/// exp(−z²/2) in each lane for |z| ≤ 9 (F1–F2 above).
__attribute__((target("avx2,fma"))) __m256d gaussian_lanes(__m256d z) {
  const __m256d a =
      _mm256_mul_pd(_mm256_mul_pd(z, z), _mm256_set1_pd(-0.5));
  // t = S + k, k = nearbyint(a·log2 e) ∈ [−59, 0]: the sum lies in
  // [2^52, 2^53), whose spacing is 1, and t − S is exact.
  const __m256d t = _mm256_fmadd_pd(a, _mm256_set1_pd(kLog2e),
                                    _mm256_set1_pd(kShifter));
  const __m256d k = _mm256_sub_pd(t, _mm256_set1_pd(kShifter));
  __m256d r = _mm256_fnmadd_pd(k, _mm256_set1_pd(kLn2Hi), a);
  r = _mm256_fnmadd_pd(k, _mm256_set1_pd(kLn2Lo), r);
  // Σ r^j/j!, j ≤ 11, by Estrin's scheme: pairs, then r^2, r^4, r^8.
  const __m256d r2 = _mm256_mul_pd(r, r);
  const __m256d r4 = _mm256_mul_pd(r2, r2);
  const __m256d r8 = _mm256_mul_pd(r4, r4);
  const __m256d q0 = _mm256_fmadd_pd(taylor_pair(2, r), r2, taylor_pair(0, r));
  const __m256d q1 = _mm256_fmadd_pd(taylor_pair(6, r), r2, taylor_pair(4, r));
  const __m256d q2 =
      _mm256_fmadd_pd(taylor_pair(10, r), r2, taylor_pair(8, r));
  const __m256d poly =
      _mm256_fmadd_pd(q2, r8, _mm256_fmadd_pd(q1, r4, q0));
  // 2^k: k + 1023 shifted from the low mantissa bits into the exponent.
  const __m256i two_k = _mm256_slli_epi64(_mm256_castpd_si256(t), 52);
  return _mm256_mul_pd(poly, _mm256_castsi256_pd(two_k));
}

/// Σ exp(−((x − s_k)·inv_h)²/2) over s[0 .. m), m ≥ 4, four kernels per
/// step (F3). The last m mod 4 kernels are summed from the block
/// s[m − 4 .. m) with the lanes already summed masked to zero, so no load
/// leaves [s, s + m).
__attribute__((target("avx2,fma"))) double kernel_sum_lanes(
    const double* s, std::size_t m, double x, double inv_h) {
  const __m256d vx = _mm256_set1_pd(x);
  const __m256d vinv = _mm256_set1_pd(inv_h);
  __m256d acc = _mm256_setzero_pd();
  std::size_t i = 0;
  for (; i + 4 <= m; i += 4) {
    const __m256d d = _mm256_sub_pd(vx, _mm256_loadu_pd(s + i));
    acc = _mm256_add_pd(acc, gaussian_lanes(_mm256_mul_pd(d, vinv)));
  }
  if (i < m) {
    const std::size_t back = m - 4;
    const __m256d d = _mm256_sub_pd(vx, _mm256_loadu_pd(s + back));
    const __m256d fresh =
        _mm256_cmp_pd(_mm256_set_pd(3.0, 2.0, 1.0, 0.0),
                      _mm256_set1_pd(static_cast<double>(i - back)),
                      _CMP_GE_OQ);
    acc = _mm256_add_pd(
        acc, _mm256_and_pd(gaussian_lanes(_mm256_mul_pd(d, vinv)), fresh));
  }
  const __m128d halves = _mm_add_pd(_mm256_castpd256_pd128(acc),
                                    _mm256_extractf128_pd(acc, 1));
  return _mm_cvtsd_f64(_mm_add_sd(halves, _mm_unpackhi_pd(halves, halves)));
}
#endif

}  // namespace

bool kde_sums_in_lanes() {
#if defined(__x86_64__)
  return __builtin_cpu_supports("avx2") && __builtin_cpu_supports("fma");
#else
  return false;
#endif
}

double select_bandwidth(std::span<const double> data, BandwidthRule rule,
                        double fixed_bandwidth) {
  LINKPAD_EXPECTS(!data.empty());
  if (rule == BandwidthRule::kFixed) {
    LINKPAD_EXPECTS(fixed_bandwidth > 0.0);
    return fixed_bandwidth;
  }

  const double n = static_cast<double>(data.size());
  const double sd = data.size() > 1 ? sample_stddev(data) : 0.0;
  double spread = sd;
  if (rule == BandwidthRule::kSilverman) {
    const double robust = iqr(data) / 1.34;
    if (robust > 0.0) spread = (sd > 0.0) ? std::min(sd, robust) : robust;
  }
  if (spread <= 0.0) {
    // Degenerate (constant) sample: fall back to a sliver of the magnitude
    // so pdf() stays finite and integrates to ~1.
    spread = std::max(std::abs(data[0]) * 1e-9, 1e-12);
  }
  const double factor = (rule == BandwidthRule::kSilverman) ? 0.9 : 1.06;
  return factor * spread * std::pow(n, -0.2);
}

GaussianKde::GaussianKde(std::span<const double> data, BandwidthRule rule,
                         double fixed_bandwidth)
    : sorted_(data.begin(), data.end()) {
  LINKPAD_EXPECTS(!sorted_.empty());
  std::sort(sorted_.begin(), sorted_.end());
  bandwidth_ = select_bandwidth(sorted_, rule, fixed_bandwidth);
  LINKPAD_ENSURES(bandwidth_ > 0.0);
}

GaussianKde::Window GaussianKde::window(double x) const {
  const double h = bandwidth_;
  const double lo = x - kWindowSigmas * h;
  const double hi = x + kWindowSigmas * h;
  const double* begin = sorted_.data();
  const double* end = begin + sorted_.size();
  const double* first = std::lower_bound(begin, end, lo);
  return {first, std::upper_bound(first, end, hi)};
}

double GaussianKde::pdf(double x) const { return pdf_in(x, window(x)); }

double GaussianKde::log_pdf(double x) const {
  return log_pdf_in(x, window(x));
}

double GaussianKde::pdf_in(double x, Window w) const {
  const double h = bandwidth_;
  double acc = 0.0;
  for (const double* it = w.first; it != w.last; ++it) {
    const double z = (x - *it) / h;
    acc += std::exp(-0.5 * z * z);
  }
  return acc * kInvSqrt2Pi / (static_cast<double>(sorted_.size()) * h);
}

double GaussianKde::log_pdf_in(double x, Window w) const {
  const double p = pdf_in(x, w);
  if (p > 0.0) return std::log(p);
  // Query far outside the training support: exp() underflowed. Use the
  // nearest kernel's log-density directly — finite for any finite x — so
  // Bayes comparisons between classes still order by distance instead of
  // comparing -inf against -inf.
  const double nearest =
      std::min(std::abs(x - sorted_.front()), std::abs(x - sorted_.back()));
  const double z = nearest / bandwidth_;
  return -0.5 * z * z -
         std::log(static_cast<double>(sorted_.size()) * bandwidth_) -
         0.5 * std::log(2.0 * M_PI);
}

LogPdfBounds GaussianKde::log_pdf_bounds(double x) const {
  const Window w = window(x);
#if defined(__x86_64__)
  const double h = bandwidth_;
  const auto m = static_cast<std::size_t>(w.last - w.first);
  if (kde_sums_in_lanes() && std::isfinite(x) && h >= kLaneMinBandwidth &&
      m >= kLaneMinKernels && m <= kLaneMaxKernels &&
      std::max(x - *w.first, *(w.last - 1) - x) / h <= kLaneMaxZ) {
    const double p = kernel_sum_lanes(w.first, m, x, 1.0 / h) * kInvSqrt2Pi /
                     (static_cast<double>(sorted_.size()) * h);
    if (p >= kLaneMinDensity && p <= kLaneMaxDensity) {
      const double v = std::log(p);
      return {v - kLaneHalfWidth, v + kLaneHalfWidth};
    }
  }
#endif
  const double v = log_pdf_in(x, w);
  return {v, v};
}

}  // namespace linkpad::stats
