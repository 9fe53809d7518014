#include "classify/cpd.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdint>
#include <limits>

#if defined(__x86_64__)
#include <immintrin.h>
#endif

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

#if defined(__x86_64__)
/// Trials the AVX2 kernel replays side by side, one per 64-bit lane.
constexpr std::size_t kLanes = 4;

__attribute__((target("avx2"))) __m256i load_lanes(
    const std::array<std::uint64_t, kLanes>& words) {
  return _mm256_loadu_si256(reinterpret_cast<const __m256i*>(words.data()));
}

__attribute__((target("avx2"))) __m256i rotl_lanes(__m256i x, int k) {
  return _mm256_or_si256(_mm256_slli_epi64(x, k),
                         _mm256_srli_epi64(x, 64 - k));
}

/// The tabulated replay of trials t0 .. t0 + 3 of calibrate_threshold, one
/// trial per lane: lane l runs RngFactory::make(t0 + l)'s xoshiro256++
/// stream through exactly the double operations of the scalar loop, so
/// out[l] is bitwise that loop's maxima[t0 + l]. Every table holds at most
/// INT32_MAX entries (the gather takes 32-bit indices).
///
/// Two conversions have no 64-bit AVX2 instruction and are done exactly:
///  * the 53-bit draw m = r >> 11 to double: OR-ing m's low 52 bits into
///    the exponent of 2^52 gives the double 2^52 + (m mod 2^52) exactly;
///    subtracting 2^52 when m's top bit (r's bit 63) is clear, and 0 when
///    it is set, leaves m exactly (Sterbenz), as static_cast<double>(m).
///    The scaling by 2^-53 and the product with the table size are the
///    same two roundings as uniform01() * size.
///  * static_cast<std::size_t>(x) for x = fl(u · size): u ≤ 1 − 2^-53
///    puts the exact product at least size · 2^-53 below size. For size
///    in [2^k, 2^(k+1)) that is more than half the spacing 2^(k−52) of the
///    doubles just below size, or exactly one spacing 2^(k−53) when
///    size = 2^k, so the product rounds to a double below size. Then
///    0 ≤ x < size ≤ INT32_MAX, and vcvttpd2dq's truncation to int32 is
///    the same integer.
///
/// The folds follow std::max(a, b) = (a < b) ? b : a, which is
/// vmaxpd(b, a) (it returns its first operand iff first > second), so NaN
/// and −0 fold as they do in the scalar loop. Compiled for AVX2 only, not
/// FMA: with contraction on by default, an FMA target could fuse the
/// products and sums the scalar loop rounds separately.
__attribute__((target("avx2"))) void replay_lanes(
    const std::array<std::vector<double>, 2>& increments, std::size_t horizon,
    const util::RngFactory& factory, std::size_t t0, double* out) {
  std::array<std::array<std::uint64_t, kLanes>, 4> words{};
  for (std::size_t l = 0; l < kLanes; ++l) {
    const auto engine = factory.make(t0 + l);
    for (std::size_t w = 0; w < 4; ++w) words[w][l] = engine.state()[w];
  }
  __m256i s0 = load_lanes(words[0]);
  __m256i s1 = load_lanes(words[1]);
  __m256i s2 = load_lanes(words[2]);
  __m256i s3 = load_lanes(words[3]);
  const __m256i low52 = _mm256_set1_epi64x((std::int64_t{1} << 52) - 1);
  const __m256i two52_bits = _mm256_set1_epi64x(0x4330000000000000);
  const __m256d scale = _mm256_set1_pd(0x1.0p-53);
  const __m256d zero = _mm256_setzero_pd();
  const __m256d every_lane = _mm256_castsi256_pd(_mm256_set1_epi64x(-1));
  __m256d worst = zero;
  for (const std::size_t side : {CpdModel::kSideHigh, CpdModel::kSideLow}) {
    const std::vector<double>& table = increments[side];
    const __m256d size = _mm256_set1_pd(static_cast<double>(table.size()));
    __m256d g = zero;
    __m256d peak = zero;
    for (std::size_t i = 0; i < horizon; ++i) {
      // Xoshiro256pp::operator().
      const __m256i r = _mm256_add_epi64(
          rotl_lanes(_mm256_add_epi64(s0, s3), 23), s0);
      const __m256i t = _mm256_slli_epi64(s1, 17);
      s2 = _mm256_xor_si256(s2, s0);
      s3 = _mm256_xor_si256(s3, s1);
      s1 = _mm256_xor_si256(s1, s2);
      s0 = _mm256_xor_si256(s0, s3);
      s2 = _mm256_xor_si256(s2, t);
      s3 = rotl_lanes(s3, 45);
      // uniform01() * size, then the truncating index.
      const __m256i top = _mm256_cmpgt_epi64(_mm256_setzero_si256(), r);
      const __m256d biased = _mm256_castsi256_pd(_mm256_or_si256(
          _mm256_and_si256(_mm256_srli_epi64(r, 11), low52), two52_bits));
      const __m256d draw = _mm256_sub_pd(
          biased, _mm256_castsi256_pd(_mm256_andnot_si256(top, two52_bits)));
      const __m128i index =
          _mm256_cvttpd_epi32(_mm256_mul_pd(_mm256_mul_pd(draw, scale), size));
      // The masked form: GCC 12's unmasked gather trips
      // -Wmaybe-uninitialized inside its own header.
      const __m256d inc =
          _mm256_mask_i32gather_pd(zero, table.data(), index, every_lane, 8);
      g = _mm256_max_pd(_mm256_add_pd(g, inc), zero);
      peak = _mm256_max_pd(g, peak);
    }
    worst = _mm256_max_pd(peak, worst);
  }
  _mm256_storeu_pd(out, worst);
}
#endif

}  // namespace

bool calibration_replays_in_lanes() {
#if defined(__x86_64__)
  return __builtin_cpu_supports("avx2");
#else
  return false;
#endif
}

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
  //
  // On an AVX2 host the tabulated replay runs whole groups of four trials
  // in vector lanes (replay_lanes); the trials % 4 tail, other hosts and
  // the adaptive-EWMA take the scalar loop, which gives the same bits.
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
  std::vector<double> maxima(trials);
  std::size_t t0 = 0;  // trials [0, t0) ran in vector lanes
#if defined(__x86_64__)
  constexpr auto kMaxGather =
      static_cast<std::size_t>(std::numeric_limits<std::int32_t>::max());
  if (tabulate && calibration_replays_in_lanes() &&
      std::max(increments[0].size(), increments[1].size()) <= kMaxGather) {
    for (; t0 + kLanes <= trials; t0 += kLanes) {
      replay_lanes(increments, horizon, factory, t0, &maxima[t0]);
    }
  }
#endif
  std::vector<double> stream(tabulate ? 0 : horizon);
  for (std::size_t t = t0; t < trials; ++t) {
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
    maxima[t] = worst;
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
