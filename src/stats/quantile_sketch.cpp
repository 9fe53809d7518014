#include "stats/quantile_sketch.hpp"

#include <algorithm>

#include "stats/descriptive.hpp"
#include "util/check.hpp"

namespace linkpad::stats {

P2Quantile::P2Quantile(double quantile) : q_(quantile) {
  LINKPAD_EXPECTS(quantile > 0.0 && quantile < 1.0);
  reset();
}

void P2Quantile::reset() {
  n_ = 0;
  heights_ = {};
  pos_ = {1.0, 2.0, 3.0, 4.0, 5.0};
  desired_ = {1.0, 1.0 + 2.0 * q_, 1.0 + 4.0 * q_, 3.0 + 2.0 * q_, 5.0};
  rate_ = {0.0, q_ / 2.0, q_, (1.0 + q_) / 2.0, 1.0};
}

void P2Quantile::add(double x) {
  if (n_ < 5) {
    heights_[n_++] = x;
    if (n_ == 5) std::sort(heights_.begin(), heights_.end());
    return;
  }
  ++n_;

  // Locate the marker cell containing x, extending the extremes if needed.
  std::size_t k;
  if (x < heights_[0]) {
    heights_[0] = x;
    k = 0;
  } else if (x >= heights_[4]) {
    heights_[4] = x;
    k = 3;
  } else {
    k = 0;
    while (k < 3 && heights_[k + 1] <= x) ++k;
  }

  for (std::size_t i = k + 1; i < 5; ++i) pos_[i] += 1.0;
  for (std::size_t i = 0; i < 5; ++i) desired_[i] += rate_[i];

  // Adjust the three interior markers toward their desired positions.
  for (std::size_t i = 1; i <= 3; ++i) {
    const double d = desired_[i] - pos_[i];
    if ((d >= 1.0 && pos_[i + 1] - pos_[i] > 1.0) ||
        (d <= -1.0 && pos_[i - 1] - pos_[i] < -1.0)) {
      const double s = d >= 0.0 ? 1.0 : -1.0;
      // Piecewise-parabolic (P²) height update.
      const double np = pos_[i + 1];
      const double nm = pos_[i - 1];
      const double n0 = pos_[i];
      const double hp = heights_[i + 1];
      const double hm = heights_[i - 1];
      const double h0 = heights_[i];
      double candidate =
          h0 + s / (np - nm) *
                   ((n0 - nm + s) * (hp - h0) / (np - n0) +
                    (np - n0 - s) * (h0 - hm) / (n0 - nm));
      if (candidate <= hm || candidate >= hp) {
        // Parabolic step would break monotonicity; fall back to linear.
        const std::size_t j = s > 0.0 ? i + 1 : i - 1;
        candidate = h0 + s * (heights_[j] - h0) / (pos_[j] - n0);
      }
      heights_[i] = candidate;
      pos_[i] += s;
    }
  }
}

void P2Quantile::merge(const P2Quantile& other) {
  LINKPAD_EXPECTS(q_ == other.q_);
  if (other.n_ == 0) return;
  if (n_ == 0) {
    *this = other;
    return;
  }
  if (other.n_ <= 5) {
    // The other side still holds its raw samples: replay them. Exact in
    // multiset terms (and exactly feed(a∥b) while our own state is raw too).
    for (std::size_t i = 0; i < other.n_; ++i) add(other.heights_[i]);
    return;
  }
  if (n_ <= 5) {
    // Keep the bigger marker state as the base and replay our raw samples
    // into a copy of it (the branch above), then adopt the result.
    P2Quantile base = other;
    base.merge(*this);
    *this = base;
    return;
  }
  // Both sides are summarized. Reconstruct the other side's empirical
  // distribution as the piecewise-linear inverse CDF through its five
  // markers — marker i sits at cumulative rank pos_[i] of other.n_ samples
  // — and replay other.n_ equi-spaced deterministic draws from it. The
  // draw order (ascending u) is fixed, so the merge is deterministic.
  std::array<double, 5> t{};  // marker ranks mapped to [0, 1]
  const double denom = other.pos_[4] - other.pos_[0];
  for (std::size_t i = 0; i < 5; ++i) {
    t[i] = (other.pos_[i] - other.pos_[0]) / denom;
  }
  const std::size_t m = other.n_;
  for (std::size_t k = 0; k < m; ++k) {
    const double u =
        (static_cast<double>(k) + 0.5) / static_cast<double>(m);
    std::size_t seg = 0;
    while (seg < 3 && u > t[seg + 1]) ++seg;
    const double span = t[seg + 1] - t[seg];
    const double w = span > 0.0 ? (u - t[seg]) / span : 0.0;
    add(other.heights_[seg] +
        w * (other.heights_[seg + 1] - other.heights_[seg]));
  }
}

double P2Quantile::value() const {
  LINKPAD_EXPECTS(n_ > 0);
  if (n_ <= 5) {
    std::array<double, 5> sorted = heights_;
    std::sort(sorted.begin(), sorted.begin() + static_cast<std::ptrdiff_t>(n_));
    return quantile_sorted({sorted.data(), n_}, q_);
  }
  return heights_[2];
}

}  // namespace linkpad::stats
