#include "classify/search.hpp"

#include <cstdio>

#include "util/check.hpp"

namespace linkpad::classify {

namespace {

/// Only the streaming quantile features consult QuantileMode; expanding the
/// axis for the others would enumerate byte-identical duplicates.
bool uses_quantile_mode(FeatureKind kind) {
  return kind == FeatureKind::kMedianAbsDeviation ||
         kind == FeatureKind::kInterquartileRange;
}

}  // namespace

std::size_t DetectorSearchSpace::size() const {
  std::size_t feature_points = 0;
  for (const auto kind : features) {
    feature_points += uses_quantile_mode(kind) ? quantile_modes.size() : 1;
  }
  return feature_points * window_sizes.size() +
         edf_distances.size() * window_sizes.size() + cpd_target_fars.size();
}

std::vector<DetectorSpec> DetectorSearchSpace::expand() const {
  LINKPAD_EXPECTS(!features.empty());
  LINKPAD_EXPECTS(!window_sizes.empty());
  LINKPAD_EXPECTS(!quantile_modes.empty());
  for (const std::size_t n : window_sizes) LINKPAD_EXPECTS(n >= 2);
  for (const double far : cpd_target_fars) {
    LINKPAD_EXPECTS(far > 0.0 && far < 1.0);
  }

  std::vector<DetectorSpec> candidates;
  candidates.reserve(size());
  for (const auto kind : features) {
    for (const std::size_t n : window_sizes) {
      const std::size_t modes =
          uses_quantile_mode(kind) ? quantile_modes.size() : 1;
      for (std::size_t m = 0; m < modes; ++m) {
        DetectorSpec spec;
        spec.adversary = base;
        spec.adversary.feature = kind;
        spec.adversary.window_size = n;
        if (uses_quantile_mode(kind)) spec.quantile_mode = quantile_modes[m];
        candidates.push_back(std::move(spec));
      }
    }
  }
  for (const auto distance : edf_distances) {
    for (const std::size_t n : window_sizes) {
      DetectorSpec spec;
      spec.adversary = base;
      spec.adversary.window_size = n;
      spec.edf = distance;
      spec.edf_max_reference = edf_max_reference;
      candidates.push_back(std::move(spec));
    }
  }
  for (const double far : cpd_target_fars) {
    DetectorSpec spec;
    spec.adversary = base;
    spec.cpd = cpd_base;
    spec.cpd->target_far = far;
    candidates.push_back(std::move(spec));
  }
  LINKPAD_ENSURES(candidates.size() == size());
  return candidates;
}

std::string candidate_label(const DetectorSpec& spec) {
  std::string name = detector_name(spec);
  char buf[64];
  if (spec.cpd) {
    std::snprintf(buf, sizeof(buf), " @far=%g", spec.cpd->target_far);
    return name + buf;
  }
  std::snprintf(buf, sizeof(buf), " @n=%zu", spec.adversary.window_size);
  name += buf;
  if (!spec.edf && spec.quantile_mode == QuantileMode::kP2Sketch) {
    name += " (p2)";
  }
  return name;
}

}  // namespace linkpad::classify
