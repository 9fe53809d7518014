// Classifier evaluation: confusion matrix and the paper's security metric.
//
// Detection rate (paper Sec 4.1.1, eq. 7):
//     v = Σ_i P(ω_i) · P(classified as ω_i | true class ω_i),
// i.e. prior-weighted per-class accuracy. With the paper's equal priors and
// balanced test sets this equals plain accuracy; the prior-weighted form is
// kept so unbalanced extensions stay correct.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "util/types.hpp"

namespace linkpad::classify {

/// Counts of (true class, predicted class) pairs.
class ConfusionMatrix {
 public:
  explicit ConfusionMatrix(std::size_t num_classes);

  void add(ClassLabel truth, ClassLabel predicted);

  /// Tally `count` occurrences at once (checkpoint restore / bulk merges).
  void add_count(ClassLabel truth, ClassLabel predicted, std::uint64_t count);

  /// Merge counts (parallel evaluation shards).
  void merge(const ConfusionMatrix& other);

  [[nodiscard]] std::size_t num_classes() const { return n_; }
  [[nodiscard]] std::uint64_t count(ClassLabel truth, ClassLabel predicted) const;
  /// Sum of every count. Summed on demand rather than kept as a counter:
  /// concurrent class feeds each write only their own row (DESIGN.md §3).
  [[nodiscard]] std::uint64_t total() const;
  [[nodiscard]] std::uint64_t row_total(ClassLabel truth) const;

  /// P(correct | true class c); 0 when the class has no test samples.
  [[nodiscard]] double per_class_rate(ClassLabel c) const;

  /// Prior-weighted detection rate, eq. (7).
  [[nodiscard]] double detection_rate(const std::vector<double>& priors) const;

  /// Detection rate with equal priors.
  [[nodiscard]] double detection_rate() const;

  /// Pretty-print for logs/examples.
  [[nodiscard]] std::string to_string() const;

 private:
  std::size_t n_;
  std::vector<std::uint64_t> counts_;  // row-major [truth][predicted]
};

}  // namespace linkpad::classify
