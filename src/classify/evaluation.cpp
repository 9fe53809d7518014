#include "classify/evaluation.hpp"

#include <sstream>

#include "util/check.hpp"

namespace linkpad::classify {

ConfusionMatrix::ConfusionMatrix(std::size_t num_classes)
    : n_(num_classes), counts_(num_classes * num_classes, 0) {
  LINKPAD_EXPECTS(num_classes >= 2);
}

void ConfusionMatrix::add(ClassLabel truth, ClassLabel predicted) {
  LINKPAD_EXPECTS(truth >= 0 && static_cast<std::size_t>(truth) < n_);
  LINKPAD_EXPECTS(predicted >= 0 && static_cast<std::size_t>(predicted) < n_);
  ++counts_[static_cast<std::size_t>(truth) * n_ +
            static_cast<std::size_t>(predicted)];
}

void ConfusionMatrix::add_count(ClassLabel truth, ClassLabel predicted,
                                std::uint64_t count) {
  LINKPAD_EXPECTS(truth >= 0 && static_cast<std::size_t>(truth) < n_);
  LINKPAD_EXPECTS(predicted >= 0 && static_cast<std::size_t>(predicted) < n_);
  counts_[static_cast<std::size_t>(truth) * n_ +
          static_cast<std::size_t>(predicted)] += count;
}

void ConfusionMatrix::merge(const ConfusionMatrix& other) {
  LINKPAD_EXPECTS(other.n_ == n_);
  for (std::size_t i = 0; i < counts_.size(); ++i) counts_[i] += other.counts_[i];
}

std::uint64_t ConfusionMatrix::total() const {
  std::uint64_t acc = 0;
  for (const std::uint64_t c : counts_) acc += c;
  return acc;
}

std::uint64_t ConfusionMatrix::count(ClassLabel truth,
                                     ClassLabel predicted) const {
  LINKPAD_EXPECTS(truth >= 0 && static_cast<std::size_t>(truth) < n_);
  LINKPAD_EXPECTS(predicted >= 0 && static_cast<std::size_t>(predicted) < n_);
  return counts_[static_cast<std::size_t>(truth) * n_ +
                 static_cast<std::size_t>(predicted)];
}

std::uint64_t ConfusionMatrix::row_total(ClassLabel truth) const {
  std::uint64_t acc = 0;
  for (std::size_t j = 0; j < n_; ++j) {
    acc += counts_[static_cast<std::size_t>(truth) * n_ + j];
  }
  return acc;
}

double ConfusionMatrix::per_class_rate(ClassLabel c) const {
  const std::uint64_t row = row_total(c);
  if (row == 0) return 0.0;
  return static_cast<double>(count(c, c)) / static_cast<double>(row);
}

double ConfusionMatrix::detection_rate(
    const std::vector<double>& priors) const {
  LINKPAD_EXPECTS(priors.size() == n_);
  double v = 0.0;
  for (std::size_t c = 0; c < n_; ++c) {
    v += priors[c] * per_class_rate(static_cast<ClassLabel>(c));
  }
  return v;
}

double ConfusionMatrix::detection_rate() const {
  return detection_rate(std::vector<double>(n_, 1.0 / static_cast<double>(n_)));
}

std::string ConfusionMatrix::to_string() const {
  std::ostringstream out;
  out << "confusion matrix (rows = truth, cols = predicted):\n";
  for (std::size_t i = 0; i < n_; ++i) {
    out << "  class " << i << ":";
    for (std::size_t j = 0; j < n_; ++j) {
      out << ' ' << counts_[i * n_ + j];
    }
    out << "  (rate " << per_class_rate(static_cast<ClassLabel>(i)) << ")\n";
  }
  return out.str();
}

}  // namespace linkpad::classify
