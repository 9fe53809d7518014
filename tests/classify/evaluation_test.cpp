#include "classify/evaluation.hpp"

#include <gtest/gtest.h>

#include "util/check.hpp"

namespace linkpad::classify {
namespace {

TEST(ConfusionMatrix, CountsByTruthAndPrediction) {
  ConfusionMatrix cm(2);
  cm.add(0, 0);
  cm.add(0, 1);
  cm.add(1, 1);
  cm.add(1, 1);
  EXPECT_EQ(cm.count(0, 0), 1u);
  EXPECT_EQ(cm.count(0, 1), 1u);
  EXPECT_EQ(cm.count(1, 1), 2u);
  EXPECT_EQ(cm.count(1, 0), 0u);
  EXPECT_EQ(cm.total(), 4u);
  EXPECT_EQ(cm.row_total(0), 2u);
}

TEST(ConfusionMatrix, PerClassRates) {
  ConfusionMatrix cm(2);
  for (int i = 0; i < 9; ++i) cm.add(0, 0);
  cm.add(0, 1);
  for (int i = 0; i < 6; ++i) cm.add(1, 1);
  for (int i = 0; i < 4; ++i) cm.add(1, 0);
  EXPECT_DOUBLE_EQ(cm.per_class_rate(0), 0.9);
  EXPECT_DOUBLE_EQ(cm.per_class_rate(1), 0.6);
}

TEST(ConfusionMatrix, DetectionRateIsPriorWeighted) {
  ConfusionMatrix cm(2);
  for (int i = 0; i < 9; ++i) cm.add(0, 0);
  cm.add(0, 1);
  for (int i = 0; i < 6; ++i) cm.add(1, 1);
  for (int i = 0; i < 4; ++i) cm.add(1, 0);
  // Equal priors: (0.9 + 0.6) / 2 = 0.75  (paper eq. 7)
  EXPECT_DOUBLE_EQ(cm.detection_rate(), 0.75);
  // Skewed priors weigh class 0 more.
  EXPECT_DOUBLE_EQ(cm.detection_rate({0.9, 0.1}), 0.9 * 0.9 + 0.1 * 0.6);
}

TEST(ConfusionMatrix, EmptyClassContributesZero) {
  ConfusionMatrix cm(2);
  cm.add(0, 0);
  EXPECT_DOUBLE_EQ(cm.per_class_rate(1), 0.0);
}

TEST(ConfusionMatrix, MergeAddsCounts) {
  ConfusionMatrix a(2), b(2);
  a.add(0, 0);
  b.add(0, 0);
  b.add(1, 0);
  a.merge(b);
  EXPECT_EQ(a.count(0, 0), 2u);
  EXPECT_EQ(a.count(1, 0), 1u);
  EXPECT_EQ(a.total(), 3u);
}

TEST(ConfusionMatrix, MergeRequiresSameShape) {
  ConfusionMatrix a(2), b(3);
  EXPECT_THROW(a.merge(b), linkpad::ContractViolation);
}

TEST(ConfusionMatrix, MergedShardsMatchWholeEvaluationUnderSkewedPriors) {
  // Parallel evaluation shards merge into the same prior-weighted rate the
  // whole test set would have produced — for ANY priors, not just uniform.
  ConfusionMatrix shard_a(2), shard_b(2), whole(2);
  const auto record = [&](ClassLabel truth, ClassLabel predicted,
                          ConfusionMatrix& shard, int times) {
    for (int i = 0; i < times; ++i) {
      shard.add(truth, predicted);
      whole.add(truth, predicted);
    }
  };
  record(0, 0, shard_a, 7);
  record(0, 1, shard_a, 1);
  record(1, 1, shard_a, 2);
  record(0, 0, shard_b, 2);
  record(0, 1, shard_b, 2);
  record(1, 1, shard_b, 5);
  record(1, 0, shard_b, 5);

  shard_a.merge(shard_b);
  const std::vector<double> priors = {0.8, 0.2};
  EXPECT_DOUBLE_EQ(shard_a.detection_rate(priors),
                   whole.detection_rate(priors));
  // Hand check: class 0 = 9/12 correct, class 1 = 7/12 correct.
  EXPECT_DOUBLE_EQ(shard_a.detection_rate(priors),
                   0.8 * (9.0 / 12.0) + 0.2 * (7.0 / 12.0));
  // Merging must not have disturbed the per-class row totals.
  EXPECT_EQ(shard_a.row_total(0), 12u);
  EXPECT_EQ(shard_a.row_total(1), 12u);
}

TEST(ConfusionMatrix, ThreeClassNonUniformPriors) {
  ConfusionMatrix cm(3);
  for (int i = 0; i < 4; ++i) cm.add(0, 0);
  cm.add(0, 2);                              // class 0: 4/5
  for (int i = 0; i < 3; ++i) cm.add(1, 1);  // class 1: 3/3
  cm.add(2, 0);
  cm.add(2, 2);                              // class 2: 1/2
  const std::vector<double> priors = {0.5, 0.3, 0.2};
  EXPECT_DOUBLE_EQ(cm.detection_rate(priors),
                   0.5 * 0.8 + 0.3 * 1.0 + 0.2 * 0.5);
  // A class the priors ignore cannot move the rate.
  ConfusionMatrix ignored = cm;
  ignored.add(2, 1);
  EXPECT_DOUBLE_EQ(ignored.detection_rate({0.5, 0.5, 0.0}),
                   0.5 * 0.8 + 0.5 * 1.0);
}

TEST(ConfusionMatrix, BoundsChecked) {
  ConfusionMatrix cm(2);
  EXPECT_THROW(cm.add(2, 0), linkpad::ContractViolation);
  EXPECT_THROW(cm.add(0, -1), linkpad::ContractViolation);
  EXPECT_THROW((void)cm.count(5, 0), linkpad::ContractViolation);
}

TEST(ConfusionMatrix, ToStringMentionsRates) {
  ConfusionMatrix cm(2);
  cm.add(0, 0);
  cm.add(1, 1);
  const auto s = cm.to_string();
  EXPECT_NE(s.find("class 0"), std::string::npos);
  EXPECT_NE(s.find("rate"), std::string::npos);
}

TEST(ConfusionMatrix, DetectionRateValidatesPriors) {
  ConfusionMatrix cm(2);
  cm.add(0, 0);
  EXPECT_THROW((void)cm.detection_rate({1.0}), linkpad::ContractViolation);
}

}  // namespace
}  // namespace linkpad::classify
