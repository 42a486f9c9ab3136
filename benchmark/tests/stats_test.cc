// Tests of the benchmark's own arithmetic on hand-built cases.

#include "stats.h"

#include <gtest/gtest.h>

namespace leapme::benchmark {
namespace {

TEST(TailQuantileTest, NinetyNineWhenTenSamplesLieBeyond) {
  EXPECT_DOUBLE_EQ(TailQuantileLevel(1000), 0.99);
  EXPECT_EQ(SamplesBeyond(1000, 0.99), 10u);
  EXPECT_DOUBLE_EQ(TailQuantileLevel(5000), 0.99);
}

TEST(TailQuantileTest, FallsBackToLeaveTenSamplesBeyond) {
  for (size_t n : {11u, 100u, 500u, 999u}) {
    const double q = TailQuantileLevel(n);
    EXPECT_LT(q, 0.99) << n;
    EXPECT_EQ(SamplesBeyond(n, q), 10u) << n;
  }
  EXPECT_DOUBLE_EQ(TailQuantileLevel(500), 0.98);
}

TEST(TailQuantileTest, TooFewSamplesGiveNoTail) {
  EXPECT_DOUBLE_EQ(TailQuantileLevel(10), 0.0);
  EXPECT_DOUBLE_EQ(TailQuantileLevel(0), 0.0);
}

TEST(QuantileTest, NearestRank) {
  std::vector<double> values;
  for (int i = 100; i >= 1; --i) values.push_back(i);
  EXPECT_DOUBLE_EQ(Quantile(values, 0.5), 50.0);
  EXPECT_DOUBLE_EQ(Quantile(values, 0.99), 99.0);
  EXPECT_DOUBLE_EQ(Quantile(values, 1.0), 100.0);
  EXPECT_DOUBLE_EQ(Quantile(values, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(Median({3.0}), 3.0);
  EXPECT_DOUBLE_EQ(Median({4.0, 1.0, 3.0, 2.0}), 2.5);
  EXPECT_DOUBLE_EQ(Quantile({}, 0.5), 0.0);
}

TEST(WindowedMedianTest, ASlowPeriodInOneWindowDoesNotMoveIt) {
  // Five windows of 200; the third is five times slower.
  std::vector<double> values;
  for (int w = 0; w < 5; ++w) {
    for (int i = 0; i < 200; ++i) values.push_back(w == 2 ? 5.0 + i : 1.0 + i % 3);
  }
  EXPECT_DOUBLE_EQ(WindowedMedian(values), 2.0);
  EXPECT_DOUBLE_EQ(WindowedMedian({3.0, 1.0, 2.0}), 2.0);  // one window
}

TEST(WindowedTailTest, OneWindowIsThePlainTail) {
  std::vector<double> values;
  for (int i = 1; i <= 1500; ++i) values.push_back(i);
  EXPECT_DOUBLE_EQ(WindowedTail(values), Quantile(values, 0.99));
}

TEST(WindowedTailTest, AStallInOneWindowDoesNotMoveTheMedian) {
  // Three windows of 1000 samples; the middle one holds a 100-sample stall.
  std::vector<double> values(3000, 1.0);
  for (int i = 1000; i < 1100; ++i) values[i] = 50.0;
  values[10] = 2.0;
  values[2500] = 3.0;
  EXPECT_DOUBLE_EQ(WindowedTail(values), 1.0);
  EXPECT_DOUBLE_EQ(Quantile(values, 0.99), 50.0);
}

TEST(LadderTest, PicksHighestPassingRate) {
  const std::vector<LadderStep> steps = {
      {80, 10, 0, 5}, {100, 20, 0, 8}, {120, 45, 0, 20}, {140, 60, 0, 30},
      {160, 90, 0, 60}};
  EXPECT_DOUBLE_EQ(PickSustainedRate(steps, 50.0), 120.0);
}

TEST(LadderTest, AFailingStepBelowAPassingOneIsNotSaturation) {
  const std::vector<LadderStep> steps = {
      {80, 10, 0, 5}, {100, 70, 0, 8}, {120, 20, 0, 5}, {140, 90, 0, 80}};
  EXPECT_DOUBLE_EQ(PickSustainedRate(steps, 50.0), 120.0);
}

TEST(LadderTest, RejectsStepWithBacklog) {
  // Tail within the limit, but the queue drained long past the step.
  const LadderStep backlog = {100, 40, 0, 400};
  EXPECT_FALSE(StepPasses(backlog, 50.0));
  EXPECT_DOUBLE_EQ(PickSustainedRate({{80, 10, 0, 5}, backlog}, 50.0), 80.0);
}

TEST(LadderTest, RejectsStepWithFailures) {
  const LadderStep failing = {100, 10, 1, 5};
  EXPECT_FALSE(StepPasses(failing, 50.0));
  EXPECT_DOUBLE_EQ(PickSustainedRate({{80, 10, 0, 5}, failing}, 50.0), 80.0);
  EXPECT_DOUBLE_EQ(PickSustainedRate({failing}, 50.0), 0.0);
}

TEST(FailedFracTest, CountsShedDeadlineErrorsAndMismatches) {
  OutcomeCounts counts;
  counts.attempted = 100;
  counts.ok = 90;
  counts.errors = 1;
  counts.shed = 2;
  counts.deadline = 3;
  counts.mismatches = 4;
  EXPECT_EQ(Failed(counts), 10u);
  EXPECT_DOUBLE_EQ(FailedFrac(counts), 0.1);
  EXPECT_DOUBLE_EQ(FailedFrac(OutcomeCounts{}), 0.0);
}

TEST(SelfTimeTest, NestedChildren) {
  // request [0,100) > parse [10,20), score [20,90) > features [30,50)
  const std::vector<Span> spans = {
      {0, 0, 100, -1, 1}, {1, 10, 20, 0, 1}, {2, 20, 90, 0, 1},
      {3, 30, 50, 2, 1}};
  const std::vector<uint64_t> self = SelfTimes(spans);
  EXPECT_EQ(self[0], 20u);  // 100 - (10 + 70)
  EXPECT_EQ(self[1], 10u);
  EXPECT_EQ(self[2], 50u);  // 70 - 20
  EXPECT_EQ(self[3], 20u);
}

TEST(SelfTimeTest, BackToBackAndOverlappingChildrenCountOnce) {
  const std::vector<Span> spans = {
      {0, 0, 100, -1, 1},
      {1, 10, 30, 0, 1},  // back to back with the next child
      {1, 30, 50, 0, 1},
      {2, 40, 60, 0, 1},   // overlaps the previous child
      {3, 90, 120, 0, 1},  // runs past the parent: clipped to [90,100)
  };
  const std::vector<uint64_t> self = SelfTimes(spans);
  EXPECT_EQ(self[0], 40u);  // 100 - ([10,60) + [90,100))
  EXPECT_EQ(self[1], 20u);
  EXPECT_EQ(self[4], 30u);
}

TEST(QualityTest, RecallAtKOnToyCase) {
  // Query 0 has true matches {1, 2}; query 5 has {6, 7, 8, 9, 10, 11}.
  const std::vector<uint32_t> queries = {0, 5, 20};
  const std::vector<std::vector<uint32_t>> truth = {
      {0, 1, 2}, {6, 7, 8, 9, 10, 11}, {}};
  const std::vector<std::vector<uint32_t>> returned = {
      {0, 1, 3}, {6, 7, 8, 30, 31}, {1}};
  // Query 0: 1 of min(3, 2) = 0.5 (itself does not count). Query 5: 3 of
  // min(3, 6) = 1.0 within the first k = 3. Query 20 has no truth.
  EXPECT_DOUBLE_EQ(RecallAtK(returned, truth, queries, 3), 0.75);
  EXPECT_DOUBLE_EQ(RecallAtK({{}}, {{}}, {0}, 3), -1.0);
}

TEST(QualityTest, F1OnToyCase) {
  // tp = 2, fp = 1, fn = 1: precision = recall = 2/3.
  EXPECT_NEAR(F1Score({1, 1, 1, 0, 0}, {1, 1, 0, 1, 0}), 2.0 / 3.0, 1e-12);
  EXPECT_DOUBLE_EQ(F1Score({0, 0}, {1, 0}), 0.0);
  EXPECT_DOUBLE_EQ(F1Score({1, 0}, {1, 0}), 1.0);
}

}  // namespace
}  // namespace leapme::benchmark
