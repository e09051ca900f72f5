// Unit tests for src/stats: Welford accumulators, summaries, histograms,
// step-function time series.
#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "stats/histogram.hpp"
#include "stats/summary.hpp"
#include "stats/timeseries.hpp"
#include "stats/welford.hpp"
#include "util/logging.hpp"
#include "util/rng.hpp"

namespace sjs {
namespace {

// ---------------------------------------------------------------- Welford

TEST(Welford, EmptyIsZero) {
  Welford w;
  EXPECT_EQ(w.count(), 0u);
  EXPECT_DOUBLE_EQ(w.mean(), 0.0);
  EXPECT_DOUBLE_EQ(w.variance_sample(), 0.0);
}

TEST(Welford, SingleSample) {
  Welford w;
  w.add(5.0);
  EXPECT_EQ(w.count(), 1u);
  EXPECT_DOUBLE_EQ(w.mean(), 5.0);
  EXPECT_DOUBLE_EQ(w.variance_sample(), 0.0);
  EXPECT_DOUBLE_EQ(w.min(), 5.0);
  EXPECT_DOUBLE_EQ(w.max(), 5.0);
}

TEST(Welford, MatchesNaiveComputation) {
  Rng rng(1);
  std::vector<double> xs;
  Welford w;
  for (int i = 0; i < 1000; ++i) {
    double x = rng.uniform(-10, 10);
    xs.push_back(x);
    w.add(x);
  }
  double mean = 0.0;
  for (double x : xs) mean += x;
  mean /= xs.size();
  double var = 0.0;
  for (double x : xs) var += (x - mean) * (x - mean);
  var /= (xs.size() - 1);
  EXPECT_NEAR(w.mean(), mean, 1e-12);
  EXPECT_NEAR(w.variance_sample(), var, 1e-10);
}

TEST(Welford, NumericallyStableWithLargeOffset) {
  Welford w;
  // Classic catastrophic-cancellation case for the naive formula.
  for (double x : {1e9 + 4.0, 1e9 + 7.0, 1e9 + 13.0, 1e9 + 16.0}) w.add(x);
  EXPECT_NEAR(w.mean(), 1e9 + 10.0, 1e-3);
  EXPECT_NEAR(w.variance_sample(), 30.0, 1e-6);
}

TEST(Welford, MergeEqualsSequential) {
  Rng rng(2);
  Welford all, a, b;
  for (int i = 0; i < 500; ++i) {
    double x = rng.normal();
    all.add(x);
    (i % 2 ? a : b).add(x);
  }
  a.merge(b);
  EXPECT_EQ(a.count(), all.count());
  EXPECT_NEAR(a.mean(), all.mean(), 1e-12);
  EXPECT_NEAR(a.variance_sample(), all.variance_sample(), 1e-10);
  EXPECT_DOUBLE_EQ(a.min(), all.min());
  EXPECT_DOUBLE_EQ(a.max(), all.max());
}

TEST(Welford, MergeWithEmpty) {
  Welford a, b;
  a.add(1.0);
  a.add(3.0);
  a.merge(b);  // merging empty changes nothing
  EXPECT_EQ(a.count(), 2u);
  EXPECT_DOUBLE_EQ(a.mean(), 2.0);
  b.merge(a);  // empty absorbing non-empty copies it
  EXPECT_EQ(b.count(), 2u);
  EXPECT_DOUBLE_EQ(b.mean(), 2.0);
}

TEST(Welford, SemShrinksWithSamples) {
  Welford small, large;
  Rng rng(3);
  for (int i = 0; i < 10; ++i) small.add(rng.normal());
  for (int i = 0; i < 1000; ++i) large.add(rng.normal());
  EXPECT_GT(small.sem(), large.sem());
}

// ---------------------------------------------------------------- Summary

TEST(Summary, EmptySampleIsZeroed) {
  auto s = summarize({});
  EXPECT_EQ(s.count, 0u);
  EXPECT_DOUBLE_EQ(s.mean, 0.0);
}

TEST(Summary, KnownValues) {
  auto s = summarize({1, 2, 3, 4, 5});
  EXPECT_EQ(s.count, 5u);
  EXPECT_DOUBLE_EQ(s.mean, 3.0);
  EXPECT_DOUBLE_EQ(s.median, 3.0);
  EXPECT_DOUBLE_EQ(s.min, 1.0);
  EXPECT_DOUBLE_EQ(s.max, 5.0);
  EXPECT_NEAR(s.stddev, std::sqrt(2.5), 1e-12);
}

TEST(Summary, CiContainsMeanAndIsSymmetric) {
  auto s = summarize({1, 2, 3, 4, 5, 6, 7, 8});
  EXPECT_LT(s.ci95_lo, s.mean);
  EXPECT_GT(s.ci95_hi, s.mean);
  EXPECT_NEAR(s.mean - s.ci95_lo, s.ci95_hi - s.mean, 1e-12);
}

TEST(Summary, QuantileInterpolation) {
  std::vector<double> sorted{0, 10};
  EXPECT_DOUBLE_EQ(quantile_sorted(sorted, 0.0), 0.0);
  EXPECT_DOUBLE_EQ(quantile_sorted(sorted, 0.5), 5.0);
  EXPECT_DOUBLE_EQ(quantile_sorted(sorted, 1.0), 10.0);
  EXPECT_DOUBLE_EQ(quantile_sorted(sorted, 0.25), 2.5);
}

TEST(Summary, QuantileSingleton) {
  EXPECT_DOUBLE_EQ(quantile_sorted({7.0}, 0.9), 7.0);
}

TEST(Summary, QuantileEmptyThrows) {
  EXPECT_THROW(quantile_sorted({}, 0.5), CheckError);
}

TEST(Summary, UnsortedInputHandled) {
  auto s = summarize({5, 1, 4, 2, 3});
  EXPECT_DOUBLE_EQ(s.median, 3.0);
  EXPECT_DOUBLE_EQ(s.min, 1.0);
}

// ---------------------------------------------------------------- Histogram

TEST(Histogram, BinsCountCorrectly) {
  Histogram h(0.0, 10.0, 10);
  for (int i = 0; i < 10; ++i) h.add(i + 0.5);
  for (std::size_t b = 0; b < 10; ++b) EXPECT_EQ(h.count(b), 1u);
  EXPECT_EQ(h.total(), 10u);
}

TEST(Histogram, UnderOverflow) {
  Histogram h(0.0, 1.0, 4);
  h.add(-0.1);
  h.add(1.0);  // hi is exclusive
  h.add(2.0);
  EXPECT_EQ(h.underflow(), 1u);
  EXPECT_EQ(h.overflow(), 2u);
  EXPECT_EQ(h.total(), 3u);
}

TEST(Histogram, BinEdges) {
  Histogram h(0.0, 10.0, 5);
  EXPECT_DOUBLE_EQ(h.bin_lo(0), 0.0);
  EXPECT_DOUBLE_EQ(h.bin_hi(0), 2.0);
  EXPECT_DOUBLE_EQ(h.bin_lo(4), 8.0);
  EXPECT_DOUBLE_EQ(h.bin_hi(4), 10.0);
}

TEST(Histogram, BoundaryGoesToUpperBin) {
  Histogram h(0.0, 10.0, 5);
  h.add(2.0);  // exactly on the 0/1 bin edge -> bin 1
  EXPECT_EQ(h.count(0), 0u);
  EXPECT_EQ(h.count(1), 1u);
}

TEST(Histogram, InvalidConstructionThrows) {
  EXPECT_THROW(Histogram(1.0, 1.0, 4), CheckError);
  EXPECT_THROW(Histogram(0.0, 1.0, 0), CheckError);
}

TEST(Histogram, QuantileIsTheUpperEdgeOfItsBin) {
  Histogram h(0.0, 100.0, 100);
  EXPECT_TRUE(std::isnan(h.quantile(0.5)));
  for (int i = 0; i < 100; ++i) h.add(i + 0.5);  // one sample per bin
  EXPECT_DOUBLE_EQ(h.quantile(0.50), 50.0);
  EXPECT_DOUBLE_EQ(h.quantile(0.99), 99.0);
  EXPECT_DOUBLE_EQ(h.quantile(1.0), 100.0);
  // Under- and overflow samples read as the range's edges.
  Histogram edges(0.0, 1.0, 4);
  edges.add(-1.0);
  edges.add(5.0);
  EXPECT_DOUBLE_EQ(edges.quantile(0.5), 0.0);
  EXPECT_DOUBLE_EQ(edges.quantile(1.0), 1.0);
}

TEST(Histogram, RenderShowsBars) {
  Histogram h(0.0, 1.0, 2);
  for (int i = 0; i < 5; ++i) h.add(0.25);
  auto text = h.render();
  EXPECT_NE(text.find('#'), std::string::npos);
}

// ---------------------------------------------------------------- StepFunction

TEST(StepFunction, EmptyEvaluatesToBefore) {
  StepFunction f;
  EXPECT_DOUBLE_EQ(f.value_at(5.0), 0.0);
}

TEST(StepFunction, RightContinuity) {
  StepFunction f({0.0, 1.0, 2.0}, {10.0, 20.0, 30.0});
  EXPECT_DOUBLE_EQ(f.value_at(0.0), 10.0);
  EXPECT_DOUBLE_EQ(f.value_at(0.999), 10.0);
  EXPECT_DOUBLE_EQ(f.value_at(1.0), 20.0);  // right-continuous at breakpoints
  EXPECT_DOUBLE_EQ(f.value_at(5.0), 30.0);  // extends past last breakpoint
}

TEST(StepFunction, BeforeFirstBreakpoint) {
  StepFunction f({1.0}, {7.0}, /*before=*/-1.0);
  EXPECT_DOUBLE_EQ(f.value_at(0.5), -1.0);
  EXPECT_DOUBLE_EQ(f.value_at(1.0), 7.0);
}

TEST(StepFunction, AppendMaintainsOrder) {
  StepFunction f;
  f.append(0.0, 1.0);
  f.append(2.0, 3.0);
  EXPECT_DOUBLE_EQ(f.value_at(1.0), 1.0);
  EXPECT_DOUBLE_EQ(f.value_at(2.5), 3.0);
  EXPECT_THROW(f.append(1.0, 9.0), CheckError);
}

TEST(StepFunction, AppendSameInstantCollapses) {
  StepFunction f;
  f.append(1.0, 5.0);
  f.append(1.0, 9.0);  // same instant: the later value wins
  EXPECT_EQ(f.size(), 1u);
  EXPECT_DOUBLE_EQ(f.value_at(1.0), 9.0);
}

TEST(StepFunction, IntegrateExactAcrossBreakpoints) {
  StepFunction f({0.0, 1.0, 3.0}, {2.0, 4.0, 1.0});
  // [0,1): 2, [1,3): 4, [3,..): 1
  EXPECT_DOUBLE_EQ(f.integrate(0.0, 1.0), 2.0);
  EXPECT_DOUBLE_EQ(f.integrate(0.0, 3.0), 10.0);
  EXPECT_DOUBLE_EQ(f.integrate(0.5, 3.5), 1.0 + 8.0 + 0.5);
  EXPECT_DOUBLE_EQ(f.integrate(2.0, 2.0), 0.0);
}

TEST(StepFunction, IntegrateBeforeFirstBreakpointUsesBefore) {
  StepFunction f({2.0}, {10.0}, /*before=*/1.0);
  EXPECT_DOUBLE_EQ(f.integrate(0.0, 3.0), 2.0 * 1.0 + 1.0 * 10.0);
}

TEST(StepFunction, ResampleEndpoints) {
  StepFunction f({0.0, 5.0}, {1.0, 2.0});
  auto y = f.resample(0.0, 10.0, 11);
  ASSERT_EQ(y.size(), 11u);
  EXPECT_DOUBLE_EQ(y.front(), 1.0);
  EXPECT_DOUBLE_EQ(y[4], 1.0);   // t = 4
  EXPECT_DOUBLE_EQ(y[5], 2.0);   // t = 5 (right-continuous)
  EXPECT_DOUBLE_EQ(y.back(), 2.0);
}

TEST(StepFunction, MeanResampledAverages) {
  StepFunction a({0.0}, {1.0});
  StepFunction b({0.0}, {3.0});
  auto mean = mean_resampled({a, b}, 0.0, 1.0, 5);
  for (double v : mean) EXPECT_DOUBLE_EQ(v, 2.0);
}

TEST(StepFunction, ConstructorRejectsMismatch) {
  EXPECT_THROW(StepFunction({0.0, 1.0}, {1.0}), CheckError);
  EXPECT_THROW(StepFunction({1.0, 0.5}, {1.0, 2.0}), CheckError);
}

// Property: integrate() telescopes — ∫[a,c] = ∫[a,b] + ∫[b,c] on random
// step functions.
class StepFunctionProperty : public ::testing::TestWithParam<int> {};

TEST_P(StepFunctionProperty, IntegralTelescopes) {
  Rng rng(static_cast<std::uint64_t>(GetParam()));
  StepFunction f;
  double t = 0.0;
  for (int i = 0; i < 20; ++i) {
    f.append(t, rng.uniform(0.5, 5.0));
    t += rng.exponential_mean(1.0);
  }
  for (int trial = 0; trial < 20; ++trial) {
    double a = rng.uniform(0.0, t);
    double c = rng.uniform(a, t + 2.0);
    double b = rng.uniform(a, c);
    EXPECT_NEAR(f.integrate(a, c), f.integrate(a, b) + f.integrate(b, c),
                1e-9);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, StepFunctionProperty,
                         ::testing::Range(0, 8));

}  // namespace
}  // namespace sjs
