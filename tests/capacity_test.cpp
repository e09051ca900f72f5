// Unit + property tests for src/capacity: the piecewise-constant profile's
// exact rate/work/invert algebra, the stochastic generators, and trace I/O.
#include <gtest/gtest.h>

#include <cmath>
#include <filesystem>
#include <fstream>

#include "capacity/capacity_process.hpp"
#include "capacity/capacity_profile.hpp"
#include "capacity/trace_io.hpp"
#include "util/logging.hpp"
#include "util/rng.hpp"
#include "temp_path.hpp"

namespace sjs::cap {
namespace {

// ---------------------------------------------------------------- profile

TEST(CapacityProfile, ConstantProfileBasics) {
  CapacityProfile p(2.0);
  EXPECT_DOUBLE_EQ(p.rate(0.0), 2.0);
  EXPECT_DOUBLE_EQ(p.rate(100.0), 2.0);
  EXPECT_DOUBLE_EQ(p.work(1.0, 4.0), 6.0);
  EXPECT_DOUBLE_EQ(p.invert(1.0, 6.0), 4.0);
  EXPECT_DOUBLE_EQ(p.min_rate(), 2.0);
  EXPECT_DOUBLE_EQ(p.max_rate(), 2.0);
  EXPECT_DOUBLE_EQ(p.delta(), 1.0);
  EXPECT_EQ(p.next_change(0.0), CapacityProfile::kInfinity);
}

TEST(CapacityProfile, PiecewiseRates) {
  CapacityProfile p({0.0, 10.0, 20.0}, {1.0, 35.0, 2.0});
  EXPECT_DOUBLE_EQ(p.rate(0.0), 1.0);
  EXPECT_DOUBLE_EQ(p.rate(9.999), 1.0);
  EXPECT_DOUBLE_EQ(p.rate(10.0), 35.0);  // right-continuous
  EXPECT_DOUBLE_EQ(p.rate(19.0), 35.0);
  EXPECT_DOUBLE_EQ(p.rate(20.0), 2.0);
  EXPECT_DOUBLE_EQ(p.rate(1000.0), 2.0);  // last segment extends forever
}

TEST(CapacityProfile, WorkAcrossSegments) {
  CapacityProfile p({0.0, 10.0, 20.0}, {1.0, 35.0, 2.0});
  EXPECT_DOUBLE_EQ(p.work(0.0, 10.0), 10.0);
  EXPECT_DOUBLE_EQ(p.work(0.0, 20.0), 10.0 + 350.0);
  EXPECT_DOUBLE_EQ(p.work(5.0, 15.0), 5.0 + 175.0);
  EXPECT_DOUBLE_EQ(p.work(20.0, 25.0), 10.0);
  EXPECT_DOUBLE_EQ(p.work(3.0, 3.0), 0.0);
}

TEST(CapacityProfile, InvertWithinSegment) {
  CapacityProfile p({0.0, 10.0}, {1.0, 5.0});
  EXPECT_DOUBLE_EQ(p.invert(0.0, 5.0), 5.0);
  EXPECT_DOUBLE_EQ(p.invert(2.0, 3.0), 5.0);
}

TEST(CapacityProfile, InvertAcrossSegments) {
  CapacityProfile p({0.0, 10.0}, {1.0, 5.0});
  // 10 units in segment one, then 5/unit: 15 units total -> t = 11.
  EXPECT_DOUBLE_EQ(p.invert(0.0, 15.0), 11.0);
  // Start mid-segment: from t=5, 5 units to t=10, then 10 more -> t = 12.
  EXPECT_DOUBLE_EQ(p.invert(5.0, 15.0), 12.0);
}

TEST(CapacityProfile, InvertZeroWorkIsIdentity) {
  CapacityProfile p({0.0, 1.0}, {1.0, 2.0});
  EXPECT_DOUBLE_EQ(p.invert(0.7, 0.0), 0.7);
}

TEST(CapacityProfile, InvertBeyondLastBreakpoint) {
  CapacityProfile p({0.0, 1.0}, {1.0, 4.0});
  EXPECT_DOUBLE_EQ(p.invert(2.0, 8.0), 4.0);
}

TEST(CapacityProfile, NextChange) {
  CapacityProfile p({0.0, 10.0, 20.0}, {1.0, 2.0, 3.0});
  EXPECT_DOUBLE_EQ(p.next_change(0.0), 10.0);
  EXPECT_DOUBLE_EQ(p.next_change(10.0), 20.0);  // strictly after t
  EXPECT_DOUBLE_EQ(p.next_change(15.0), 20.0);
  EXPECT_EQ(p.next_change(20.0), CapacityProfile::kInfinity);
}

TEST(CapacityProfile, CumulativeMatchesWorkFromZero) {
  CapacityProfile p({0.0, 2.0, 5.0}, {3.0, 1.0, 7.0});
  for (double t : {0.0, 1.0, 2.0, 3.5, 5.0, 9.0}) {
    EXPECT_DOUBLE_EQ(p.cumulative(t), p.work(0.0, t));
  }
}

TEST(CapacityProfile, RejectsInvalidConstruction) {
  EXPECT_THROW(CapacityProfile({1.0}, {1.0}), CheckError);          // t0 != 0
  EXPECT_THROW(CapacityProfile({0.0, 0.0}, {1.0, 2.0}), CheckError);  // dup
  EXPECT_THROW(CapacityProfile({0.0, 2.0, 1.0}, {1, 1, 1}), CheckError);
  EXPECT_THROW(CapacityProfile({0.0}, {0.0}), CheckError);          // zero rate
  EXPECT_THROW(CapacityProfile({0.0}, {-1.0}), CheckError);
  EXPECT_THROW(CapacityProfile({}, {}), CheckError);
  EXPECT_THROW(CapacityProfile({0.0, 1.0}, {1.0}), CheckError);     // mismatch
}

TEST(CapacityProfile, RejectsNegativeTimeQueries) {
  CapacityProfile p(1.0);
  EXPECT_THROW(p.rate(-0.5), CheckError);
  EXPECT_THROW(p.work(2.0, 1.0), CheckError);
  EXPECT_THROW(p.invert(0.0, -1.0), CheckError);
}

// Property: invert is the exact inverse of work on random profiles.
class ProfileInverseProperty : public ::testing::TestWithParam<int> {};

TEST_P(ProfileInverseProperty, InvertWorkRoundTrip) {
  Rng rng(static_cast<std::uint64_t>(GetParam()) + 100);
  std::vector<double> times{0.0};
  std::vector<double> rates{rng.uniform(0.5, 10.0)};
  for (int i = 0; i < 30; ++i) {
    times.push_back(times.back() + rng.exponential_mean(2.0));
    rates.push_back(rng.uniform(0.5, 10.0));
  }
  CapacityProfile p(times, rates);
  for (int trial = 0; trial < 50; ++trial) {
    const double t = rng.uniform(0.0, times.back() * 1.2);
    const double w = rng.exponential_mean(5.0);
    const double t2 = p.invert(t, w);
    EXPECT_GE(t2, t);
    EXPECT_NEAR(p.work(t, t2), w, 1e-9 * std::max(1.0, w));
  }
}

TEST_P(ProfileInverseProperty, WorkIsAdditive) {
  Rng rng(static_cast<std::uint64_t>(GetParam()) + 200);
  std::vector<double> times{0.0};
  std::vector<double> rates{rng.uniform(0.5, 10.0)};
  for (int i = 0; i < 20; ++i) {
    times.push_back(times.back() + rng.exponential_mean(1.0));
    rates.push_back(rng.uniform(0.5, 10.0));
  }
  CapacityProfile p(times, rates);
  for (int trial = 0; trial < 30; ++trial) {
    double a = rng.uniform(0.0, 20.0);
    double c = a + rng.exponential_mean(5.0);
    double b = rng.uniform(a, c);
    EXPECT_NEAR(p.work(a, c), p.work(a, b) + p.work(b, c), 1e-9);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ProfileInverseProperty,
                         ::testing::Range(0, 8));

// ----------------------------------------------------------------- cursor
//
// The cursor is a drop-in replacement for the plain methods on the engine's
// hot path, gated by replay digests — so its results must be BIT-identical
// (EXPECT_EQ on doubles, not EXPECT_NEAR), on monotone streams, backward
// jumps, and after reset().

TEST(CapacityCursor, MatchesPlainMethodsExactlyOnMonotoneStream) {
  Rng rng(300);
  for (int profile_trial = 0; profile_trial < 4; ++profile_trial) {
    std::vector<double> times{0.0};
    std::vector<double> rates{rng.uniform(0.5, 10.0)};
    for (int i = 0; i < 40; ++i) {
      times.push_back(times.back() + rng.exponential_mean(1.0));
      rates.push_back(rng.uniform(0.5, 10.0));
    }
    CapacityProfile p(times, rates);
    CapacityProfile::Cursor cursor(p);
    double t = 0.0;
    for (int q = 0; q < 200; ++q) {
      const double w = rng.exponential_mean(4.0);
      EXPECT_EQ(cursor.rate(t), p.rate(t));
      EXPECT_EQ(cursor.cumulative(t), p.cumulative(t));
      EXPECT_EQ(cursor.invert(t, w), p.invert(t, w));
      const double t2 = t + rng.exponential_mean(0.7);
      EXPECT_EQ(cursor.work(t, t2), p.work(t, t2));
      t = t2;
    }
  }
}

TEST(CapacityCursor, MatchesPlainMethodsOnBackwardJumps) {
  // Backward queries fall back to binary search; answers stay identical.
  Rng rng(301);
  std::vector<double> times{0.0};
  std::vector<double> rates{rng.uniform(0.5, 10.0)};
  for (int i = 0; i < 40; ++i) {
    times.push_back(times.back() + rng.exponential_mean(1.0));
    rates.push_back(rng.uniform(0.5, 10.0));
  }
  CapacityProfile p(times, rates);
  CapacityProfile::Cursor cursor(p);
  const double span = times.back();
  for (int q = 0; q < 300; ++q) {
    const double t = rng.uniform(0.0, span * 1.3);  // arbitrary order
    const double w = rng.exponential_mean(4.0);
    EXPECT_EQ(cursor.rate(t), p.rate(t));
    EXPECT_EQ(cursor.invert(t, w), p.invert(t, w));
    EXPECT_EQ(cursor.work(t, t + w), p.work(t, t + w));
  }
}

TEST(CapacityCursor, InvertLookaheadDoesNotPoisonHint) {
  // invert() may gallop far ahead of the current segment (a long completion
  // lookahead); the next rate() query at the *current* time must still be on
  // the forward-walk fast path and — more importantly — still exact.
  CapacityProfile p({0.0, 1.0, 2.0, 3.0, 4.0, 5.0}, {1, 2, 3, 4, 5, 6});
  CapacityProfile::Cursor cursor(p);
  EXPECT_EQ(cursor.rate(0.5), 1.0);
  EXPECT_EQ(cursor.invert(0.5, 100.0), p.invert(0.5, 100.0));  // far lookahead
  EXPECT_EQ(cursor.rate(0.6), 1.0);  // still exact at the original position
  EXPECT_EQ(cursor.cumulative(0.6), p.cumulative(0.6));
}

TEST(CapacityCursor, ResetRestartsFromTimeZero) {
  CapacityProfile p({0.0, 10.0, 20.0}, {1.0, 35.0, 2.0});
  CapacityProfile::Cursor cursor(p);
  EXPECT_EQ(cursor.rate(25.0), 2.0);  // advance hint to the last segment
  cursor.reset();
  EXPECT_EQ(cursor.rate(0.0), 1.0);
  EXPECT_EQ(cursor.work(0.0, 20.0), p.work(0.0, 20.0));
}

TEST(CapacityCursor, RejectsInvalidQueriesLikePlainMethods) {
  CapacityProfile p(1.0);
  CapacityProfile::Cursor cursor(p);
  EXPECT_THROW(cursor.rate(-0.5), CheckError);
  EXPECT_THROW(cursor.work(2.0, 1.0), CheckError);
  EXPECT_THROW(cursor.invert(0.0, -1.0), CheckError);
}

// ---------------------------------------------------------------- processes

TEST(TwoStateMarkov, PathStaysInBand) {
  Rng rng(1);
  TwoStateMarkovParams params;
  params.c_lo = 1.0;
  params.c_hi = 35.0;
  params.mean_sojourn_lo = params.mean_sojourn_hi = 10.0;
  auto p = sample_two_state_markov(params, 200.0, rng);
  for (double r : p.rates()) {
    EXPECT_TRUE(r == 1.0 || r == 35.0) << r;
  }
  EXPECT_DOUBLE_EQ(p.breakpoints().front(), 0.0);
}

TEST(TwoStateMarkov, AlternatesStates) {
  Rng rng(2);
  TwoStateMarkovParams params;
  params.mean_sojourn_lo = params.mean_sojourn_hi = 1.0;
  auto p = sample_two_state_markov(params, 100.0, rng);
  ASSERT_GT(p.segments(), 10u);  // ~100 expected switches
  for (std::size_t i = 1; i < p.rates().size(); ++i) {
    EXPECT_NE(p.rates()[i], p.rates()[i - 1]);
  }
}

TEST(TwoStateMarkov, SojournMeanRoughlyMatches) {
  Rng rng(3);
  TwoStateMarkovParams params;
  params.mean_sojourn_lo = params.mean_sojourn_hi = 2.0;
  auto p = sample_two_state_markov(params, 20000.0, rng);
  // segments ≈ horizon / mean_sojourn.
  const double mean_seg = 20000.0 / static_cast<double>(p.segments());
  EXPECT_NEAR(mean_seg, 2.0, 0.2);
}

TEST(TwoStateMarkov, DeterministicGivenSeed) {
  TwoStateMarkovParams params;
  Rng a(7), b(7);
  auto pa = sample_two_state_markov(params, 50.0, a);
  auto pb = sample_two_state_markov(params, 50.0, b);
  EXPECT_EQ(pa.breakpoints(), pb.breakpoints());
  EXPECT_EQ(pa.rates(), pb.rates());
}

TEST(MarkovChain, ThreeStateChainStaysInStates) {
  Rng rng(4);
  MarkovChainParams params;
  params.rates = {1.0, 5.0, 20.0};
  params.mean_sojourn = {1.0, 2.0, 1.0};
  params.transition = {{0.0, 0.5, 0.5}, {0.5, 0.0, 0.5}, {0.5, 0.5, 0.0}};
  auto p = sample_markov_chain(params, 100.0, rng);
  for (double r : p.rates()) {
    EXPECT_TRUE(r == 1.0 || r == 5.0 || r == 20.0);
  }
}

TEST(MarkovChain, RejectsBadTransitionMatrix) {
  Rng rng(5);
  MarkovChainParams params;
  params.rates = {1.0, 2.0};
  params.mean_sojourn = {1.0, 1.0};
  params.transition = {{0.5, 0.5}, {1.0, 0.0}};  // self-loop in row 0
  EXPECT_THROW(sample_markov_chain(params, 10.0, rng), CheckError);
  params.transition = {{0.0, 0.4}, {1.0, 0.0}};  // row does not sum to 1
  EXPECT_THROW(sample_markov_chain(params, 10.0, rng), CheckError);
}

TEST(MarkovChain, SingleStateIsConstant) {
  Rng rng(6);
  MarkovChainParams params;
  params.rates = {3.0};
  params.mean_sojourn = {1.0};
  params.transition = {{0.0}};
  auto p = sample_markov_chain(params, 10.0, rng);
  EXPECT_EQ(p.segments(), 1u);
  EXPECT_DOUBLE_EQ(p.rate(5.0), 3.0);
}

TEST(RandomWalk, StaysClampedInBand) {
  Rng rng(7);
  RandomWalkParams params;
  params.c_lo = 1.0;
  params.c_hi = 8.0;
  params.start = 4.0;
  params.mean_epoch = 0.1;
  auto p = sample_random_walk(params, 100.0, rng);
  for (double r : p.rates()) {
    EXPECT_GE(r, 1.0);
    EXPECT_LE(r, 8.0);
  }
  EXPECT_GT(p.segments(), 100u);
}

TEST(Sinusoid, ClampedAndPeriodic) {
  SinusoidParams params;
  params.mid = 5.0;
  params.amp = 10.0;  // would dip below zero without the clamp
  params.c_lo = 1.0;
  params.c_hi = 12.0;
  auto p = sample_sinusoid(params, 300.0);
  for (double r : p.rates()) {
    EXPECT_GE(r, 1.0);
    EXPECT_LE(r, 12.0);
  }
}

TEST(SquareWave, ExactPattern) {
  auto p = square_wave(1.0, 10.0, 2.0, 3.0, 12.0);
  EXPECT_DOUBLE_EQ(p.rate(0.0), 1.0);
  EXPECT_DOUBLE_EQ(p.rate(1.999), 1.0);
  EXPECT_DOUBLE_EQ(p.rate(2.0), 10.0);
  EXPECT_DOUBLE_EQ(p.rate(4.999), 10.0);
  EXPECT_DOUBLE_EQ(p.rate(5.0), 1.0);
  EXPECT_DOUBLE_EQ(p.work(0.0, 5.0), 2.0 + 30.0);
}

// ---------------------------------------------------------------- trace I/O

class TraceIo : public ::testing::Test {
 protected:
  std::string path_ = sjs::testutil::unique_temp_path("sjs_trace_test", ".csv");
  void TearDown() override { std::filesystem::remove(path_); }
};

TEST_F(TraceIo, RoundTrip) {
  CapacityProfile original({0.0, 1.5, 4.0}, {1.0, 35.0, 2.0});
  save_trace(original, path_);
  auto loaded = load_trace(path_);
  EXPECT_EQ(loaded.breakpoints(), original.breakpoints());
  EXPECT_EQ(loaded.rates(), original.rates());
}

TEST_F(TraceIo, RejectsMalformedRows) {
  {
    std::ofstream out(path_);
    out << "time,rate\n0.0,1.0,extra\n";
  }
  EXPECT_THROW(load_trace(path_), std::runtime_error);
}

TEST_F(TraceIo, RejectsNonNumeric) {
  {
    std::ofstream out(path_);
    out << "0.0,abc\n";
  }
  EXPECT_THROW(load_trace(path_), std::runtime_error);
}

TEST_F(TraceIo, RejectsNegativeRate) {
  {
    std::ofstream out(path_);
    out << "time,rate\n0.0,-1.0\n";
  }
  EXPECT_THROW(load_trace(path_), std::runtime_error);
}

TEST_F(TraceIo, RejectsEmpty) {
  {
    std::ofstream out(path_);
  }
  EXPECT_THROW(load_trace(path_), std::runtime_error);
}

}  // namespace
}  // namespace sjs::cap
