// Unit tests for src/util: RNG, CLI flags, CSV, ASCII charts, logging/checks.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <limits>
#include <mutex>
#include <numeric>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "util/ascii_chart.hpp"
#include "util/cli.hpp"
#include "util/csv.hpp"
#include "util/gnuplot.hpp"
#include "util/logging.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"
#include "util/vec.hpp"
#include "temp_path.hpp"

namespace sjs {
namespace {

// ---------------------------------------------------------------- RNG

TEST(Rng, DeterministicForSameSeed) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a(), b());
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(123), b(124);
  int same = 0;
  for (int i = 0; i < 100; ++i) same += (a() == b());
  EXPECT_LT(same, 3);
}

TEST(Rng, StreamsAreIndependent) {
  Rng a(7, 0), b(7, 1);
  int same = 0;
  for (int i = 0; i < 100; ++i) same += (a() == b());
  EXPECT_LT(same, 3);
}

TEST(Rng, StreamIsDeterministic) {
  Rng a(7, 5), b(7, 5);
  for (int i = 0; i < 50; ++i) EXPECT_EQ(a(), b());
}

TEST(Rng, Uniform01InRange) {
  Rng rng(1);
  for (int i = 0; i < 10000; ++i) {
    double u = rng.uniform01();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(Rng, Uniform01MeanNearHalf) {
  Rng rng(2);
  double sum = 0.0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) sum += rng.uniform01();
  EXPECT_NEAR(sum / n, 0.5, 0.01);
}

TEST(Rng, UniformRangeRespected) {
  Rng rng(3);
  for (int i = 0; i < 1000; ++i) {
    double u = rng.uniform(-2.5, 7.5);
    EXPECT_GE(u, -2.5);
    EXPECT_LT(u, 7.5);
  }
}

TEST(Rng, ExponentialMeanMatches) {
  Rng rng(4);
  double sum = 0.0;
  const int n = 200000;
  for (int i = 0; i < n; ++i) sum += rng.exponential_mean(3.0);
  EXPECT_NEAR(sum / n, 3.0, 0.05);
}

TEST(Rng, ExponentialStrictlyPositive) {
  Rng rng(5);
  for (int i = 0; i < 10000; ++i) EXPECT_GT(rng.exponential_mean(1.0), 0.0);
}

TEST(Rng, ExponentialRateIsReciprocalMean) {
  Rng a(6), b(6);
  for (int i = 0; i < 100; ++i) {
    EXPECT_DOUBLE_EQ(a.exponential_rate(4.0), b.exponential_mean(0.25));
  }
}

TEST(Rng, BelowInBounds) {
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) EXPECT_LT(rng.below(17), 17u);
}

TEST(Rng, BelowZeroIsZero) {
  Rng rng(8);
  EXPECT_EQ(rng.below(0), 0u);
}

TEST(Rng, BelowOneIsZero) {
  Rng rng(8);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(rng.below(1), 0u);
}

TEST(Rng, BelowRoughlyUniform) {
  Rng rng(9);
  std::vector<int> counts(10, 0);
  const int n = 100000;
  for (int i = 0; i < n; ++i) ++counts[rng.below(10)];
  for (int c : counts) EXPECT_NEAR(c, n / 10, n / 100);
}

TEST(Rng, UniformIntInclusiveBounds) {
  Rng rng(10);
  bool saw_lo = false, saw_hi = false;
  for (int i = 0; i < 10000; ++i) {
    auto v = rng.uniform_int(-3, 3);
    EXPECT_GE(v, -3);
    EXPECT_LE(v, 3);
    saw_lo |= (v == -3);
    saw_hi |= (v == 3);
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(Rng, BernoulliFrequency) {
  Rng rng(11);
  int hits = 0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) hits += rng.bernoulli(0.3);
  EXPECT_NEAR(static_cast<double>(hits) / n, 0.3, 0.01);
}

TEST(Rng, NormalMoments) {
  Rng rng(12);
  double sum = 0.0, sq = 0.0;
  const int n = 200000;
  for (int i = 0; i < n; ++i) {
    double x = rng.normal();
    sum += x;
    sq += x * x;
  }
  EXPECT_NEAR(sum / n, 0.0, 0.01);
  EXPECT_NEAR(sq / n, 1.0, 0.02);
}

TEST(Rng, BoundedParetoInRange) {
  Rng rng(13);
  for (int i = 0; i < 10000; ++i) {
    double x = rng.bounded_pareto(1.5, 0.1, 20.0);
    EXPECT_GE(x, 0.1 - 1e-9);
    EXPECT_LE(x, 20.0 + 1e-9);
  }
}

TEST(Rng, ShuffleIsPermutation) {
  Rng rng(14);
  std::vector<int> v(50);
  std::iota(v.begin(), v.end(), 0);
  auto original = v;
  rng.shuffle(v);
  auto sorted = v;
  std::sort(sorted.begin(), sorted.end());
  EXPECT_EQ(sorted, original);
  EXPECT_NE(v, original);  // 50! permutations; identity is absurdly unlikely
}

// ---------------------------------------------------------------- ThreadPool

TEST(ThreadPool, ParallelForCoversEveryIndexOnce) {
  std::vector<int> hits(1000, 0);
  parallel_for(3, hits.size(), [&](std::size_t i) { ++hits[i]; });
  for (int h : hits) EXPECT_EQ(h, 1);
}

TEST(ThreadPool, ParallelForEmptyIsNoop) {
  parallel_for(2, 0, [](std::size_t) { FAIL(); });
}

TEST(ThreadPool, ParallelForFewerItemsThanThreads) {
  std::vector<int> hits(3, 0);
  parallel_for(8, hits.size(), [&](std::size_t i) { ++hits[i]; });
  for (int h : hits) EXPECT_EQ(h, 1);
}

TEST(ThreadPool, ParallelForSingleItem) {
  std::vector<int> hits(1, 0);
  parallel_for(4, hits.size(), [&](std::size_t i) { ++hits[i]; });
  EXPECT_EQ(hits[0], 1);
}

TEST(ThreadPool, ParallelForNonDivisibleBlockSizes) {
  // 1000 % 7 threads != 0: the trailing partial block must still run and no
  // index may be visited twice.
  std::vector<std::atomic<int>> hits(1000);
  parallel_for(7, hits.size(), [&](std::size_t i) { ++hits[i]; });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPool, ParallelForPrimeCountOnSingleThread) {
  std::vector<int> hits(13, 0);
  parallel_for(1, hits.size(), [&](std::size_t i) { ++hits[i]; });
  for (int h : hits) EXPECT_EQ(h, 1);
}

TEST(ThreadPool, ParallelForOneWorkerRunsOnCaller) {
  // threads == 1, and n == 1 under many threads, are both one-worker calls:
  // every iteration runs on the calling thread and no thread is started.
  const std::thread::id caller = std::this_thread::get_id();
  for (const auto& [threads, n] :
       {std::pair<std::size_t, std::size_t>{1, 13}, {8, 1}}) {
    std::vector<std::thread::id> ids(n);
    parallel_for(threads, n,
                 [&](std::size_t i) { ids[i] = std::this_thread::get_id(); });
    for (const auto& id : ids) EXPECT_EQ(id, caller) << threads << "x" << n;
  }
}

TEST(ThreadPool, ParallelForUsesAtMostMinThreadsItemsWorkers) {
  const std::thread::id caller = std::this_thread::get_id();
  for (const auto& [threads, n] :
       {std::pair<std::size_t, std::size_t>{3, 100}, {8, 3}, {4, 10}}) {
    std::mutex mu;
    std::set<std::thread::id> ids;
    parallel_for(threads, n, [&](std::size_t) {
      std::lock_guard<std::mutex> lock(mu);
      ids.insert(std::this_thread::get_id());
    });
    EXPECT_LE(ids.size(), std::min(threads, n)) << threads << "x" << n;
    EXPECT_EQ(ids.count(caller), 1u) << "the caller runs the first block";
  }
}

TEST(ThreadPool, ParallelForHelperExceptionJoinsAndRethrows) {
  // Blocks [0, 2) on the caller and [2, 4) on one helper. Index 2 throws
  // while the caller's block is still waiting for it; the call must join the
  // helper, let the caller's block finish, and rethrow on the caller.
  std::atomic<bool> helper_threw{false};
  std::vector<std::atomic<int>> hits(4);
  try {
    parallel_for(2, hits.size(), [&](std::size_t i) {
      ++hits[i];
      if (i == 0) {
        while (!helper_threw.load()) std::this_thread::yield();
      }
      if (i == 2) {
        helper_threw.store(true);
        throw std::runtime_error("helper block");
      }
    });
    FAIL() << "expected the helper's exception";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "helper block");
  }
  EXPECT_EQ(hits[0].load(), 1);
  EXPECT_EQ(hits[1].load(), 1);  // the caller's block ran to its end
  EXPECT_EQ(hits[2].load(), 1);
  EXPECT_EQ(hits[3].load(), 0);  // a block stops at its first exception
}

TEST(ThreadPool, ParallelForRethrowsLowestFailingBlock) {
  // Every block fails; whatever order they fail in, the caller sees the
  // exception a serial loop would have thrown: index 0's.
  for (std::size_t threads : {1u, 4u}) {
    try {
      parallel_for(threads, 8, [](std::size_t i) {
        throw std::runtime_error("index " + std::to_string(i));
      });
      FAIL() << "expected an exception";
    } catch (const std::runtime_error& e) {
      EXPECT_STREQ(e.what(), "index 0") << threads;
    }
  }
}

// ---------------------------------------------------------------- CLI

TEST(Cli, ParsesEqualsSyntax) {
  CliFlags flags;
  flags.add_double("rate", 1.0, "");
  const char* argv[] = {"prog", "--rate=2.5"};
  ASSERT_TRUE(flags.parse(2, const_cast<char**>(argv)));
  EXPECT_DOUBLE_EQ(flags.get_double("rate"), 2.5);
}

TEST(Cli, ParsesSpaceSyntax) {
  CliFlags flags;
  flags.add_int("runs", 10, "");
  const char* argv[] = {"prog", "--runs", "800"};
  ASSERT_TRUE(flags.parse(3, const_cast<char**>(argv)));
  EXPECT_EQ(flags.get_int("runs"), 800);
}

TEST(Cli, BareBooleanFlag) {
  CliFlags flags;
  flags.add_bool("verbose", false, "");
  const char* argv[] = {"prog", "--verbose"};
  ASSERT_TRUE(flags.parse(2, const_cast<char**>(argv)));
  EXPECT_TRUE(flags.get_bool("verbose"));
}

TEST(Cli, BooleanExplicitFalse) {
  CliFlags flags;
  flags.add_bool("verbose", true, "");
  const char* argv[] = {"prog", "--verbose=false"};
  ASSERT_TRUE(flags.parse(2, const_cast<char**>(argv)));
  EXPECT_FALSE(flags.get_bool("verbose"));
}

TEST(Cli, MixedSyntaxAcrossAllTypes) {
  // One invocation freely mixing --name=value and --name value, covering
  // every registered flag type (the serving binaries are driven both ways).
  CliFlags flags;
  flags.add_double("rate", 1.0, "");
  flags.add_int("port", 0, "");
  flags.add_bool("drain", false, "");
  flags.add_string("scheduler", "V-Dover", "");
  flags.add_double_list("lambda", {1.0}, "");
  const char* argv[] = {"prog",   "--rate=2.5", "--port", "7070",
                        "--drain", "--scheduler", "EDF",  "--lambda=4,5"};
  ASSERT_TRUE(flags.parse(8, const_cast<char**>(argv))) << flags.error();
  EXPECT_DOUBLE_EQ(flags.get_double("rate"), 2.5);
  EXPECT_EQ(flags.get_int("port"), 7070);
  EXPECT_TRUE(flags.get_bool("drain"));
  EXPECT_EQ(flags.get_string("scheduler"), "EDF");
  EXPECT_EQ(flags.get_double_list("lambda"), (std::vector<double>{4.0, 5.0}));
}

TEST(Cli, SpaceSyntaxForStringAndList) {
  CliFlags flags;
  flags.add_string("journal", "", "");
  flags.add_double_list("c-hats", {}, "");
  const char* argv[] = {"prog", "--journal", "/tmp/j", "--c-hats", "1,2,3"};
  ASSERT_TRUE(flags.parse(5, const_cast<char**>(argv))) << flags.error();
  EXPECT_EQ(flags.get_string("journal"), "/tmp/j");
  EXPECT_EQ(flags.get_double_list("c-hats"),
            (std::vector<double>{1.0, 2.0, 3.0}));
}

TEST(Cli, EqualsValueMayContainEquals) {
  // Only the first '=' splits name from value.
  CliFlags flags;
  flags.add_string("define", "", "");
  const char* argv[] = {"prog", "--define=key=value"};
  ASSERT_TRUE(flags.parse(2, const_cast<char**>(argv)));
  EXPECT_EQ(flags.get_string("define"), "key=value");
}

TEST(Cli, BareBoolDoesNotConsumeNextFlag) {
  // --drain is bare boolean syntax: the following --rate=9 must still parse
  // as its own flag, not be swallowed as drain's value.
  CliFlags flags;
  flags.add_bool("drain", false, "");
  flags.add_double("rate", 1.0, "");
  const char* argv[] = {"prog", "--drain", "--rate=9"};
  ASSERT_TRUE(flags.parse(3, const_cast<char**>(argv))) << flags.error();
  EXPECT_TRUE(flags.get_bool("drain"));
  EXPECT_DOUBLE_EQ(flags.get_double("rate"), 9.0);
}

TEST(Cli, RepeatedFlagLastOneWins) {
  CliFlags flags;
  flags.add_int("seed", 1, "");
  const char* argv[] = {"prog", "--seed=2", "--seed", "3"};
  ASSERT_TRUE(flags.parse(4, const_cast<char**>(argv)));
  EXPECT_EQ(flags.get_int("seed"), 3);
}

TEST(Cli, BadBoolValueIsError) {
  CliFlags flags;
  flags.add_bool("drain", false, "");
  const char* argv[] = {"prog", "--drain=yes"};
  EXPECT_FALSE(flags.parse(2, const_cast<char**>(argv)));
  EXPECT_NE(flags.error().find("bad value"), std::string::npos);
}

TEST(Cli, DefaultsSurviveNoArgs) {
  CliFlags flags;
  flags.add_double("x", 3.5, "");
  flags.add_string("name", "abc", "");
  const char* argv[] = {"prog"};
  ASSERT_TRUE(flags.parse(1, const_cast<char**>(argv)));
  EXPECT_DOUBLE_EQ(flags.get_double("x"), 3.5);
  EXPECT_EQ(flags.get_string("name"), "abc");
}

TEST(Cli, UnknownFlagIsError) {
  CliFlags flags;
  flags.add_double("x", 0.0, "");
  const char* argv[] = {"prog", "--y=1"};
  EXPECT_FALSE(flags.parse(2, const_cast<char**>(argv)));
  EXPECT_NE(flags.error().find("unknown"), std::string::npos);
}

TEST(Cli, MissingValueIsError) {
  CliFlags flags;
  flags.add_double("x", 0.0, "");
  const char* argv[] = {"prog", "--x"};
  EXPECT_FALSE(flags.parse(2, const_cast<char**>(argv)));
}

TEST(Cli, MalformedNumberIsError) {
  CliFlags flags;
  flags.add_double("x", 0.0, "");
  const char* argv[] = {"prog", "--x=abc"};
  EXPECT_FALSE(flags.parse(2, const_cast<char**>(argv)));
}

TEST(Cli, DoubleListParses) {
  CliFlags flags;
  flags.add_double_list("lambda", {1.0}, "");
  const char* argv[] = {"prog", "--lambda=4,5,6.5"};
  ASSERT_TRUE(flags.parse(2, const_cast<char**>(argv)));
  EXPECT_EQ(flags.get_double_list("lambda"),
            (std::vector<double>{4.0, 5.0, 6.5}));
}

TEST(Cli, HelpReturnsFalse) {
  CliFlags flags;
  flags.add_double("x", 0.0, "the x flag");
  const char* argv[] = {"prog", "--help"};
  EXPECT_FALSE(flags.parse(2, const_cast<char**>(argv)));
  EXPECT_TRUE(flags.error().empty());
}

TEST(Cli, UsageMentionsFlagsAndHelp) {
  CliFlags flags;
  flags.add_double("rate", 1.0, "arrival rate");
  auto usage = flags.usage("prog");
  EXPECT_NE(usage.find("--rate"), std::string::npos);
  EXPECT_NE(usage.find("arrival rate"), std::string::npos);
}

TEST(Cli, WrongTypeAccessThrows) {
  CliFlags flags;
  flags.add_double("x", 0.0, "");
  EXPECT_THROW(flags.get_int("x"), std::logic_error);
  EXPECT_THROW(flags.get_double("nope"), std::logic_error);
}

TEST(Cli, RequirePositiveRejectsZeroNegativeAndNonFinite) {
  CliFlags flags;
  flags.add_double("accel", 1.0, "");
  flags.add_int("max-in-flight", 1024, "");

  const char* bad_zero[] = {"prog", "--accel=0"};
  ASSERT_TRUE(flags.parse(2, const_cast<char**>(bad_zero)));
  EXPECT_FALSE(flags.require_positive("accel"));
  EXPECT_NE(flags.error().find("--accel"), std::string::npos);

  const char* bad_neg[] = {"prog", "--max-in-flight=-3"};
  ASSERT_TRUE(flags.parse(2, const_cast<char**>(bad_neg)));
  EXPECT_FALSE(flags.require_positive("max-in-flight"));
  EXPECT_NE(flags.error().find("--max-in-flight"), std::string::npos);

  const char* bad_inf[] = {"prog", "--accel=inf"};
  ASSERT_TRUE(flags.parse(2, const_cast<char**>(bad_inf)));
  EXPECT_FALSE(flags.require_positive("accel"));

  const char* good[] = {"prog", "--accel=2.5", "--max-in-flight=1"};
  ASSERT_TRUE(flags.parse(3, const_cast<char**>(good)));
  EXPECT_TRUE(flags.require_positive("accel"));
  EXPECT_TRUE(flags.require_positive("max-in-flight"));
}

TEST(Cli, RequireAtLeastValidatesIntLowerBound) {
  CliFlags flags;
  flags.add_int("trace-ring", 4096, "");
  const char* neg[] = {"prog", "--trace-ring=-1"};
  ASSERT_TRUE(flags.parse(2, const_cast<char**>(neg)));
  EXPECT_FALSE(flags.require_at_least("trace-ring", 0));
  EXPECT_NE(flags.error().find("--trace-ring"), std::string::npos);

  const char* zero[] = {"prog", "--trace-ring=0"};
  ASSERT_TRUE(flags.parse(2, const_cast<char**>(zero)));
  EXPECT_TRUE(flags.require_at_least("trace-ring", 0));
}

TEST(Cli, RequireHelpersRejectUnregisteredOrNonNumeric) {
  CliFlags flags;
  flags.add_string("name", "x", "");
  EXPECT_THROW(flags.require_positive("nope"), std::logic_error);
  EXPECT_THROW(flags.require_positive("name"), std::logic_error);
  EXPECT_THROW(flags.require_at_least("name", 0), std::logic_error);
}

TEST(ParseDoubleList, HandlesEmptyAndMalformed) {
  EXPECT_TRUE(parse_double_list("").empty());
  EXPECT_EQ(parse_double_list("1,2"), (std::vector<double>{1, 2}));
  EXPECT_THROW(parse_double_list("1,x"), std::invalid_argument);
}

// ---------------------------------------------------------------- CSV

class CsvRoundtrip : public ::testing::Test {
 protected:
  std::string path_ = sjs::testutil::unique_temp_path("sjs_csv_test", ".csv");
  void TearDown() override { std::filesystem::remove(path_); }
};

TEST_F(CsvRoundtrip, SimpleRows) {
  {
    CsvWriter w(path_);
    w.write_row({"a", "b"});
    w.write_row({"1", "2"});
  }
  auto rows = read_csv(path_);
  ASSERT_EQ(rows.size(), 2u);
  EXPECT_EQ(rows[0], (std::vector<std::string>{"a", "b"}));
  EXPECT_EQ(rows[1], (std::vector<std::string>{"1", "2"}));
}

TEST_F(CsvRoundtrip, EscapedFields) {
  {
    CsvWriter w(path_);
    w.write_row({"with,comma", "with\"quote", "plain"});
  }
  auto rows = read_csv(path_);
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_EQ(rows[0][0], "with,comma");
  EXPECT_EQ(rows[0][1], "with\"quote");
  EXPECT_EQ(rows[0][2], "plain");
}

TEST_F(CsvRoundtrip, QuotedNewlinesSurviveRoundTrip) {
  // Regression: csv_escape quotes fields containing '\n', but read_csv used
  // to parse line-at-a-time, splitting such a field into two rows and
  // carrying the broken quote state into the next line (the row after the
  // newline came back with its commas swallowed into one field).
  {
    CsvWriter w(path_);
    w.write_row({"a\nb", "x"});
    w.write_row({"multi\nline\nnote", "with,comma", "with\"quote"});
    w.write_row({"plain", "tail"});
  }
  auto rows = read_csv(path_);
  ASSERT_EQ(rows.size(), 3u);
  EXPECT_EQ(rows[0], (std::vector<std::string>{"a\nb", "x"}));
  EXPECT_EQ(rows[1], (std::vector<std::string>{"multi\nline\nnote",
                                               "with,comma", "with\"quote"}));
  EXPECT_EQ(rows[2], (std::vector<std::string>{"plain", "tail"}));
}

TEST_F(CsvRoundtrip, CrlfTerminatorsAndMissingFinalNewline) {
  {
    std::ofstream out(path_, std::ios::binary);
    out << "a,b\r\n"      // CRLF-terminated row
        << "\"q\r\",c\r\n"  // CR *inside* quotes is field content
        << "last,row";    // no trailing newline at all
  }
  auto rows = read_csv(path_);
  ASSERT_EQ(rows.size(), 3u);
  EXPECT_EQ(rows[0], (std::vector<std::string>{"a", "b"}));
  EXPECT_EQ(rows[1], (std::vector<std::string>{"q\r", "c"}));
  EXPECT_EQ(rows[2], (std::vector<std::string>{"last", "row"}));
}

TEST_F(CsvRoundtrip, NumericRoundTrip) {
  {
    CsvWriter w(path_);
    w.write_row_numeric({0.1, 1e-17, 12345.6789});
  }
  auto rows = read_csv(path_);
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_DOUBLE_EQ(std::stod(rows[0][0]), 0.1);
  EXPECT_DOUBLE_EQ(std::stod(rows[0][1]), 1e-17);
  EXPECT_DOUBLE_EQ(std::stod(rows[0][2]), 12345.6789);
}

/// The printf conversion format_double and write_row_numeric must reproduce
/// byte for byte (journals and outcome tables are diffed against replays).
std::string printf_g17(double v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

TEST_F(CsvRoundtrip, FormatMatchesPrintfG17) {
  std::vector<double> values = {
      0.0, -0.0, 1.0, -1.0, 0.1, 1.0 / 3.0, 123456.789, 1e-17,
      std::numeric_limits<double>::min(),
      std::numeric_limits<double>::denorm_min(),
      -std::numeric_limits<double>::denorm_min(),
      std::numeric_limits<double>::max(),
      std::numeric_limits<double>::lowest(),
      std::numeric_limits<double>::epsilon(),
      std::numeric_limits<double>::infinity(),
      -std::numeric_limits<double>::infinity(),
      // %.17g switches to exponent form at 1e17 and below 1e-4.
      1e16, 1e17, 1e16 - 1.0, 1e17 - 8.0, 99999999999999984.0,
      1e-4, 1e-5, 0.000099999999999999991, 1e9 + 4e-6, 1e21, 1e22, 5e-324};
  Rng rng(20260501);
  for (int i = 0; i < 200000; ++i) {
    const std::uint64_t bits = rng();
    double v;
    std::memcpy(&v, &bits, sizeof(v));
    if (std::isnan(v)) continue;  // NaN sign/payload text is not a contract
    values.push_back(v);
    values.push_back(rng.uniform(-1e6, 1e6));
  }
  for (const double v : values) {
    ASSERT_EQ(format_double(v), printf_g17(v)) << "bits of " << v;
  }

  const std::size_t row = 1000;  // one numeric row, checked against printf
  {
    CsvWriter w(path_);
    w.write_row_numeric(values.data(), row);
  }
  std::string expected;
  for (std::size_t i = 0; i < row; ++i) {
    if (i) expected += ',';
    expected += printf_g17(values[i]);
  }
  expected += '\n';
  std::ifstream in(path_, std::ios::binary);
  const std::string written((std::istreambuf_iterator<char>(in)),
                            std::istreambuf_iterator<char>());
  EXPECT_EQ(written, expected);
}

TEST(Csv, EscapePassthroughForPlainFields) {
  EXPECT_EQ(csv_escape("hello"), "hello");
  EXPECT_EQ(csv_escape("a,b"), "\"a,b\"");
  EXPECT_EQ(csv_escape("a\"b"), "\"a\"\"b\"");
}

TEST(Csv, ReadMissingFileThrows) {
  EXPECT_THROW(read_csv("/nonexistent/definitely/missing.csv"),
               std::runtime_error);
}

TEST(Csv, WriteToBadPathThrows) {
  EXPECT_THROW(CsvWriter("/nonexistent/dir/file.csv"), std::runtime_error);
}

// ---------------------------------------------------------------- ASCII chart

TEST(AsciiChart, ContainsMarkersAndLegend) {
  AsciiSeries s;
  s.name = "series-one";
  s.marker = '@';
  for (int i = 0; i < 20; ++i) {
    s.x.push_back(i);
    s.y.push_back(i * i);
  }
  AsciiChartOptions opt;
  opt.title = "squares";
  auto chart = render_ascii_chart({s}, opt);
  EXPECT_NE(chart.find('@'), std::string::npos);
  EXPECT_NE(chart.find("series-one"), std::string::npos);
  EXPECT_NE(chart.find("squares"), std::string::npos);
}

TEST(AsciiChart, EmptySeriesSafe) {
  auto chart = render_ascii_chart({}, {});
  EXPECT_NE(chart.find("no data"), std::string::npos);
}

TEST(AsciiChart, SparklineLengthMatches) {
  auto spark = render_sparkline({1, 2, 3, 2, 1});
  EXPECT_FALSE(spark.empty());
  EXPECT_TRUE(render_sparkline({}).empty());
}

// ---------------------------------------------------------------- gnuplot

class GnuplotTest : public ::testing::Test {
 protected:
  std::string path_ = sjs::testutil::unique_temp_path("sjs_gnuplot_test", ".gp");
  void TearDown() override { std::filesystem::remove(path_); }

  std::string read_all() {
    std::ifstream in(path_);
    return {std::istreambuf_iterator<char>(in),
            std::istreambuf_iterator<char>()};
  }
};

TEST_F(GnuplotTest, EmitsSeriesAndLabels) {
  GnuplotFigure figure;
  figure.title = "my title";
  figure.x_label = "time";
  figure.y_label = "value";
  figure.series = {{"data.csv", 1, 2, "V-Dover"},
                   {"data.csv", 1, 3, "Dover"}};
  write_gnuplot_script(figure, path_);
  auto script = read_all();
  EXPECT_NE(script.find("set title \"my title\""), std::string::npos);
  EXPECT_NE(script.find("using 1:2"), std::string::npos);
  EXPECT_NE(script.find("using 1:3"), std::string::npos);
  EXPECT_NE(script.find("title \"V-Dover\""), std::string::npos);
  EXPECT_EQ(script.find("set output"), std::string::npos);  // interactive
}

TEST_F(GnuplotTest, PngOutputAndEscaping) {
  GnuplotFigure figure;
  figure.title = "quote \" here";
  figure.output_png = "out.png";
  figure.series = {{"d.csv", 1, 2, "s"}};
  write_gnuplot_script(figure, path_);
  auto script = read_all();
  EXPECT_NE(script.find("set output \"out.png\""), std::string::npos);
  EXPECT_NE(script.find("quote \\\" here"), std::string::npos);
}

TEST(Gnuplot, BadPathThrows) {
  GnuplotFigure figure;
  EXPECT_THROW(write_gnuplot_script(figure, "/nonexistent/dir/x.gp"),
               std::runtime_error);
}

// ---------------------------------------------------------------- Logging

TEST(Logging, CheckThrowsWithMessage) {
  try {
    SJS_CHECK_MSG(1 == 2, "custom detail " << 42);
    FAIL() << "expected CheckError";
  } catch (const CheckError& e) {
    EXPECT_NE(std::string(e.what()).find("custom detail 42"),
              std::string::npos);
  }
}

TEST(Logging, CheckPassesSilently) {
  SJS_CHECK(1 + 1 == 2);  // must not throw
}

TEST(Logging, LevelGating) {
  set_log_level(LogLevel::kError);
  EXPECT_EQ(log_level(), LogLevel::kError);
  set_log_level(LogLevel::kWarn);
  EXPECT_EQ(log_level(), LogLevel::kWarn);
}

TEST(RingWiden, MovesExactlyTheHeldPositionsOfAPartlyFilledRing) {
  // Every ring of up to 32 slots, every base over four wraps, every held
  // count up to the ring: after the widening each held position reads at
  // its slot under the wider mask, the lower half is untouched, and no
  // upper slot that no held position maps to is written. The lower half's
  // free slots hold stale values (-2 - slot), so copying one shows.
  constexpr std::int64_t kEmpty = -1;
  for (std::size_t old = 1; old <= 32; old *= 2) {
    for (std::uint64_t base = 0; base < 4 * old; ++base) {
      for (std::size_t count = 0; count <= old; ++count) {
        std::vector<std::int64_t> ring(2 * old, kEmpty);
        for (std::size_t s = 0; s < old; ++s) {
          ring[s] = -2 - static_cast<std::int64_t>(s);
        }
        for (std::uint64_t p = base; p < base + count; ++p) {
          ring[p & (old - 1)] = static_cast<std::int64_t>(p);
        }
        const std::vector<std::int64_t> lower(ring.begin(),
                                              ring.begin() + old);
        util::ring_widen(ring.data(), old, base, count);
        std::vector<bool> mapped(2 * old, false);
        for (std::uint64_t p = base; p < base + count; ++p) {
          const std::size_t slot = p & (2 * old - 1);
          mapped[slot] = true;
          ASSERT_EQ(ring[slot], static_cast<std::int64_t>(p))
              << "old " << old << ", base " << base << ", count " << count;
        }
        for (std::size_t s = 0; s < old; ++s) ASSERT_EQ(ring[s], lower[s]);
        for (std::size_t s = old; s < 2 * old; ++s) {
          if (!mapped[s]) {
            ASSERT_EQ(ring[s], kEmpty) << "old " << old << ", base " << base
                                       << ", count " << count << ", slot "
                                       << s;
          }
        }
      }
    }
  }
}

}  // namespace
}  // namespace sjs
