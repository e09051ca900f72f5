// Monte-Carlo driver tests: determinism, common random numbers, thread-count
// independence, aggregation, and Table-I row construction.
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <memory>
#include <string>

#include "mc/monte_carlo.hpp"
#include "mc/table.hpp"
#include "sim/engine.hpp"
#include "util/fp.hpp"
#include "util/logging.hpp"
#include "util/rng.hpp"
#include "temp_path.hpp"

namespace sjs::mc {
namespace {

gen::PaperSetup small_setup(double lambda = 6.0) {
  gen::PaperSetup setup;
  setup.lambda = lambda;
  setup.expected_jobs = 60.0;  // keep unit tests fast
  return setup;
}

TEST(MonteCarlo, DeterministicAcrossInvocations) {
  McConfig config;
  config.setup = small_setup();
  config.runs = 6;
  config.seed = 9;
  config.threads = 2;
  auto factories = sched::paper_lineup({1.0, 35.0});
  auto a = run_monte_carlo(config, factories);
  auto b = run_monte_carlo(config, factories);
  for (std::size_t s = 0; s < factories.size(); ++s) {
    EXPECT_EQ(a.per_scheduler[s].value_fractions,
              b.per_scheduler[s].value_fractions);
  }
}

TEST(MonteCarlo, ThreadCountDoesNotChangeResults) {
  McConfig config;
  config.setup = small_setup();
  config.runs = 6;
  config.seed = 10;
  auto factories = sched::paper_lineup({1.0});
  config.threads = 1;
  auto serial = run_monte_carlo(config, factories);
  config.threads = 4;
  auto parallel = run_monte_carlo(config, factories);
  for (std::size_t s = 0; s < factories.size(); ++s) {
    EXPECT_EQ(serial.per_scheduler[s].value_fractions,
              parallel.per_scheduler[s].value_fractions);
  }
}

TEST(MonteCarlo, ReplayDigestsIdenticalAcrossThreadCounts) {
  // The determinism contract as a checkable value: every run's full engine
  // event stream hashes to the same 64-bit digest whether the campaign ran
  // on one thread or eight — including a single run and fewer runs than
  // threads, where the executor starts fewer workers than asked for.
  auto factories = sched::paper_lineup({1.0, 35.0});
  for (std::size_t runs : {8u, 1u, 3u}) {
    McConfig config;
    config.setup = small_setup();
    config.runs = runs;
    config.seed = 21;
    config.compute_digests = true;
    config.threads = 1;
    auto serial = run_monte_carlo(config, factories);
    config.threads = 8;
    auto parallel = run_monte_carlo(config, factories);
    for (std::size_t s = 0; s < factories.size(); ++s) {
      EXPECT_EQ(serial.per_scheduler[s].value_fractions,
                parallel.per_scheduler[s].value_fractions)
          << runs;
      ASSERT_EQ(serial.per_scheduler[s].run_digests.size(), config.runs);
      EXPECT_EQ(serial.per_scheduler[s].run_digests,
                parallel.per_scheduler[s].run_digests)
          << runs;
      EXPECT_EQ(serial.per_scheduler[s].combined_digest,
                parallel.per_scheduler[s].combined_digest)
          << runs;
      EXPECT_NE(serial.per_scheduler[s].combined_digest, 0u);
    }
    // Different schedulers on the same instances must diverge somewhere.
    EXPECT_NE(serial.per_scheduler[0].combined_digest,
              serial.per_scheduler[1].combined_digest)
        << runs;
  }
}

// Never dispatches anything, and refuses (SJS_CHECK) the one instance whose
// first release is `poison`: a scheduler that fails on one chosen run.
class RefusingScheduler : public sim::Scheduler {
 public:
  explicit RefusingScheduler(double poison) : poison_(poison) {}
  void on_release(sim::Engine& engine, JobId job) override {
    SJS_CHECK_MSG(!fp::exact_eq(engine.job(job).release, poison_),
                  "refusing the poisoned run");
  }
  void on_complete(sim::Engine&, JobId) override {}
  void on_expire(sim::Engine&, JobId, bool) override {}
  std::string name() const override { return "Refusing"; }

 private:
  double poison_;
};

TEST(MonteCarlo, CheckErrorInARunReachesTheCaller) {
  McConfig config;
  config.setup = small_setup();
  config.runs = 8;
  config.seed = 5;
  constexpr std::uint64_t kPoisonedRun = 5;
  Rng rng(config.seed, kPoisonedRun);
  const double poison =
      gen::generate_paper_instance(config.setup, rng).jobs().front().release;
  auto factories = sched::paper_lineup({1.0});
  factories.push_back({"Refusing", [poison] {
                         return std::make_unique<RefusingScheduler>(poison);
                       }});
  for (std::size_t threads : {1u, 4u}) {
    config.threads = threads;
    try {
      run_monte_carlo(config, factories);
      FAIL() << "run " << kPoisonedRun << " should have been refused";
    } catch (const CheckError& e) {
      EXPECT_NE(std::string(e.what()).find("refusing the poisoned run"),
                std::string::npos)
          << e.what();
    }
  }
}

TEST(MonteCarlo, DigestsOffByDefault) {
  McConfig config;
  config.setup = small_setup();
  config.runs = 2;
  auto factories = sched::paper_lineup({1.0});
  auto outcome = run_monte_carlo(config, factories);
  EXPECT_TRUE(outcome.per_scheduler[0].run_digests.empty());
  EXPECT_EQ(outcome.per_scheduler[0].combined_digest, 0u);
}

TEST(MonteCarlo, MetricsRegistryCollectsAcrossRuns) {
  McConfig config;
  config.setup = small_setup();
  config.runs = 4;
  config.threads = 2;
  obs::MetricsRegistry registry;
  config.metrics = &registry;
  auto factories = sched::paper_lineup({1.0});
  auto outcome = run_monte_carlo(config, factories);
  auto snap = registry.snapshot();
  // Every run emits exactly one run_start/run_end pair per scheduler.
  EXPECT_EQ(snap.counters.at("trace.run_start"),
            static_cast<double>(config.runs * factories.size()));
  EXPECT_EQ(snap.counters.at("trace.run_end"),
            static_cast<double>(config.runs * factories.size()));
  // Completions feed the response-time distribution.
  ASSERT_TRUE(snap.distributions.count("job.response_time"));
  EXPECT_GT(snap.distributions.at("job.response_time").count(), 0u);
  // Engine occupancy gauges/counters ride along with every metrics-enabled
  // campaign (gauges merge by max across shards: the worst run).
  ASSERT_TRUE(snap.gauges.count(obs::kGaugeTimerSlabPeak));
  ASSERT_TRUE(snap.gauges.count(obs::kGaugeEventHeapPeak));
  EXPECT_GT(snap.gauges.at(obs::kGaugeEventHeapPeak), 0.0);
  ASSERT_TRUE(snap.counters.count(obs::kCounterTimersArmed));
  EXPECT_GT(snap.counters.at(obs::kCounterTimersArmed), 0.0);
  (void)outcome;
}

TEST(MonteCarlo, SeedChangesResults) {
  McConfig config;
  config.setup = small_setup();
  config.runs = 4;
  auto factories = sched::paper_lineup({1.0});
  config.seed = 1;
  auto a = run_monte_carlo(config, factories);
  config.seed = 2;
  auto b = run_monte_carlo(config, factories);
  EXPECT_NE(a.per_scheduler[0].value_fractions,
            b.per_scheduler[0].value_fractions);
}

TEST(MonteCarlo, SimulateOneMatchesDriver) {
  McConfig config;
  config.setup = small_setup();
  config.runs = 3;
  config.seed = 11;
  config.threads = 1;
  auto factories = sched::paper_lineup({1.0});
  auto outcome = run_monte_carlo(config, factories);
  for (std::uint64_t run = 0; run < config.runs; ++run) {
    auto result = simulate_one(config.setup, config.seed, run, factories[0]);
    EXPECT_DOUBLE_EQ(result.value_fraction(),
                     outcome.per_scheduler[0].value_fractions[run])
        << "run " << run;
  }
}

TEST(MonteCarlo, FractionsAreValidAndSummarised) {
  McConfig config;
  config.setup = small_setup();
  config.runs = 8;
  auto factories = sched::extended_lineup({1.0, 35.0});
  auto outcome = run_monte_carlo(config, factories);
  for (const auto& agg : outcome.per_scheduler) {
    EXPECT_EQ(agg.value_fractions.size(), config.runs);
    for (double f : agg.value_fractions) {
      EXPECT_GE(f, 0.0);
      EXPECT_LE(f, 1.0);
    }
    EXPECT_EQ(agg.fraction_summary.count, config.runs);
    EXPECT_GE(agg.fraction_summary.mean, 0.0);
    EXPECT_LE(agg.fraction_summary.mean, 1.0);
    EXPECT_GT(agg.mean_completed + agg.mean_expired, 0.0);
  }
}

TEST(MonteCarlo, TracesKeptOnlyWhenRequested) {
  McConfig config;
  config.setup = small_setup();
  config.runs = 2;
  auto factories = sched::paper_lineup({1.0});
  auto without = run_monte_carlo(config, factories);
  EXPECT_TRUE(without.per_scheduler[0].traces.empty());
  config.keep_traces = true;
  auto with = run_monte_carlo(config, factories);
  ASSERT_EQ(with.per_scheduler[0].traces.size(), 2u);
  EXPECT_FALSE(with.per_scheduler.back().traces[0].empty());
}

TEST(MonteCarlo, RejectsEmptyConfig) {
  McConfig config;
  config.runs = 0;
  EXPECT_THROW(run_monte_carlo(config, sched::paper_lineup({1.0})),
               CheckError);
  config.runs = 1;
  EXPECT_THROW(run_monte_carlo(config, {}), CheckError);
}

TEST(MonteCarlo, RunsCsvDumpsEverySample) {
  McConfig config;
  config.setup = small_setup();
  config.runs = 5;
  auto factories = sched::paper_lineup({1.0, 35.0});
  auto outcome = run_monte_carlo(config, factories);
  const auto path = sjs::testutil::unique_temp_path("sjs_runs_test", ".csv");
  save_runs_csv(outcome, path);
  std::ifstream in(path);
  std::string line;
  std::vector<std::string> lines;
  while (std::getline(in, line)) lines.push_back(line);
  ASSERT_EQ(lines.size(), 6u);  // header + 5 runs
  EXPECT_NE(lines[0].find("V-Dover"), std::string::npos);
  // Run ids are integer join keys, not measurements: "3", never "3.000000".
  for (std::size_t run = 1; run < lines.size(); ++run) {
    const std::string id = lines[run].substr(0, lines[run].find(','));
    EXPECT_EQ(id, std::to_string(run - 1));
  }
  // Spot-check one cell round-trips.
  auto fields = lines[1];
  EXPECT_NE(fields.find(','), std::string::npos);
  std::filesystem::remove(path);
}

// ---------------------------------------------------------------- table

McOutcome tiny_outcome() {
  McConfig config;
  config.setup = small_setup();
  config.runs = 4;
  return run_monte_carlo(config, sched::paper_lineup({1.0, 35.0}));
}

TEST(Table, RowMarksBestDoverAndComputesGain) {
  auto outcome = tiny_outcome();
  auto row = make_row(6.0, outcome, /*vdover_index=*/2);
  EXPECT_EQ(row.percent.size(), 3u);
  ASSERT_GE(row.best_dover_index, 0);
  EXPECT_LT(row.best_dover_index, 2);  // V-Dover is not a Dover column
  EXPECT_DOUBLE_EQ(
      row.best_dover_percent,
      std::max(row.percent[0], row.percent[1]));
  EXPECT_NEAR(row.gain_percent,
              100.0 * (row.vdover_percent / row.best_dover_percent - 1.0),
              1e-9);
}

TEST(Table, RenderContainsColumnsAndGain) {
  auto outcome = tiny_outcome();
  Table table;
  for (const auto& agg : outcome.per_scheduler) {
    table.scheduler_names.push_back(agg.name);
  }
  table.vdover_index = 2;
  table.rows.push_back(make_row(6.0, outcome, 2));
  auto text = table.render();
  EXPECT_NE(text.find("lambda"), std::string::npos);
  EXPECT_NE(text.find("V-Dover"), std::string::npos);
  EXPECT_NE(text.find("gain"), std::string::npos);
  EXPECT_NE(text.find('*'), std::string::npos);
}

TEST(Table, CsvRoundTripsRowCount) {
  auto outcome = tiny_outcome();
  Table table;
  for (const auto& agg : outcome.per_scheduler) {
    table.scheduler_names.push_back(agg.name);
  }
  table.vdover_index = 2;
  table.rows.push_back(make_row(4.0, outcome, 2));
  table.rows.push_back(make_row(6.0, outcome, 2));
  const auto path = sjs::testutil::unique_temp_path("sjs_table_test", ".csv");
  table.save_csv(path);
  // header + 2 rows
  std::ifstream in(path);
  std::string line;
  int lines = 0;
  while (std::getline(in, line)) ++lines;
  EXPECT_EQ(lines, 3);
  std::filesystem::remove(path);
}

TEST(Table, RowRejectsBadVdoverIndex) {
  auto outcome = tiny_outcome();
  EXPECT_THROW(make_row(6.0, outcome, 99), CheckError);
}

}  // namespace
}  // namespace sjs::mc
