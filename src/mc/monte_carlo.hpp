// Monte-Carlo driver for the paper's Sec. IV experiments.
//
// Determinism contract: run r of master seed S always simulates the same
// instance (derived via Rng(S, r)), for every scheduler — algorithms are
// compared on *identical* sample paths (common random numbers, which is also
// what the paper's Fig. 1 does), and results are independent of thread count
// and scheduling because each run writes only its own result slot.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "jobs/workload_gen.hpp"
#include "obs/metrics.hpp"
#include "sched/factory.hpp"
#include "sim/result.hpp"
#include "stats/summary.hpp"
#include "stats/timeseries.hpp"

namespace sjs::mc {

struct McConfig {
  gen::PaperSetup setup;
  std::size_t runs = 100;      ///< paper Table I uses 800
  std::uint64_t seed = 42;
  std::size_t threads = 0;     ///< 0 = hardware concurrency
  bool keep_traces = false;    ///< retain per-run value-vs-time traces (Fig. 1)
  /// Fold every run's engine event stream into a 64-bit replay digest
  /// (obs::DigestSink). Digests land in run-indexed slots, so the combined
  /// digest is thread-count-independent — the determinism contract as a
  /// checkable value.
  bool compute_digests = false;
  /// Optional metrics sink: each worker feeds its thread-local shard via
  /// obs::TraceMetricsBridge. Not owned; must outlive the call. Snapshot it
  /// only after run_monte_carlo returns.
  obs::MetricsRegistry* metrics = nullptr;
};

struct SchedulerAggregate {
  std::string name;
  /// Per-run captured fraction of generated value (the Table-I metric).
  std::vector<double> value_fractions;
  Summary fraction_summary;
  /// Per-run cumulative value traces (only when keep_traces).
  std::vector<StepFunction> traces;
  /// Per-run replay digests (only when compute_digests).
  std::vector<std::uint64_t> run_digests;
  /// Order-sensitive fold of run_digests (0 when digests are off).
  std::uint64_t combined_digest = 0;
  /// Means over runs of auxiliary counters.
  double mean_completed = 0.0;
  double mean_expired = 0.0;
  double mean_preemptions = 0.0;
};

struct McOutcome {
  McConfig config;
  std::vector<SchedulerAggregate> per_scheduler;  ///< same order as factories
};

/// Runs `config.runs` seeded instances through every factory.
McOutcome run_monte_carlo(const McConfig& config,
                          const std::vector<sched::NamedFactory>& factories);

/// Simulates one (setup, seed, run) instance with one scheduler — the unit
/// the driver parallelises; exposed for tests and the Fig.-1 bench.
sim::SimResult simulate_one(const gen::PaperSetup& setup, std::uint64_t seed,
                            std::uint64_t run, const sched::NamedFactory& f);

/// Dumps the per-run captured fractions as CSV (one row per run, one column
/// per scheduler) — the raw sample behind every Table-I cell, for external
/// statistical analysis.
void save_runs_csv(const McOutcome& outcome, const std::string& path);

}  // namespace sjs::mc
