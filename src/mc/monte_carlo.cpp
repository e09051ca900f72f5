#include "mc/monte_carlo.hpp"

#include <optional>

#include "obs/digest.hpp"
#include "sim/engine.hpp"
#include "util/csv.hpp"
#include "util/logging.hpp"
#include "util/thread_pool.hpp"

namespace sjs::mc {

sim::SimResult simulate_one(const gen::PaperSetup& setup, std::uint64_t seed,
                            std::uint64_t run, const sched::NamedFactory& f) {
  Rng rng(seed, run);
  const Instance instance = gen::generate_paper_instance(setup, rng);
  auto scheduler = f.make();
  sim::Engine engine(instance, *scheduler);
  return engine.run_to_completion();
}

void save_runs_csv(const McOutcome& outcome, const std::string& path) {
  CsvWriter writer(path);
  std::vector<std::string> header{"run"};
  for (const auto& agg : outcome.per_scheduler) header.push_back(agg.name);
  writer.write_row(header);
  for (std::size_t run = 0; run < outcome.config.runs; ++run) {
    // The run id is an integer key, not a measurement: emit it as one so
    // downstream tooling joins on "3", not "3.000000".
    std::vector<std::string> row{std::to_string(run)};
    for (const auto& agg : outcome.per_scheduler) {
      row.push_back(format_double(agg.value_fractions[run]));
    }
    writer.write_row(row);
  }
}

McOutcome run_monte_carlo(const McConfig& config,
                          const std::vector<sched::NamedFactory>& factories) {
  SJS_CHECK(config.runs > 0);
  SJS_CHECK(!factories.empty());

  McOutcome outcome;
  outcome.config = config;
  outcome.per_scheduler.resize(factories.size());
  for (std::size_t s = 0; s < factories.size(); ++s) {
    auto& agg = outcome.per_scheduler[s];
    agg.name = factories[s].name;
    agg.value_fractions.resize(config.runs);
    if (config.keep_traces) agg.traces.resize(config.runs);
    if (config.compute_digests) agg.run_digests.resize(config.runs);
  }

  // One task per run: each task regenerates its instance once and plays it
  // through every scheduler (common random numbers across schedulers) on ONE
  // engine, reset between cells — the remaining/outcome tables, event heap,
  // timer slab and the sealed static side of the event queue are built once
  // per run instead of once per cell. Each cell keeps only what is
  // aggregated: its fraction, trace and digest go straight to their
  // run-indexed slots, its counters to a small record. The folds below are
  // therefore independent of which thread simulated which run.
  struct CellCounts {
    std::uint64_t completed = 0;
    std::uint64_t expired = 0;
    std::uint64_t preemptions = 0;
  };
  const std::size_t lineup = factories.size();
  std::vector<CellCounts> counts(config.runs * lineup);
  parallel_for(config.threads, config.runs, [&](std::size_t run) {
    Rng rng(config.seed, run);
    const Instance instance = gen::generate_paper_instance(config.setup, rng);
    std::optional<sim::Engine> engine;
    for (std::size_t s = 0; s < lineup; ++s) {
      auto scheduler = factories[s].make();
      if (engine) {
        engine->reset(*scheduler);
      } else {
        engine.emplace(instance, *scheduler);
      }
      obs::DigestSink digest;
      std::optional<obs::TraceMetricsBridge> bridge;
      obs::TeeSink tee;
      if (config.compute_digests) tee.add(&digest);
      if (config.metrics) {
        bridge.emplace(config.metrics->local());
        tee.add(&*bridge);
      }
      engine->attach_trace(tee.sink_count() > 0 ? &tee : nullptr);
      const sim::SimResult& r = engine->run_to_completion();
      auto& agg = outcome.per_scheduler[s];
      agg.value_fractions[run] = r.value_fraction();
      counts[run * lineup + s] =
          CellCounts{r.completed_count, r.expired_count, r.preemptions};
      if (config.keep_traces) agg.traces[run] = r.value_trace;
      if (config.compute_digests) agg.run_digests[run] = digest.digest();
      if (config.metrics) {
        auto& shard = config.metrics->local();
        shard.set_gauge(obs::kGaugeTimerSlabPeak,
                        static_cast<double>(r.timer_slab_peak));
        shard.set_gauge(obs::kGaugeTimerSlabSlots,
                        static_cast<double>(r.timer_slab_slots));
        shard.set_gauge(obs::kGaugeJobSlabPeak,
                        static_cast<double>(r.job_slab_peak));
        shard.set_gauge(obs::kGaugeJobSlabSlots,
                        static_cast<double>(r.job_slab_slots));
        shard.set_gauge(obs::kGaugeEventHeapPeak,
                        static_cast<double>(r.event_heap_peak));
        shard.set_gauge(obs::kGaugeEventHeapDeadPeak,
                        static_cast<double>(r.event_heap_dead_peak));
        shard.count(obs::kCounterTimersArmed,
                    static_cast<double>(r.timers_armed));
        shard.count(obs::kCounterHeapCompactions,
                    static_cast<double>(r.heap_compactions));
        shard.set_gauge(obs::kGaugeQueuePeak,
                        static_cast<double>(r.queue_peak));
        shard.set_gauge(obs::kGaugeQueueSlots,
                        static_cast<double>(r.queue_slots));
      }
    }
  });

  for (std::size_t s = 0; s < lineup; ++s) {
    auto& agg = outcome.per_scheduler[s];
    double completed = 0.0;
    double expired = 0.0;
    double preemptions = 0.0;
    for (std::size_t run = 0; run < config.runs; ++run) {
      const CellCounts& cell = counts[run * lineup + s];
      completed += static_cast<double>(cell.completed);
      expired += static_cast<double>(cell.expired);
      preemptions += static_cast<double>(cell.preemptions);
    }
    if (config.compute_digests) {
      agg.combined_digest = obs::combine_digests(agg.run_digests);
    }
    const double n = static_cast<double>(config.runs);
    agg.mean_completed = completed / n;
    agg.mean_expired = expired / n;
    agg.mean_preemptions = preemptions / n;
    agg.fraction_summary = summarize(agg.value_fractions);
  }
  return outcome;
}

}  // namespace sjs::mc
