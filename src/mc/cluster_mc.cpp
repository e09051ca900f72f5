#include "mc/cluster_mc.hpp"

#include "cluster/cluster_metrics.hpp"
#include "obs/digest.hpp"
#include "util/logging.hpp"
#include "util/thread_pool.hpp"

namespace sjs::mc {

ClusterAggregate run_cluster_mc(const ClusterMcConfig& config) {
  SJS_CHECK(config.runs > 0);
  SJS_CHECK(config.fleet.size() > 0);

  ClusterAggregate agg;
  agg.scenario = cap::scenario_name(config.scenario.kind);
  agg.value_fractions.resize(config.runs);
  agg.mean_util_per_server.assign(config.fleet.size(), 0.0);
  if (config.compute_digests) agg.run_digests.resize(config.runs);

  // One task per run, writing only run-indexed slots: results are identical
  // for any thread count (the cluster digest gate asserts exactly this).
  std::vector<cloud::MultiSimResult> results(config.runs);
  parallel_for(config.threads, config.runs, [&](std::size_t run) {
    Rng rng(config.seed, run);
    // Fixed draw order: job stream first, then fleet paths.
    std::vector<Job> jobs = gen::generate_jobs(config.jobs, rng);
    for (std::size_t i = 0; i < jobs.size(); ++i) {
      jobs[i].id = static_cast<JobId>(i);
    }
    std::vector<cap::CapacityProfile> paths =
        config.fleet.sample_paths(config.scenario, config.jobs.horizon, rng);

    cluster::DispatcherConfig dc;
    dc.key = config.key;
    dc.budget = config.budget;
    dc.min_rented = config.min_rented;
    cluster::Dispatcher dispatcher(
        config.fleet, dc, cluster::make_rental_controller(config.rental));

    obs::DigestSink digest;
    results[run] = cluster::run_cluster(
        jobs, std::move(paths), dispatcher,
        config.compute_digests ? &digest : nullptr);
    if (config.compute_digests) agg.run_digests[run] = digest.digest();
    if (config.metrics) {
      cluster::publish_cluster_metrics(results[run], config.jobs.horizon,
                                       config.metrics->local());
    }
  });

  // Every run's result carries its dispatcher's name, 0 jobs included.
  agg.scheduler_name = results[0].scheduler_name;
  double completed = 0.0, expired = 0.0, dispatches = 0.0, preemptions = 0.0;
  double migrations = 0.0, rents = 0.0, releases = 0.0, peak = 0.0;
  double cost = 0.0, rented_time = 0.0;
  for (std::size_t run = 0; run < config.runs; ++run) {
    const cloud::MultiSimResult& r = results[run];
    agg.value_fractions[run] = r.value_fraction();
    completed += static_cast<double>(r.completed_count);
    expired += static_cast<double>(r.expired_count);
    dispatches += static_cast<double>(r.dispatches);
    preemptions += static_cast<double>(r.preemptions);
    migrations += static_cast<double>(r.migrations);
    rents += static_cast<double>(r.rent_events);
    releases += static_cast<double>(r.release_events);
    peak += static_cast<double>(r.rented_peak);
    cost += r.rental_cost;
    rented_time += r.rented_machine_time;
    for (std::size_t s = 0; s < r.busy_time_per_server.size() &&
                            s < agg.mean_util_per_server.size();
         ++s) {
      agg.mean_util_per_server[s] +=
          r.busy_time_per_server[s] / config.jobs.horizon;
    }
  }
  const double n = static_cast<double>(config.runs);
  agg.mean_completed = completed / n;
  agg.mean_expired = expired / n;
  agg.mean_dispatches = dispatches / n;
  agg.mean_preemptions = preemptions / n;
  agg.mean_migrations = migrations / n;
  agg.mean_rent_events = rents / n;
  agg.mean_release_events = releases / n;
  agg.mean_rented_peak = peak / n;
  agg.mean_cost = cost / n;
  agg.mean_rented_machine_time = rented_time / n;
  for (double& u : agg.mean_util_per_server) u /= n;
  agg.fraction_summary = summarize(agg.value_fractions);
  if (config.compute_digests) {
    agg.combined_digest = obs::combine_digests(agg.run_digests);
  }
  return agg;
}

}  // namespace sjs::mc
