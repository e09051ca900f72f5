#include "cluster/cluster_server.hpp"

#include "cluster/cluster_metrics.hpp"
#include "serve/session_impl.hpp"

namespace sjs::cluster {

namespace {

/// A live fleet session starts with no jobs: every one is admitted with
/// MultiEngine::admit_live(job) into the engine's own window.
const std::vector<Job> kNoJobs;

}  // namespace

FleetBackend::FleetBackend(const ClusterServerConfig& config)
    : config_(config),
      dispatcher_(config_.fleet,
                  DispatcherConfig{config_.key, config_.budget,
                                   config_.min_rented},
                  make_rental_controller(config_.rental)),
      engine_(kNoJobs, config_.fleet.constant_paths(), dispatcher_) {}

std::unique_ptr<ClusterJournal> FleetBackend::open_journal() const {
  if (config_.journal_dir.empty()) return nullptr;
  ClusterJournal::Meta meta;
  meta.scheduler = dispatcher_.name();
  meta.key =
      config_.key == cloud::GlobalKey::kDeadline ? "deadline" : "density";
  meta.rental = config_.rental.empty() ? "static" : config_.rental;
  meta.budget = config_.budget;
  meta.min_rented = config_.min_rented;
  meta.accel = config_.accel;
  meta.admission_check = config_.admission_check;
  return std::make_unique<ClusterJournal>(config_.journal_dir, config_.fleet,
                                          config_.fleet.constant_paths(),
                                          meta);
}

cloud::MultiSimResult FleetBackend::finish() {
  cloud::MultiSimResult result = engine_.finish_live();
  dispatcher_.settle(engine_.now());
  dispatcher_.apply_accounting(&result);
  return result;
}

void FleetBackend::publish(const cloud::MultiSimResult& result,
                           obs::MetricsRegistry::Shard& shard) const {
  publish_cluster_metrics(result, engine_.now(), shard);
}

}  // namespace sjs::cluster

namespace sjs::serve {
template class Session<cluster::FleetBackend>;
}  // namespace sjs::serve
