// ClusterServer — the fleet-backed real-time admission service
// (docs/cluster.md), the K-machine analogue of serve::AdmissionServer.
//
// Same serving stack — serve::InlineServer: EventLoop + length-prefixed
// protocol + serve::Session (ClockBridge, AdmissionGate, routes, journal
// policy) — over FleetBackend: a live cloud::MultiEngine over the fleet's
// constant serving paths, scheduled by a cluster::Dispatcher (elastic
// rental + top-R placement). The admission floor is the fleet's
// admission_c_lo(): a job needs only one machine, so it is rejected at the
// door only if even the strongest guaranteed floor cannot fit it (Thm. 3(3)
// applied per machine).
//
// Every admitted job is journalled to a ClusterJournal; the session replays
// bit-exactly through `sjs_sim --cluster-bundle=<dir>` because admission
// stamps are strictly increasing, MultiEngine::advance_to subdivides
// execution only at event times, and the Dispatcher's decisions are a pure
// function of the interrupt sequence (cancel-bearing sessions carry the same
// replay caveat as the single-server plane).
//
// Single-threaded by construction, like AdmissionServer: sockets, engine,
// dispatcher, and journal are touched only from the thread calling step().
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "cloud/multi_engine.hpp"
#include "cluster/cluster_journal.hpp"
#include "cluster/dispatcher.hpp"
#include "cluster/fleet.hpp"
#include "obs/metrics.hpp"
#include "serve/clock.hpp"
#include "serve/inline_server.hpp"
#include "serve/protocol.hpp"
#include "serve/session.hpp"

namespace sjs::cluster {

struct ClusterServerConfig : serve::SessionConfig {
  Fleet fleet = Fleet::heterogeneous(4);
  cloud::GlobalKey key = cloud::GlobalKey::kDeadline;
  std::string rental = "threshold";  ///< "static" | "threshold" | "load"
  double budget = 0.0;               ///< total rental budget; <= 0 unlimited
  std::size_t min_rented = 1;
};

/// The fleet session backend (serve/session.hpp's seam): a
/// cluster::Dispatcher, a live cloud::MultiEngine over the fleet's constant
/// paths (admitted jobs live in its job window until the session retires
/// them), and a ClusterJournal bundle. finish() settles the rental account;
/// publish() adds the cluster.* series.
class FleetBackend {
 public:
  using Config = ClusterServerConfig;
  using Result = cloud::MultiSimResult;
  using Journal = ClusterJournal;

  explicit FleetBackend(const ClusterServerConfig& config);

  const ClusterServerConfig& config() const { return config_; }
  cloud::MultiEngine& engine() { return engine_; }
  const cloud::MultiEngine& engine() const { return engine_; }
  double admission_c_lo() const { return config_.fleet.admission_c_lo(); }

  std::unique_ptr<Journal> open_journal() const;
  /// finish_live, then settles the rental account at the final instant so
  /// the cost integral covers the tail interval after the last interrupt.
  Result finish();
  /// The cluster.* rental/placement series.
  void publish(const Result& result, obs::MetricsRegistry::Shard& shard) const;

 private:
  ClusterServerConfig config_;
  Dispatcher dispatcher_;
  cloud::MultiEngine engine_;
};

class ClusterServer final : public serve::InlineServer<FleetBackend> {
 public:
  /// The clock is injected (SystemClock for the daemon, FakeClock in tests)
  /// and must outlive the server; `metrics` is optional (server.* and
  /// cluster.* series are published to it).
  ClusterServer(ClusterServerConfig config, serve::Clock& clock,
                obs::MetricsRegistry* metrics = nullptr)
      : InlineServer(config, clock, metrics) {}

  const Fleet& fleet() const { return backend().config().fleet; }
  /// The live engine (its job window: engine().job_state()).
  const cloud::MultiEngine& engine() const { return backend().engine(); }
};

}  // namespace sjs::cluster
