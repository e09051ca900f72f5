// AdmissionServer — the real-time job-admission service (docs/serving.md).
//
// Glues the serving stack together: an EventLoop accepts loopback
// connections speaking the length-prefixed protocol; a ClockBridge maps the
// injected Clock onto virtual simulation time; the live-mode sim::Engine +
// a sched::Scheduler decide what runs; a Journal records every admitted job
// so the session replays bit-exactly through `sjs_sim --bundle=<journal>`.
// It is serve::InlineServer over LocalBackend: the session logic is
// serve::Session (serve/session.hpp), the connection side serve::FrontEnd.
//
// Admission path for SUBMIT(p, d_rel, v):
//   draining              → REJECTED(draining)
//   in_flight >= limit    → SHED                 (backpressure)
//   invalid p/d_rel/v     → REJECTED(invalid)
//   d − r < p / c_lo      → REJECTED(inadmissible)   [Thm. 3(3): such a job
//                           can be dropped without hurting any algorithm's
//                           competitive ratio, so it never enters the system]
//   otherwise             → release stamped, Engine::admit_live (the job
//                           joins the engine's job window), journalled,
//                           ACCEPTED
//
// Admission stamps are strictly increasing (max(virtual_now,
// nextafter(prev))), which together with Engine::advance_to's strict bound
// is what makes the journal replay exact — see engine.hpp's live-mode notes.
#pragma once

#include <memory>
#include <string>

#include "jobs/instance.hpp"
#include "obs/metrics.hpp"
#include "serve/clock.hpp"
#include "serve/inline_server.hpp"
#include "serve/journal.hpp"
#include "serve/protocol.hpp"
#include "serve/session.hpp"
#include "sim/engine.hpp"
#include "sim/result.hpp"
#include "sim/scheduler.hpp"

namespace sjs::serve {

struct ServerConfig : SessionConfig {
  std::string scheduler_name = "V-Dover";
  cap::CapacityProfile capacity{1.0};
  double c_lo = 0.0;               ///< 0 → profile min rate
  double c_hi = 0.0;               ///< 0 → profile max rate

  // Sharded plane only (serve/sharded_server.hpp); AdmissionServer ignores
  // these.
  std::size_t shards = 1;              ///< engine shards behind the acceptor
  std::size_t channel_capacity = 1024; ///< per-shard request channel slots
  int shard_poll_ms = 50;              ///< shard idle-poll cap (wall ms)
};

/// The single-engine session backend (serve/session.hpp's seam): a live
/// sim::Engine over one capacity path (an Instance with no jobs: admitted
/// jobs live in the engine's job window until the session retires them),
/// and a serve::Journal bundle.
class LocalBackend {
 public:
  using Config = ServerConfig;
  using Result = sim::SimResult;
  using Journal = serve::Journal;

  LocalBackend(const ServerConfig& config,
               std::unique_ptr<sim::Scheduler> scheduler);

  const ServerConfig& config() const { return config_; }
  sim::Engine& engine() { return engine_; }
  const sim::Engine& engine() const { return engine_; }
  double admission_c_lo() const { return instance_.c_lo(); }

  std::unique_ptr<Journal> open_journal() const;
  Result finish();
  void publish(const Result& /*result*/, obs::MetricsRegistry::Shard&) const {
  }

 private:
  ServerConfig config_;
  std::unique_ptr<sim::Scheduler> scheduler_;
  Instance instance_;
  sim::Engine engine_;
};

class AdmissionServer final : public InlineServer<LocalBackend> {
 public:
  /// The scheduler is owned; the clock is injected (SystemClock for the
  /// daemon, FakeClock in tests) and must outlive the server. `metrics` is
  /// optional; when set, server.* counters/gauges are published to it.
  AdmissionServer(ServerConfig config, std::unique_ptr<sim::Scheduler> sched,
                  Clock& clock, obs::MetricsRegistry* metrics = nullptr)
      : InlineServer(config, clock, metrics, std::move(sched)) {}

  /// The live engine (its job window: engine().job_state()).
  const sim::Engine& engine() const { return backend().engine(); }
};

}  // namespace sjs::serve
