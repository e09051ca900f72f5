// ShardedAdmissionServer — the sharded admission plane (docs/serving.md).
//
// One ACCEPTOR thread (the thread calling step()/run()) owns every socket
// and all frame decoding; N SHARD threads (serve/shard_worker.hpp) each own
// a private live-mode engine + scheduler + journal. The two sides meet only
// at bounded conc::Channels:
//
//   acceptor ──ShardRequest──▶ shard k          (bounded FIFO, per shard)
//   shard k  ──ShardReply────▶ acceptor         (per-shard reply channel)
//
// Routing is deterministic: the acceptor assigns each forwarded SUBMIT a
// dense global ticket (0, 1, 2, …) and sends it to shard
// conc::shard_of(ticket, N) — splitmix64 over the ticket, so the placement
// of every job is a pure function of its submission index, replayable from
// the journals alone. CANCEL/QUERY route by the same function of the
// carried ticket. A SUBMIT that cannot be forwarded (request channel full)
// is SHED and consumes NO ticket.
//
// Time: the acceptor reads the injected Clock exactly once at start() and
// hands the same epoch to its own bridge and every shard's, so "virtual
// now" is one global timeline across the plane.
//
// Drain (DRAIN request, watched shutdown fd, or a shard's
// ERROR(kJournalFailed) reply — one journal-failure policy in every mode):
// the acceptor stops listening, refuses further submits, and closes every
// request channel in shard order. Each shard finishes its backlog, journals
// outcomes, and closes its reply channel; the acceptor keeps shipping
// notifications until every reply channel reports drained, then joins the
// ShardSet (again in shard order), flushes client sockets, and shuts down.
//
// Stats/metrics: the acceptor aggregates the plane-wide StatsBody from the
// reply stream (kStats is answered locally, never forwarded) and counts the
// plain server.* metric names; each shard's session counts only the
// "<name>.shard<k>" breakdowns — a registry snapshot therefore carries both
// rollup and per-shard series without double counting.
//
// The connection side (decoders, generations, STATS/DRAIN, flush-then-
// shutdown) is serve::FrontEnd, shared with the inline servers.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "conc/shard_set.hpp"
#include "obs/metrics.hpp"
#include "serve/clock.hpp"
#include "serve/front_end.hpp"
#include "serve/protocol.hpp"
#include "serve/server.hpp"
#include "serve/shard_worker.hpp"
#include "sim/scheduler.hpp"

namespace sjs::serve {

class ShardedAdmissionServer final : public FrontEnd {
 public:
  /// Builds one fresh scheduler per shard (schedulers are single-engine by
  /// contract, so they cannot be shared).
  using SchedulerFactory = std::function<std::unique_ptr<sim::Scheduler>()>;

  ShardedAdmissionServer(ServerConfig config, SchedulerFactory make_scheduler,
                         Clock& clock, obs::MetricsRegistry* metrics = nullptr);
  ~ShardedAdmissionServer() override;

  /// Binds the listener, captures the plane epoch, spawns the shards.
  /// Returns the bound port.
  int start();

  /// Plane-wide aggregate counters (also the body of STATS replies).
  /// `virtual_now` is the acceptor bridge's reading (the shards' engines
  /// trail it only by their undispatched backlog).
  StatsBody stats() const override;

  std::size_t shard_count() const { return workers_.size(); }
  /// Shard k's worker. Its result()/journal_error()/stats() are valid only
  /// after finished().
  const ShardWorker& shard(std::size_t k) const { return *workers_[k]; }
  /// The journal ROOT (shard k writes `<root>/shard<k>`); empty when
  /// journalling is off.
  const std::string& journal_dir() const { return config_.journal_dir; }
  /// Non-empty once a shard reported ERROR(kJournalFailed) (the plane is
  /// then draining) or, after finished(), once any shard's journal failed;
  /// shard(k).journal_error() has each shard's own message. Callers should
  /// exit non-zero.
  const std::string& journal_error() const { return journal_error_; }

 private:
  void on_request(int conn, const Message& m) override;
  bool serve(std::int64_t max_wait_us) override;
  /// Closes the request channels in shard order — the deterministic half
  /// of the drain contract (ShardSet::join is the other half).
  void on_drain() override;
  /// A shard reply wake: re-arm it now (poll is level-triggered, so leaving
  /// the fd readable would spin); the pops happen in drain_replies.
  void on_other_wake(int fd) override;

  /// Routes kCancel/kQuery to the owning shard by ticket.
  void forward_by_ticket(int conn, const Message& m);
  /// Pops every deliverable reply from every shard and dispatches it.
  void drain_replies();
  void dispatch_reply(std::size_t shard, const ShardReply& rep);
  bool all_replies_drained() const;

  ServerConfig config_;
  SchedulerFactory make_scheduler_;
  ClockBridge bridge_;

  std::vector<std::unique_ptr<ShardWorker>> workers_;
  conc::ShardSet threads_;

  /// The next global ticket (= SUBMITs forwarded so far); a ticket's
  /// shard is conc::shard_of(ticket, shards).
  std::uint64_t next_ticket_ = 0;

  bool joined_ = false;
  std::string journal_error_;
  StatsBody stats_{};
  std::uint64_t in_flight_peak_ = 0;
};

}  // namespace sjs::serve
