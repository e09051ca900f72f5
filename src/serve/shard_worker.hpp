// ShardWorker — one engine shard of the sharded admission plane.
//
// Each shard is a serve::Session<LocalBackend> (the same session core the
// single-threaded AdmissionServer runs) with the socket layer cut off,
// owned exclusively by one thread. The acceptor (serve/sharded_server.hpp)
// feeds it decoded requests through a bounded conc::Channel<ShardRequest>
// and reads fully formed protocol replies back from a
// conc::Channel<ShardReply>; the shard never touches a socket and the
// acceptor never touches an engine, so the only shared state in the whole
// plane is the two channels.
//
// Identity contract: a shard runs the IDENTICAL admission sequence as
// AdmissionServer (it is the same Session), journals to its own bundle
// directory (`<journal>/shard<k>`), and its journal replays bit-exactly
// through `sjs_sim --bundle=<journal>/shard<k>` — per shard, independently.
//
// Tickets: the acceptor assigns dense global tickets and routes by
// conc::shard_of(ticket, n). The shard's session admits under dense local
// JobIds (the journal speaks local ids, keeping each shard bundle
// self-contained) and keeps each job's global ticket in its route, so
// every reply and notification carries the GLOBAL ticket and CANCEL/QUERY
// find their job by it.
//
// Lifecycle: run_shard() serves until the request channel drains (the
// acceptor closes it on DRAIN/SIGTERM, or when any shard reports a journal
// failure), then finalises — Engine::finish_live, final notifications,
// outcomes.csv, journal close — and closes the reply channel. The acceptor
// joins the thread only after the reply channel reports drained, so
// result()/journal_error()/stats() are safe to read post-join without any
// further synchronisation.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "conc/channel.hpp"
#include "obs/metrics.hpp"
#include "serve/clock.hpp"
#include "serve/protocol.hpp"
#include "serve/server.hpp"
#include "serve/session.hpp"
#include "sim/result.hpp"
#include "sim/scheduler.hpp"

namespace sjs::serve {

/// One decoded request forwarded from the acceptor to a shard. `conn`,
/// `gen` and `seq` are opaque routing state echoed back in replies; the
/// shard interprets only `kind`, `ticket` and the payload doubles.
struct ShardRequest {
  enum class Kind : std::uint8_t { kSubmit = 1, kCancel = 2, kQuery = 3 };
  Kind kind = Kind::kSubmit;
  int conn = -1;
  std::uint64_t gen = 0;
  std::uint64_t seq = 0;
  std::uint64_t ticket = 0;   ///< global ticket (submit: acceptor-assigned)
  double workload = 0.0;      ///< kSubmit: p
  double rel_deadline = 0.0;  ///< kSubmit: d − r
  double value = 0.0;         ///< kSubmit: v
};

/// A fully formed protocol message plus its connection route. The acceptor
/// checks conn liveness/generation at send time (the shard cannot know).
struct ShardReply {
  int conn = -1;
  std::uint64_t gen = 0;
  Message msg;
};

class ShardWorker final : private ReplyTarget {
 public:
  /// `config.journal_dir`, when set, is the PLANE's journal root; shard k
  /// journals to `<root>/shard<k>` (see open_journal()). The clock is
  /// shared across the plane; run_shard() anchors this shard's bridge at
  /// the epoch captured once by the acceptor. `metrics` may be nullptr.
  ShardWorker(const ServerConfig& config, std::size_t shard_index,
              std::unique_ptr<sim::Scheduler> scheduler, Clock& clock,
              obs::MetricsRegistry* metrics);
  ~ShardWorker() override;

  /// Writes the shard's journal preamble (no-op without a journal); the
  /// acceptor calls it once the plane's port is bound. Throws on I/O
  /// failure.
  void open_journal() { session_.open_journal(); }

  conc::Channel<ShardRequest>& requests() { return requests_; }
  conc::Channel<ShardReply>& replies() { return replies_; }

  /// Thread body: enters live mode, serves until the request channel
  /// drains, finalises, then closes the reply channel. `epoch` is the
  /// plane-wide clock reading. (Not `run`: the hot-path analyzer resolves
  /// calls by name, and every scheduler hook calls Engine::run.)
  void run_shard(double epoch);

  // Safe to read only after the owning thread has been joined:
  const sim::SimResult& result() const { return session_.result(); }
  /// The session's job window: ring slots in use and reserved, peak
  /// unretired span, peak spilled stragglers, the peak of jobs in flight,
  /// and the journal's peak held outcome rows and held-row ring slots.
  std::size_t window_slots() const { return session_.window_slots(); }
  std::size_t window_reserved() const { return session_.window_reserved(); }
  std::uint64_t window_peak() const { return session_.window_peak(); }
  std::uint64_t window_stragglers() const {
    return session_.window_stragglers();
  }
  std::uint64_t in_flight_peak() const { return session_.in_flight_peak(); }
  std::uint64_t outcome_rows_held() const {
    return session_.outcome_rows_held();
  }
  std::size_t outcome_ring_slots() const {
    return session_.outcome_ring_slots();
  }
  /// Non-empty once a journal write failed on this shard. The failing
  /// request was answered ERROR(kJournalFailed), the shard's session began
  /// draining, and the acceptor drains the plane when that reply reaches
  /// it; callers should exit non-zero after the drain.
  const std::string& journal_error() const {
    return session_.journal_error();
  }
  StatsBody stats() const { return session_.stats(); }

 private:
  /// The steady state: pumps, handles requests and parks until the request
  /// channel drains.
  void serve_requests();
  void handle(const ShardRequest& req);
  // ReplyTarget: commits a reply, waiting out transient fullness (see .cpp
  // for why this cannot deadlock); a job's wire ticket is the global one.
  void send(int conn, std::uint64_t gen, const Message& msg) override;
  std::uint64_t ticket_for(JobId /*id*/,
                           std::uint64_t request_ticket) const override {
    return request_ticket;
  }

  std::int64_t poll_cap_us_;  ///< idle park cap (config.shard_poll_ms)
  obs::MetricsRegistry* metrics_;
  conc::Channel<ShardRequest> requests_;
  conc::Channel<ShardReply> replies_;
  Session<LocalBackend> session_;
};

}  // namespace sjs::serve
