// Session — the one serving session core under every front end
// (docs/serving.md).
//
// A Session is everything between a decoded request and the engine: the
// AdmissionGate, the ClockBridge, the notification sink, the StatsBody
// counters, the in-flight peak and the journal. It answers SUBMIT, CANCEL
// and QUERY on local job ids, pumps the engine to the bridge's virtual now,
// turns the engine's completions and expiries into notifications, and
// resolves the backlog at drain.
//
// Three front ends run it:
//   serve::AdmissionServer   Session<LocalBackend>, inline on the EventLoop
//   serve::ShardWorker       Session<LocalBackend>, one per shard thread,
//                            behind the sharded acceptor's channels
//   cluster::ClusterServer   Session<cluster::FleetBackend>, inline
//
// Backend seam. A backend owns the engine and supplies:
//   Config / Result / Journal    its config, result and journal types
//   engine()                     sim::Engine or cloud::MultiEngine (the two
//                                share the live API the session calls:
//                                admit_live(job), retire(id), job_state(),
//                                is_running(id), ...)
//   config(), admission_c_lo()   the config copy and the gate's floor
//   open_journal()               the journal for config().journal_dir
//   finish()                     finish_live plus backend extras (fleet:
//                                rental settle and accounting)
//   publish(result, shard)
// Session<Backend> member functions live in serve/session_impl.hpp and are
// instantiated explicitly, once per backend (serve/server.cpp,
// cluster/cluster_server.cpp), so engine calls stay direct.
//
// Replies. Every outgoing message goes through one ReplyTarget to its
// job's reply route (conn, gen). Inline, the target checks the connection is
// still that incarnation and encodes onto the EventLoop; in a shard it
// pushes to the reply channel. A job's wire ticket is its local id inline
// and the acceptor's global ticket in a shard; the route keeps it.
//
// The job window. There is one ring over local ids, the engine's
// sim::JobTable (engine().job_state()); each job's reply route is a lane of
// it, and the window gauges read it. After the notifications are
// dispatched, the session retires every resolved job at the ring's base,
// and a spilled straggler (a job the full ring moved to the table's
// straggler store) as soon as its notification ships. A retiring job's
// outcomes.csv row goes to the journal, which holds it while a lower id is
// unresolved; its outcome (completed or expired, 2 bits) moves to a packed
// lane indexed by wire ticket, which is all QUERY and CANCEL need of a
// retired ticket. So the ring is bounded by its --max-in-flight
// reservation (below it, it follows the unretired span), the stragglers by
// the jobs in flight (the gate sheds at max_in_flight), and only the held
// rows, about 24 bytes each, by the span from the oldest unresolved
// straggler to the newest job; plus those 2 bits per ticket, however long
// the session runs.
//
// Journal failure (one policy in every mode): the first error wins and is
// kept in journal_error(), the failing request is answered
// ERROR(kJournalFailed) and never ACCEPTED/CANCELLED, and the session
// drains — later submits are REJECTED(draining). A SUBMIT's row is written
// before the engine admits the job, so a failed append admits nothing.
// Front ends follow the session into drain; the sharded acceptor drains the
// whole plane when a shard's ERROR(kJournalFailed) reaches it.
#pragma once

#include <cstdint>
#include <exception>
#include <limits>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "jobs/job.hpp"
#include "obs/metrics.hpp"
#include "obs/ring_buffer.hpp"
#include "obs/trace_sink.hpp"
#include "serve/admission.hpp"
#include "serve/clock.hpp"
#include "serve/protocol.hpp"
#include "sim/job_table.hpp"
#include "stats/histogram.hpp"
#include "util/vec.hpp"

namespace sjs::serve {

/// The settings every serving front end shares (ServerConfig and
/// cluster::ClusterServerConfig both derive from it).
struct SessionConfig {
  int port = 0;                    ///< 0 → ephemeral
  std::string journal_dir;         ///< empty → no journal
  double accel = 1.0;              ///< virtual seconds per wall second
  std::uint64_t max_in_flight = 1024;
  std::size_t max_write_buffer = 1 << 18;
  bool admission_check = true;     ///< Thm. 3(3) rejection at the door
  std::size_t trace_ring = 0;      ///< >0: keep the last N trace events
};

// server.* metric names (obs/metrics.hpp documents the engine.* family; the
// serving daemons publish these alongside). A shard's session publishes the
// per-request ones with a ".shard<k>" suffix; the plain names are counted
// once per plane.
inline constexpr std::string_view kCtrSubmitted = "server.jobs_submitted";
inline constexpr std::string_view kCtrAccepted = "server.jobs_accepted";
inline constexpr std::string_view kCtrRejected = "server.jobs_rejected";
inline constexpr std::string_view kCtrShed = "server.jobs_shed";
inline constexpr std::string_view kCtrCompleted = "server.jobs_completed";
inline constexpr std::string_view kCtrExpired = "server.jobs_expired";
inline constexpr std::string_view kCtrCancelled = "server.jobs_cancelled";
inline constexpr std::string_view kCtrConnections = "server.connections";
inline constexpr std::string_view kCtrMalformed = "server.malformed_frames";
inline constexpr std::string_view kCtrOverflows = "server.write_overflows";
inline constexpr std::string_view kGaugeInFlightPeak = "server.in_flight_peak";
inline constexpr std::string_view kGaugeWindowPeak = "server.window_peak";
inline constexpr std::string_view kGaugeWindowSlots = "server.window_slots";
inline constexpr std::string_view kGaugeWindowReserved =
    "server.window_reserved";
inline constexpr std::string_view kGaugeWindowStragglers =
    "server.window_stragglers";
inline constexpr std::string_view kGaugeOutcomeRowsHeld =
    "server.outcome_rows_held";
inline constexpr std::string_view kGaugeOutcomeRingSlots =
    "server.outcome_ring_slots";
inline constexpr std::string_view kCtrWakeSocket = "server.wakeups.socket";
inline constexpr std::string_view kCtrWakeTimer = "server.wakeups.timer";
inline constexpr std::string_view kCtrWakeTimerEmpty =
    "server.wakeups.timer_empty";
inline constexpr std::string_view kCtrWakeDeadSkipped =
    "server.wakeups.dead_skipped";
inline constexpr std::string_view kGaugeWakeLateP50 = "server.wake_late_us.p50";
inline constexpr std::string_view kGaugeWakeLateP99 = "server.wake_late_us.p99";
inline constexpr std::string_view kGaugeWakeLateMax = "server.wake_late_us.max";
inline constexpr std::string_view kGaugeWriteBufPeak =
    "server.write_buffer_peak";

/// A session's counter names, built once: the plain names inline,
/// "<name>.shard<k>" in shard k, so the per-request path never builds a
/// string.
struct SessionCounterNames {
  explicit SessionCounterNames(std::string_view suffix);
  std::string submitted, accepted, rejected, shed, completed, expired,
      cancelled, in_flight_peak, window_peak, window_slots, window_reserved,
      window_stragglers, outcome_rows_held, outcome_ring_slots, wake_socket,
      wake_timer, wake_timer_empty, wake_dead_skipped, wake_late_p50,
      wake_late_p99, wake_late_max;
};

/// Where a session's outgoing messages go, and how its local job ids read
/// on the wire.
class ReplyTarget {
 public:
  virtual ~ReplyTarget() = default;
  /// Ships `m` to connection `conn` if it is still incarnation `gen`.
  virtual void send(int conn, std::uint64_t gen, const Message& m) = 0;
  /// The wire ticket of newly admitted local job `id`, whose SUBMIT carried
  /// `request_ticket` (inline: the id itself). Tickets must increase with
  /// the local id.
  virtual std::uint64_t ticket_for(JobId id,
                                   std::uint64_t /*request_ticket*/) const {
    return static_cast<std::uint64_t>(id);
  }
};

/// Captures kComplete/kExpire events raised inside the engine so the pump
/// can translate them into client notifications after advance_to returns.
/// Drained in place (index + clear) rather than by move-returning the
/// vector: a move would strip the retained capacity and force a fresh
/// allocation on the next pump cycle.
class NotificationSink final : public obs::TraceSink {
 public:
  void record(const obs::TraceEvent& event) override {
    if (event.kind == obs::TraceKind::kComplete ||
        event.kind == obs::TraceKind::kExpire) {
      // Drained every loop turn; growth stops at the per-turn high-water.
      util::append(pending_, event);
    }
  }
  std::size_t size() const { return pending_.size(); }
  const obs::TraceEvent& operator[](std::size_t i) const {
    return pending_[i];
  }
  void clear() { pending_.clear(); }
  void reserve(std::size_t n) { pending_.reserve(n); }

 private:
  std::vector<obs::TraceEvent> pending_;
};

template <typename Backend>
class Session {
 public:
  using Config = typename Backend::Config;
  using Result = typename Backend::Result;
  using Journal = typename Backend::Journal;

  /// `suffix` labels the counters (empty inline, ".shard<k>" in a shard);
  /// `backend_args` follow `config` into the backend's constructor.
  template <typename... BackendArgs>
  Session(const Config& config, Clock& clock, ReplyTarget& target,
          std::string_view suffix, BackendArgs&&... backend_args)
      : backend_(config, std::forward<BackendArgs>(backend_args)...),
        gate_(backend_.admission_c_lo(), config.admission_check,
              config.max_in_flight),
        bridge_(clock, config.accel),
        target_(&target),
        names_(suffix) {
    tee_.add(&notifications_);
    if (config.trace_ring > 0) {
      ring_ = std::make_unique<obs::RingTraceBuffer>(config.trace_ring);
      tee_.add(ring_.get());
    }
  }

  /// Writes the journal preamble at config.journal_dir (no-op when empty).
  /// Throws on I/O failure.
  void open_journal() { journal_ = backend_.open_journal(); }

  /// Enters live mode on the serving thread: anchors the bridge at
  /// `epoch`, takes this thread's metrics shard (`metrics` may be null),
  /// attaches the trace sinks, and reserves everything the per-request
  /// path touches from max_in_flight, so a warmed session allocates
  /// nothing, for any session length and any deadlines. A reservation is
  /// capacity, not memory: the job window and the queues grow into it as
  /// the span needs, so RSS follows the load, not max_in_flight. Two
  /// structures grow past their pre-size to a high-water instead: the
  /// journal's held outcome rows, with the span from the oldest unresolved
  /// straggler, and the retired-outcome lane, 2 bits per ticket, pre-sized
  /// for kRetiredTickets.
  void begin_live(double epoch, obs::MetricsRegistry* metrics);

  /// SUBMIT from (conn, gen). Returns the admitted local id, or kNoJob.
  // sjs-hot-path-root
  JobId submit(int conn, std::uint64_t gen, const Message& m);
  /// CANCEL of the job with wire ticket m.ticket; the reply echoes it. A
  /// retired or unknown ticket gets CANCEL_FAILED.
  // sjs-hot-path-root
  void cancel(int conn, std::uint64_t gen, const Message& m);
  /// QUERY of the job with wire ticket m.ticket; a retired ticket reads
  /// COMPLETED or EXPIRED from the packed outcome lane.
  // sjs-hot-path-root
  void query(int conn, std::uint64_t gen, const Message& m);
  /// Advances virtual time to the bridge's now and ships notifications.
  // sjs-hot-path-root
  void pump();
  /// The loop's wait timeout: wall microseconds until the first live
  /// simulated event is due (0 once it is), at most `cap_us`. Dead events
  /// ahead of it (engine next_live_event_time) do not end the wait; they
  /// pop in order in the next pump. A negative cap means uncapped; with no
  /// live event queued the cap itself comes back (-1: until activity).
  std::int64_t wait_us(std::int64_t cap_us);
  /// Counts one turn of the loop's wait by cause (server.wakeups.*): a wait
  /// of `waited_us` (0: no sleep, not counted) that ended with `ready`
  /// descriptors ready (socket) or on its timeout (timer), and whether the
  /// pump after it shipped a notification: `notified_before` is
  /// notified() read before that pump (a timer wake that shipped none is
  /// timer_empty too). A timer wake for the live event the wait targeted
  /// also records how late it came (server.wake_late_us), read off the
  /// clock reading of that pump.
  void count_wakeup(std::int64_t waited_us, int ready,
                    std::uint64_t notified_before);
  /// COMPLETED/EXPIRED notifications handled so far (cancelled jobs'
  /// internal expiries included).
  std::uint64_t notified() const { return notified_; }
  /// Resolves the backlog (finish_live), ships the last notifications
  /// (retiring every job, so outcomes.csv is complete), publishes the
  /// backend's metrics, closes the journal.
  void finalize();

  /// Ring slots in use (a power of two), the slots the pre-size reserved,
  /// and the peak unretired span of the job window.
  std::size_t window_slots() const { return jobs().capacity(); }
  std::size_t window_reserved() const { return jobs().reserved(); }
  std::uint64_t window_peak() const { return jobs().span_peak(); }
  /// Peak count of spilled jobs in the window's straggler store.
  std::uint64_t window_stragglers() const { return jobs().straggler_peak(); }
  /// Peak count of admitted, unresolved jobs.
  std::uint64_t in_flight_peak() const { return in_flight_peak_; }
  /// Peak count of outcomes.csv rows the journal held back (0 without one).
  std::uint64_t outcome_rows_held() const {
    return journal_ ? journal_->rows_held_peak() : 0;
  }
  /// Slots of the journal's held-row ring in use (0 without a journal).
  std::size_t outcome_ring_slots() const {
    return journal_ ? journal_->held_ring_slots() : 0;
  }

  /// Tickets the retired-outcome lane is pre-sized for.
  static constexpr std::size_t kRetiredTickets = std::size_t{1} << 20;
  /// The wake-lateness histogram: 1 µs bins up to 1 ms (later wakes land in
  /// its overflow bucket and still set the max).
  static constexpr double kWakeLateSpanUs = 1000.0;

  /// Refuse further submits (REJECTED(draining)).
  void request_drain() { draining_ = true; }
  bool draining() const { return draining_; }

  /// Live counters; virtual_now is the engine's clock.
  StatsBody stats() const;
  /// Final result; valid once finalize() ran.
  const Result& result() const { return result_; }
  Backend& backend() { return backend_; }
  const Backend& backend() const { return backend_; }
  /// Empty when journalling is off.
  const std::string& journal_dir() const;
  /// Non-empty once a journal write failed; see the header comment.
  const std::string& journal_error() const { return journal_error_; }
  /// The ring of recent trace events (empty unless trace_ring > 0).
  std::vector<obs::TraceEvent> recent_trace() const;

 private:
  void dispatch_notifications();
  /// Ships the notification of `ev`, a completion or expiry of a held job.
  void notify(const obs::TraceEvent& ev);
  /// The job window: the engine's JobTable.
  sim::JobTable& jobs() { return backend_.engine().job_state(); }
  const sim::JobTable& jobs() const { return backend_.engine().job_state(); }
  /// Retires every job from the window base up to the first one without
  /// an outcome.
  void retire_resolved();
  /// Retires job `id`, which has an outcome: records it in the retired
  /// lane, frees its window slot, and hands its row to the journal.
  void retire_job(JobId id);
  /// The unretired local id with wire ticket `ticket`, or kNoJob.
  JobId find(std::uint64_t ticket) const;
  /// What the retired-outcome lane says of `ticket` (kUnknown: not a
  /// retired job of this session).
  JobState retired_state(std::uint64_t ticket) const;
  /// The journal-failure policy: the first error wins, the request gets
  /// `r` (its reply so far) as ERROR(kJournalFailed), the session drains.
  void fail_journal(int conn, std::uint64_t gen, Message r,
                    const std::exception& e);
  void count(std::string_view name, double delta = 1.0) {
    if (shard_) shard_->count(name, delta);
  }

  Backend backend_;
  AdmissionGate gate_;
  ClockBridge bridge_;
  ReplyTarget* target_;
  SessionCounterNames names_;
  std::unique_ptr<Journal> journal_;
  std::string journal_error_;
  obs::MetricsRegistry::Shard* shard_ = nullptr;

  NotificationSink notifications_;
  std::unique_ptr<obs::RingTraceBuffer> ring_;
  std::unique_ptr<obs::TraceMetricsBridge> trace_bridge_;
  obs::TeeSink tee_;
  /// Outcomes of retired jobs, 2 bits per wire ticket (0 unknown,
  /// 1 completed, 2 expired), 32 tickets per word.
  std::vector<std::uint64_t> retired_;
  std::uint64_t notified_ = 0;

  /// Virtual due time of the live event the last wait_us() targeted; NaN
  /// when the cap or nothing bounded that wait.
  double wake_due_ = std::numeric_limits<double>::quiet_NaN();
  /// The virtual time the last pump() read off the clock.
  double pumped_at_ = 0.0;
  /// Timer-wake lateness in µs (server.wake_late_us), allocated with the
  /// session so the serving loop only counts into it.
  Histogram wake_late_{0.0, kWakeLateSpanUs,
                       static_cast<std::size_t>(kWakeLateSpanUs)};
  double wake_late_max_ = 0.0;

  bool draining_ = false;
  bool finalized_ = false;
  StatsBody stats_{};
  std::uint64_t in_flight_peak_ = 0;
  Result result_;
};

}  // namespace sjs::serve
