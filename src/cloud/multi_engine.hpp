// Coupled multi-server engine with migration — the full "cloud-wise"
// extension (paper Sec. I), beyond the dispatch-only model in dispatch.hpp.
//
// K servers, each with its own piecewise-constant capacity path, execute one
// shared secondary-job stream under a *global* scheduler that may place,
// preempt, and migrate any live job onto any server at any interrupt. A
// migrated job resumes from its point of preemption (preemption and
// migration are free, consistent with the single-server model's free
// preemption; real VM-migration costs can be modelled by the workload).
// A job occupies at most one server at a time (no intra-job parallelism —
// these are VMs).
//
// The engine mirrors sim::Engine's guarantees: exact completion instants per
// server via cumulative-work inversion, deterministic event ordering
// (Completion < Expiry < Release, FIFO within class), lazy invalidation via
// per-server dispatch epochs, and online information hiding. It runs on the
// same event queue (sim::SplitEventQueue: releases/expiries on the sealed
// static side in batch runs, completions on the heap) and reads each server's
// path through its own monotone capacity cursor.
//
// Per-job state lives in the same sim::JobTable window as sim::Engine's
// (bound to the whole instance in a batch run, retired job by job in a
// serving session); a job's server is read off the K running slots.
#pragma once

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "capacity/capacity_profile.hpp"
#include "jobs/job.hpp"
#include "obs/trace_sink.hpp"
#include "sim/job_table.hpp"
#include "sim/result.hpp"
#include "sim/split_event_queue.hpp"
#include "util/fp.hpp"

namespace sjs::cloud {

inline constexpr std::size_t kNoServer = static_cast<std::size_t>(-1);

class MultiEngine;

/// Global scheduler interface: sees every server, may run any live job on
/// any server inside a callback.
class GlobalScheduler {
 public:
  virtual ~GlobalScheduler() = default;
  virtual void on_start(MultiEngine& /*engine*/) {}
  virtual void on_release(MultiEngine& engine, JobId job) = 0;
  virtual void on_complete(MultiEngine& engine, JobId job,
                           std::size_t server) = 0;
  /// `server` is kNoServer when the job expired while not running.
  virtual void on_expire(MultiEngine& engine, JobId job,
                         std::size_t server) = 0;
  virtual std::string name() const = 0;
};

struct MultiSimResult {
  std::string scheduler_name;
  double completed_value = 0.0;
  double generated_value = 0.0;
  std::uint64_t completed_count = 0;
  std::uint64_t expired_count = 0;
  std::uint64_t dispatches = 0;
  std::uint64_t preemptions = 0;
  std::uint64_t migrations = 0;  ///< dispatches onto a different server
  double executed_total = 0.0;     ///< work executed, summed over all servers
  // Per job; empty when the run retired jobs.
  std::vector<sim::JobOutcome> outcomes;
  std::vector<double> executed_work;
  std::vector<double> completion_times;  ///< NaN while pending/expired
  std::vector<double> busy_time_per_server;

  // Fleet-rental accounting (filled by cluster::Dispatcher-driven runs;
  // zero for plain MultiEngine runs).
  double rental_cost = 0.0;          ///< integral of cost_rate over rented time
  double rented_machine_time = 0.0;  ///< integral of rented-machine count
  std::uint64_t rent_events = 0;
  std::uint64_t release_events = 0;
  std::uint64_t rented_peak = 0;  ///< max machines rented at once

  double value_fraction() const {
    return generated_value > 0.0 ? completed_value / generated_value : 0.0;
  }
};

/// Writes the per-job outcome table through sim::save_outcomes_csv's row
/// formatter, the one a serving session streams its rows with, so a live
/// cluster session and its replay can be diffed byte-for-byte.
void save_multi_outcomes_csv(const MultiSimResult& result,
                             const std::vector<Job>& jobs,
                             const std::string& path);

class MultiEngine {
 public:
  /// Jobs must be release-sorted with ids equal to their positions (the
  /// Instance canonical form); servers must be non-empty. The job window is
  /// bound to `jobs` here; the vector is read again only by
  /// admit_live(JobId). Neither the jobs nor the scheduler are owned.
  MultiEngine(const std::vector<Job>& jobs,
              std::vector<cap::CapacityProfile> servers,
              GlobalScheduler& scheduler);
  // The capacity cursors point into servers_.
  MultiEngine(const MultiEngine&) = delete;
  MultiEngine& operator=(const MultiEngine&) = delete;

  MultiSimResult run_to_completion();

  // --- live mode (real-time admission serving; mirrors sim::Engine) ---
  /// Enters live mode: no pre-loaded events beyond the jobs bound at
  /// construction (a warm-started fleet behaves like its replay).
  void begin_live();
  /// Pre-sizes the job window, its straggler store and the event heap for a
  /// bounded-in-flight session.
  void reserve_live(std::size_t max_in_flight);
  /// Admits `job` (release >= now; its id field is ignored) at the next
  /// admission id, which it returns. Pushes its release and expiry events
  /// exactly as replay does, so relative event order — and therefore every
  /// outcome byte — matches the replayed session.
  JobId admit_live(const Job& job);
  /// Admits job `id` of the vector the engine was constructed over, already
  /// appended to it; `id` must be the next admission id.
  void admit_live(JobId id);
  /// Retires job `id`, which must have an outcome and be the window's
  /// base() or a spilled job: every queued event still naming it is dead
  /// from here on.
  /// Read what the caller keeps of the job (job_state()) first.
  void retire(JobId id);
  /// Force-expires a live job at the current instant. Subdivides the running
  /// job's execution integral at now(), so cancel-bearing sessions are
  /// excluded from the bit-exact replay guarantee (same caveat as
  /// sim::Engine::cancel_live).
  bool cancel_live(JobId id);
  /// Processes every event strictly before t, then moves the clock to t.
  /// Execution integrals are subdivided at event times only, exactly as
  /// replay subdivides them, or remaining workloads drift by ulps.
  void advance_to(double t);
  /// Time of the earliest pending event, or +inf when idle.
  double next_event_time() const;
  /// The event loop's wake-up bound, as sim::Engine::next_live_event_time:
  /// the first pending event that is not dead (event_dead), or a time no
  /// later than it, or +inf when only dead events are queued.
  double next_live_event_time() const;
  /// Drains all pending events and harvests the result.
  const MultiSimResult& finish_live();

  /// Attaches a trace sink (src/obs/); events carry the server index in
  /// TraceEvent::server and migrations are recorded as kMigrate. Same
  /// contract as sim::Engine::attach_trace.
  void attach_trace(obs::TraceSink* sink) { sink_ = sink; }
  bool trace_enabled() const { return sink_ != nullptr; }

  // --- query surface (online-observable) ---
  double now() const { return now_; }
  std::size_t server_count() const { return servers_.size(); }
  double server_rate(std::size_t server) const;
  /// The record of an unretired job.
  const Job& job(JobId id) const { return jobs_.job(id); }
  /// Jobs admitted so far (the instance size on a batch run).
  std::size_t job_count() const {
    return static_cast<std::size_t>(jobs_.end());
  }
  /// The job window (sim/job_table.hpp) holding every per-job lane.
  sim::JobTable& job_state() { return jobs_; }
  const sim::JobTable& job_state() const { return jobs_; }
  /// What schedulers size their per-job structures for in on_start(): the
  /// job count on batch runs, or the reserve_live() pre-size in a live
  /// session (where job_count() is still 0 at start), as in sim::Engine.
  std::size_t job_capacity_hint() const {
    return std::max(job_count(), live_reserve_);
  }
  double remaining(JobId id) const;
  bool is_live(JobId id) const;
  bool is_released(JobId id) const;
  /// Server currently executing `id`, or kNoServer (a scan of the K
  /// running slots).
  std::size_t server_of(JobId id) const;
  bool is_running(JobId id) const { return server_of(id) != kNoServer; }
  /// Job running on `server`, or kNoJob.
  JobId running_on(std::size_t server) const;

  // --- commands (valid inside callbacks only) ---
  /// Places `id` on `server`, preempting whatever runs there. If `id` is
  /// running elsewhere it is migrated (stopped there first). No-op if it
  /// already runs on `server`.
  void run_on(std::size_t server, JobId id);
  /// Idles `server`.
  void idle(std::size_t server);
  /// Stops `id` wherever it runs (no-op if queued).
  void stop(JobId id);

 private:
  enum class EventType : std::uint8_t {
    kCompletion = 0,
    kExpiry = 1,
    kRelease = 2,
  };

  struct Event {
    double time;
    EventType type;
    std::uint64_t seq;
    JobId job;
    std::size_t server = kNoServer;
    std::uint64_t epoch = 0;

    bool operator>(const Event& other) const {
      if (fp::exact_ne(time, other.time)) return time > other.time;
      if (type != other.type) return type > other.type;
      return seq > other.seq;
    }
  };

  /// Records one trace event at `now_` (null check only when disabled).
  void trace(obs::TraceKind kind, JobId job, std::size_t server,
             double a = 0.0, double b = 0.0) {
    if (sink_) {
      sink_->record(obs::TraceEvent{
          now_, kind, job,
          server == kNoServer ? -1 : static_cast<std::int32_t>(server), a, b});
    }
  }

  void push_event(double time, EventType type, JobId job, std::size_t server,
                  std::uint64_t epoch);
  /// Whether `event` will pop as a no-op: a completion whose server has
  /// been re-dispatched since (a preemption or a migration), or an expiry
  /// of a job that already has an outcome or was retired. Monotone, like
  /// sim::Engine's.
  bool event_dead(const Event& event) const;
  /// Accounts execution on every busy server up to time t.
  void advance_all(double t);
  /// Bookkeeping stop of the job on `server` (no callback).
  void halt_server(std::size_t server);
  void schedule_completion(std::size_t server);
  /// Pops and dispatches one event (shared by replay and live mode).
  void process_event(const Event& event);
  /// Counts job `id`'s value and queues its release and expiry.
  void schedule_job(JobId id);
  /// Copies the per-job lanes into result_ (when nothing retired) and closes
  /// the trace stream.
  void harvest();

  const std::vector<Job>* source_;  // read by admit_live(JobId) only
  std::vector<cap::CapacityProfile> servers_;
  /// One monotone cursor per server path: amortized O(1) rate/work/invert
  /// (mutable: server_rate() is a const query).
  mutable std::vector<cap::CapacityProfile::Cursor> cursors_;
  GlobalScheduler* scheduler_;

  double now_ = 0.0;
  double last_advance_ = 0.0;
  std::vector<JobId> running_;         // per server
  std::vector<std::uint64_t> epochs_;  // per server
  /// Per job: one window, engine lanes only (the dispatcher and the global
  /// schedulers keep their own per-job state).
  sim::JobTable jobs_{sim::JobTable::Lanes::kEngine};

  sim::SplitEventQueue<Event> queue_;
  std::uint64_t next_seq_ = 0;
  bool in_callback_ = false;
  bool live_ = false;
  std::size_t live_reserve_ = 0;  // reserve_live() pre-size (capacity hint)
  obs::TraceSink* sink_ = nullptr;
  MultiSimResult result_;
};

}  // namespace sjs::cloud
