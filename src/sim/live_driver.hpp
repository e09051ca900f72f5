// The live-mode driver shared by sim::Engine and cloud::MultiEngine.
//
// The serving daemon drives an engine against wall-clock time instead of
// running a sealed instance to completion: jobs are admitted with
// admit_live() as they arrive over the wire, and the event loop advances
// virtual time with advance_to(t) between socket polls. Live mode reuses the
// exact replay machinery — the engine's own event pushes and handlers, the
// (time, type, seq) total order — so a live session whose admitted arrival
// stream is journalled and replayed through run_to_completion reproduces the
// identical schedule. The event sequences coincide because
//   (1) live release/expiry events go to the volatile heap, and heap-vs-
//       static placement never affects the merged pop order
//       (sim/split_event_queue.hpp);
//   (2) admission stamps are strictly increasing and advance_to's bound is
//       *strict* (< t), so every event at one timestamp is in the queue
//       before any of them pops;
//   (3) relative seq order within each (time, type) class equals admission
//       order in both modes: each job's release then its expiry, in id
//       order;
//   (4) execution integrals are subdivided at event times only: advance_to
//       moves the clock but not the point up to which execution is
//       accounted, exactly as replay subdivides them, or remaining workloads
//       drift by ulps.
// docs/serving.md and docs/cluster.md rely on this argument for the single
// engine and the fleet alike.
//
// Per-job state lives in the JobTable window (sim/job_table.hpp). A serving
// session retires each job once it has an outcome (retire()), so its memory
// does not grow with the number of jobs it admits, and an unresolved job at
// a full window's base spills to the straggler store reserve_live() sized. A
// live run that retires nothing keeps every job, like a batch run.
//
// LiveDriver is a CRTP base: `class Engine : public LiveDriver<Engine, Event,
// Result>`. Every hook call is static, so advance_to's loop inlines the
// engine's step exactly as a hand-written loop would. The engine provides,
// as private members with the driver as a friend:
//   void schedule_job(JobId)          count a windowed job's value and queue
//                                     its release, then its expiry;
//   void step_event()                 pop and handle one event;
//   bool event_dead(const Event&) const
//                                     whether an event will pop as a no-op
//                                     (monotone: a dead event stays dead);
//   void expire_now(JobId)            deliver an expiry interrupt for a live
//                                     job at now_;
//   const Result& harvest_result()    fill and return the end-of-run result;
//   void start_run()                  the engine's own start-of-run work on
//                                     the cleared queue, from queueing the
//                                     pre-loaded jobs to raising on_start;
//   void reserve_live_events(std::size_t)
//                                     the event-queue (and slab) pre-sizes
//                                     for that many jobs in flight;
//   const std::vector<Job>& appended_jobs() const
//                                     the job vector admit_live(JobId) reads.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <vector>

#include "jobs/job.hpp"
#include "sim/job_table.hpp"
#include "sim/result.hpp"
#include "sim/split_event_queue.hpp"
#include "util/logging.hpp"

namespace sjs::sim {

template <typename Derived, typename Event, typename Result>
class LiveDriver {
 public:
  // --- Live mode -------------------------------------------------------------

  /// Enters live mode over the bound jobs (normally none; any the engine
  /// holds are admitted at their own releases, so a warm-started engine
  /// behaves like the equivalent replay), then runs the engine's own
  /// start-of-run work, which ends by raising on_start. An engine runs once:
  /// begin_live on one that has already run is refused. Pair with
  /// finish_live().
  void begin_live() {
    SJS_CHECK_MSG(!live_ && !in_callback_, "begin_live: already live");
    SJS_CHECK_MSG(!run_started_, "begin_live on an engine that has already run");
    run_started_ = true;
    live_ = true;
    // Live admissions append to the bound job vector: copy out any records
    // the window borrowed from it first.
    jobs_.own_records();
    queue_.clear();
    next_seq_ = 0;
    derived().start_run();
  }

  /// Reserves every structure that grows with the in-flight population — the
  /// job window and its straggler store here, the engine's event queue (and
  /// timer slab) through its hook — for `max_in_flight` simultaneous jobs,
  /// without writing the reservation (the window's ring starts at 16 slots
  /// and widens into it). A warmed live session that retires its resolved
  /// jobs and keeps at most that many in flight then performs zero heap
  /// allocations, however many jobs it admits and however long their
  /// deadlines (the serve plane calls this at boot with --max-in-flight).
  void reserve_live(std::size_t max_in_flight) {
    live_reserve_ = max_in_flight;
    jobs_.reserve(max_in_flight);
    // A job spills only while unresolved, so the jobs in flight bound the
    // store (sim/job_table.hpp).
    jobs_.reserve_stragglers(max_in_flight);
    derived().reserve_live_events(max_in_flight);
  }

  /// Admits `job` (valid, release >= now(); its id field is ignored) into the
  /// live run at the next admission id, which it returns: stores the record
  /// in the window and queues the job's release and expiry.
  JobId admit_live(const Job& job) {
    SJS_CHECK_MSG(live_ && !in_callback_, "admit_live outside live mode");
    SJS_CHECK_MSG(job.release >= now_ - 1e-12,
                  "admit_live in the past: release " << job.release
                      << " < now " << now_);
    SJS_CHECK_MSG(job.valid(), "admit_live of invalid job " << job.to_string());
    // Ids stay == admission order (journal local ids and the outcome CSV
    // depend on it, as does the replayed Instance canonical form). The window
    // grows only when its unretired span outgrows reserve_live's pre-size.
    const JobId id = jobs_.admit(job);
    derived().schedule_job(id);
    return id;
  }

  /// Admits job `id` of the engine's bound job vector, already appended to
  /// it (Instance::append_job); `id` must be the next admission id.
  void admit_live(JobId id) {
    const std::vector<Job>& source = derived().appended_jobs();
    SJS_CHECK_MSG(id == jobs_.end() &&
                      static_cast<std::size_t>(id) < source.size(),
                  "admit_live out of order: job " << id << ", expected "
                      << jobs_.end());
    const Job& job = source[static_cast<std::size_t>(id)];
    SJS_CHECK_MSG(job.id == id, "job id out of sync with its position");
    admit_live(job);
  }

  /// Force-expires a live job at now() (client cancellation). The scheduler
  /// sees an ordinary expiry interrupt; the job's original expiry event stays
  /// queued and later pops as a no-op (its outcome is no longer pending).
  /// Returns false when the job is not live (already completed, expired or
  /// cancelled, retired, or not yet released). The interrupt subdivides the
  /// running jobs' execution integrals at now(), and the replay input has no
  /// cancel channel, so sessions containing cancellations are not
  /// journal-replayable through run_to_completion.
  bool cancel_live(JobId id) {
    SJS_CHECK_MSG(live_ && !in_callback_, "cancel_live outside live mode");
    if (!is_live(id)) return false;
    derived().expire_now(id);
    return true;
  }

  /// Processes every pending event with time *strictly* before t, then
  /// advances the virtual clock to t (>= now()). Strictness is what keeps
  /// live pop order identical to replay order: events at exactly t wait
  /// until every same-timestamp admission has been queued.
  void advance_to(double t) {
    SJS_CHECK_MSG(live_ && !in_callback_, "advance_to outside live mode");
    SJS_CHECK_MSG(t >= now_ - 1e-12,
                  "advance_to moving backwards: " << t << " < " << now_);
    while (next_event_time() < t) derived().step_event();
    now_ = std::max(now_, t);
    // The engine's execution accounting deliberately stays at the last
    // processed event: execution integrals must be subdivided at event times
    // only, exactly as replay subdivides them, or remaining workloads drift
    // by ulps.
  }

  /// Timestamp of the next pending event, or +infinity when idle. Dead
  /// events count: popping one is a cheap no-op, never wrong.
  double next_event_time() const {
    const Event* front = queue_.front();
    return front ? front->time : std::numeric_limits<double>::infinity();
  }

  /// The event loop's wake-up bound: the time of the first pending event
  /// that is not dead (the engine's event_dead), or a time no later than it
  /// when the queue's fixed frontier overflows, or +infinity when only dead
  /// events are queued. Never earlier than next_event_time(). Dead events
  /// before it still pop in order inside the next advance_to(), so sleeping
  /// until it changes no event, integral or outcome — only when the loop
  /// wakes. Live timers bound it: a V-Dover timer can schedule the
  /// completion that follows it.
  double next_live_event_time() const {
    return queue_.first_live_time(
        [this](const Event& e) { return derived().event_dead(e); });
  }

  /// Retires job `id`, which must have an outcome and be the window's
  /// base() or a spilled job: every queued event still naming it is dead
  /// from here on, and its slot is free for a later admission. Read what the
  /// caller keeps of the job (job(id), job_state()) before retiring it.
  void retire(JobId id) {
    SJS_CHECK_MSG(!in_callback_, "retire inside a scheduler callback");
    jobs_.retire(id);
  }

  /// Fast-forwards through every remaining event (drain: the simulated
  /// backlog is resolved immediately in virtual time), harvests and returns
  /// the result, and leaves live mode. A run that retired jobs reports
  /// aggregates only (its per-job vectors stay empty: the retiring caller
  /// consumed each job's outcome). The reference stays valid until the
  /// engine runs again or is destroyed.
  const Result& finish_live() {
    SJS_CHECK_MSG(live_ && !in_callback_, "finish_live outside live mode");
    drain_events();
    const Result& result = derived().harvest_result();
    live_ = false;
    return result;
  }

  bool live_mode() const { return live_; }

  /// What bound schedulers size their per-job structures for in on_start():
  /// the static job count on replay runs, or the reserve_live() pre-size in
  /// a live session (where job_count() is still 0 at start).
  std::size_t job_capacity_hint() const {
    return std::max(job_count(), live_reserve_);
  }

  // --- Query surface (online-observable only) --------------------------------

  double now() const { return now_; }
  /// The record of an unretired job (release, workload, deadline, value).
  const Job& job(JobId id) const { return jobs_.job(id); }
  /// Jobs admitted so far (the instance size on a batch run).
  std::size_t job_count() const { return static_cast<std::size_t>(jobs_.end()); }
  /// Remaining workload of a released job (exact as of the last event).
  double remaining(JobId id) const {
    SJS_CHECK_MSG(is_released(id), "remaining() on unreleased job " << id);
    return jobs_.remaining(id);
  }
  bool is_released(JobId id) const {
    return jobs_.holds(id) && jobs_.released(id);
  }
  /// A job is live if released, not completed, not expired, and not
  /// retired.
  bool is_live(JobId id) const {
    return is_released(id) && jobs_.outcome(id) == JobOutcome::kPending;
  }

  /// The job window backing every per-job lane. Schedulers own their lanes
  /// (V-Dover's Qedf metadata / 0cl timers / flags, EDF-AC's admission
  /// scratch), and a serving session its reply routes, through this
  /// reference; the ground-truth lanes (remaining, outcome, released) are
  /// engine-owned — schedulers must only read those, via the query surface
  /// above.
  JobTable& job_state() { return jobs_; }
  const JobTable& job_state() const { return jobs_; }

 protected:
  explicit LiveDriver(JobTable::Lanes lanes = JobTable::Lanes::kAll)
      : jobs_(lanes) {}
  ~LiveDriver() = default;

  /// Pops and handles every queued event (the tail of every run).
  void drain_events() {
    while (!queue_.empty()) derived().step_event();
  }

  /// Per-job ground truth + scheduler lanes, one window.
  JobTable jobs_;
  /// Batch releases and expiries (and sim::Engine's capacity changes) go to
  /// the queue's sealed static side; completions, timers and every live
  /// admission's events to its volatile heap.
  SplitEventQueue<Event> queue_;
  double now_ = 0.0;
  std::uint64_t next_seq_ = 0;  // FIFO tie-break within one (time, type)
  bool in_callback_ = false;    // inside a scheduler callback
  bool live_ = false;           // between begin_live and finish_live
  /// A run started (batch or live) since construction or the engine's last
  /// rewind; begin_live refuses a second one.
  bool run_started_ = false;
  std::size_t live_reserve_ = 0;  // reserve_live() pre-size (capacity hint)

 private:
  Derived& derived() { return static_cast<Derived&>(*this); }
  const Derived& derived() const { return static_cast<const Derived&>(*this); }
};

}  // namespace sjs::sim
