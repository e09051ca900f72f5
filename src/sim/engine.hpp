// Discrete-event engine for preemptive deadline scheduling on a processor
// with time-varying capacity.
//
// The engine owns ground truth (the full capacity sample path, remaining
// workloads, job outcomes) and drives a Scheduler through interrupts. Because
// the capacity path is piecewise constant, the completion instant of the
// running job is computed *exactly* by inverting the cumulative-work function
// — there is no time-stepping and no accumulation of integration error.
//
// Event ordering at equal timestamps (see DESIGN.md §5):
//   Completion < Expiry < CapacityChange < Release < Timer
// so a job finishing exactly at its deadline succeeds, and a timer armed
// "now" during a release handler fires immediately after it.
//
// Stale events are handled by lazy invalidation. Each dispatch bumps an
// epoch counter recorded in completion events. Timers are kTimer events on
// the same volatile heap, and each one holds a slot of the engine's timer
// slab: its id is (generation << 32) | (slot + 1), and firing or cancelling a
// timer frees the slot and bumps the generation, so any event or handle still
// holding the old id sees a mismatched generation and is discarded in O(1).
// Dead events left queued by either mechanism are reclaimed lazily: when they
// outnumber the live events the volatile side is compacted in one O(n) pass.
// Both structures are therefore bounded by the number of *simultaneously
// pending* timers/dispatches, not by the totals over the run.
#pragma once

#include <cstdint>
#include <vector>

#include "capacity/capacity_profile.hpp"
#include "jobs/instance.hpp"
#include "obs/trace_sink.hpp"
#include "sim/job_table.hpp"
#include "sim/live_driver.hpp"
#include "sim/result.hpp"
#include "sim/scheduler.hpp"
#include "util/fp.hpp"

namespace sjs::sim {

enum class EngineEventType : std::uint8_t {
  // Declaration order IS the tie-break priority at equal timestamps.
  kCompletion = 0,
  kExpiry = 1,
  kCapacityChange = 2,
  kRelease = 3,
  kTimer = 4,
};

/// One queued Engine event (engine-internal; at namespace scope so that the
/// live-mode driver's queue can be declared before the engine).
struct EngineEvent {
  double time;
  EngineEventType type;
  std::uint64_t seq;     // FIFO tie-break within the same (time, type)
  JobId job = kNoJob;
  std::uint64_t id = 0;  // dispatch epoch (completion) or TimerId (timer)

  bool operator>(const EngineEvent& other) const {
    if (fp::exact_ne(time, other.time)) return time > other.time;
    if (type != other.type) return type > other.type;
    return seq > other.seq;
  }
};

class Engine : public LiveDriver<Engine, EngineEvent, SimResult> {
  friend class LiveDriver<Engine, EngineEvent, SimResult>;

 public:
  /// Binds the engine to an instance and a scheduler. Neither is owned; both
  /// must outlive the engine. A Scheduler instance must not be reused across
  /// runs (its internal queues would leak state); construct one per run and
  /// rebind with reset(scheduler) — the engine itself is reusable.
  Engine(const Instance& instance, Scheduler& scheduler);

  /// Runs the simulation to completion (all jobs completed or expired) and
  /// returns the result. The reference stays valid until the next
  /// run/reset; copy it (`SimResult r = engine.run_to_completion()`) to keep
  /// it longer. Returning a reference — not a value — is what lets a warmed
  /// engine replay with zero heap allocations (tests/hotpath_test.cpp).
  const SimResult& run_to_completion();

  /// Rewinds the engine for another run over the same instance with a fresh
  /// scheduler, keeping every allocation (remaining/outcome/release tables,
  /// event heap, timer slab) — the Monte-Carlo driver reuses one engine per
  /// run across all scheduler cells instead of reallocating each cell.
  ///
  /// The sealed static side (releases, expiries, and capacity changes when
  /// the scheduler wants them) is kept too: the next run_to_completion
  /// rewinds it instead of pushing and sorting 2n events again, as long as
  /// the instance's job count and the scheduler's wants_capacity_events()
  /// match the run that built it. begin_live(), a live append_job, or a
  /// flipped capacity flag rebuild it.
  ///
  /// The replayed event stream and every SimResult field are bit-identical
  /// to a freshly constructed engine's (asserted in tests/engine_test.cpp).
  /// The trace sink and record_schedule flag persist across resets; pass
  /// attach_trace(nullptr) to detach.
  void reset(Scheduler& scheduler);

  // --- Live mode (real-time admission serving, src/serve/) -----------------
  //
  // begin_live, reserve_live, admit_live, cancel_live, advance_to,
  // next_event_time, next_live_event_time, retire and finish_live come from
  // the live-mode driver (sim/live_driver.hpp), which documents the contract
  // once for both engines. Here begin_live also pushes capacity-change
  // interrupts when the scheduler wants them (every profile breakpoint: the
  // final deadline is unknown up front), and reserve_live sizes the timer
  // slab as well.

  /// Enables recording of the full execution timeline into
  /// SimResult::schedule (off by default; costs one slice append per
  /// dispatch change). Call before run_to_completion().
  void record_schedule(bool enabled) { record_schedule_ = enabled; }

  /// Attaches a trace sink (src/obs/) receiving every engine event as a
  /// typed record; nullptr detaches. The sink is not owned and must outlive
  /// the run. With no sink attached the recording path is a single null
  /// check per event. Call before run_to_completion().
  void attach_trace(obs::TraceSink* sink) { sink_ = sink; }
  bool trace_enabled() const { return sink_ != nullptr; }

  // --- Query surface available to schedulers (online-observable only) ---
  //
  // now(), job(), job_count(), remaining(), is_released(), is_live() and
  // job_state() come from the live-mode driver.

  /// Current instantaneous capacity (observable: c(τ) is known for τ <= now).
  /// Served from the monotone capacity cursor: amortized O(1).
  double current_rate() const { return cursor_.rate(now_); }
  /// The declared capacity band (known a priori to the algorithms).
  double c_lo() const { return instance_->c_lo(); }
  double c_hi() const { return instance_->c_hi(); }

  bool is_completed(JobId id) const;
  /// The job currently occupying the processor, or kNoJob.
  JobId running() const { return running_; }
  bool is_running(JobId id) const { return running_ == id; }

  /// Conservative laxity (Definition 5) of a live job at `now`, computed with
  /// the capacity estimate `c_est` (V-Dover passes c_lo; Dover passes ĉ).
  double claxity(JobId id, double c_est) const {
    return job(id).deadline - now_ - remaining(id) / c_est;
  }

  // --- Commands available to schedulers (only valid inside callbacks) ---

  /// Dispatches `id` (preempting whatever is running) or idles the processor
  /// when id == kNoJob. Dispatching the already-running job is a no-op.
  /// The job must be live. Preemption is free and resumable (paper Sec. II-A).
  void run(JobId id);

  /// Arms a timer that raises Scheduler::on_timer(job, tag) at time `t`
  /// (>= now; t == now fires after the current handler returns). The
  /// returned id encodes (slab slot, generation); it is invalidated — and
  /// its slot reclaimed — the moment the timer fires, is cancelled, or is
  /// swallowed because `job` died first.
  TimerId set_timer(double t, JobId job, int tag);

  /// Cancels a pending timer and frees its slab slot. Cancelling an
  /// already-fired or already-cancelled id is a harmless no-op (schedulers
  /// cancel lazily on preemption paths): the generation check rejects stale
  /// ids even after the slot was reused. A *corrupted* id — one whose slot
  /// index was never allocated — fails an SJS_CHECK loudly.
  void cancel_timer(TimerId id);

  // --- Hot-path occupancy introspection (tests, benches, gauges) ---

  /// Timers currently armed (timer slab slots in use).
  std::size_t live_timer_count() const {
    return timer_slots_.size() - free_timer_slots_.size();
  }
  /// Distinct slab slots ever allocated this run (bounded by the peak of
  /// live_timer_count, NOT by the total number of set_timer calls).
  std::size_t timer_slab_size() const { return timer_slots_.size(); }
  /// Events currently pending (static queue + volatile heap), dead ones
  /// included.
  std::size_t queued_event_count() const { return queue_.size(); }
  /// Dead events currently queued on the volatile side (stale completions
  /// and cancelled timers); lazy compaction keeps this at most
  /// max(kCompactionMinEvents, half the volatile side).
  std::size_t dead_event_count() const { return queue_.dead_count(); }

  /// Compaction is skipped below this heap size: tiny heaps make the dead
  /// fraction noisy and the O(n) pass isn't worth saving a few entries.
  static constexpr std::size_t kCompactionMinEvents = 64;

  /// Scheduler annotation channel: records an obs::TraceKind::kNote event
  /// (code from obs::NoteCode, plus a free payload) so algorithm-internal
  /// decisions are auditable from the trace. No-op without a sink.
  void note(JobId job, int code, double payload = 0.0) {
    trace(obs::TraceKind::kNote, job, static_cast<double>(code), payload);
  }

 private:
  using EventType = EngineEventType;
  using Event = EngineEvent;

  /// One timer slab slot; TimerId = (generation << 32) | (slot + 1).
  struct TimerSlot {
    std::uint32_t generation = 0;
    int tag = 0;
  };

  /// Records one trace event at `now_`; compiles to a null check when no
  /// sink is attached (the zero-cost disabled path).
  void trace(obs::TraceKind kind, JobId job, double a = 0.0, double b = 0.0) {
    if (sink_) sink_->record(obs::TraceEvent{now_, kind, job, -1, a, b});
  }

  void push_event(double time, EventType type, JobId job, std::uint64_t id);

  // Live-mode driver hooks (sim/live_driver.hpp).
  /// Adds job `id` (already in the window) to the live run: its value to
  /// the generated total, its release and expiry events to the queue.
  void schedule_job(JobId id);
  /// Pops and handles exactly one event (the body of the run loops).
  void step_event();
  /// Delivers an expiry of live job `id` at now_ (cancel_live).
  void expire_now(JobId id);
  /// Fills the end-of-run SimResult fields (per-job tables when the window
  /// still holds every job, occupancy stats, kRunEnd trace) shared by
  /// run_to_completion and finish_live.
  const SimResult& harvest_result();
  /// begin_live's own part: the pre-loaded jobs, the static side (every
  /// capacity breakpoint), on_start.
  void start_run();
  /// reserve_live's event-queue and timer-slab pre-sizes.
  void reserve_live_events(std::size_t max_in_flight);
  const std::vector<Job>& appended_jobs() const { return instance_->jobs(); }

  /// Dispatches one event to its handler (the switch shared by all modes).
  void process_event(const Event& event);
  /// Rewinds all per-run state (capacities of every container are kept) and
  /// the event queue: a reusable static side is rewound, any other cleared.
  void rewind();
  /// Pushes the instance's release and expiry events (plus the capacity
  /// changes up to the last deadline when `capacity_events`) onto an empty
  /// queue, seals it, and records what it was built for.
  void build_static_side(bool capacity_events);
  /// Whether `event` will pop as a no-op: a completion of an older dispatch
  /// (stale_completion), a cancelled timer (cancelled_timer), a timer or an
  /// expiry of a job that already has an outcome or was retired. Monotone:
  /// a dead event stays dead until it pops, and popping it queues nothing.
  bool event_dead(const Event& event) const;
  bool stale_completion(const Event& event) const {
    return event.type == EventType::kCompletion && event.id != dispatch_epoch_;
  }
  bool cancelled_timer(const Event& event) const {
    return event.type == EventType::kTimer && !timer_armed(event.id);
  }
  /// Whether job `id` has an outcome or was retired.
  bool resolved(JobId id) const {
    return !jobs_.holds(id) || jobs_.outcome(id) != JobOutcome::kPending;
  }
  /// Purges dead events once they outnumber the live ones (amortized O(1)
  /// per event; total order on events makes the rebuild order-neutral).
  /// Only the dead kinds that hold nothing are dropped — stale completions
  /// and cancelled timers; an armed timer of a resolved job still frees its
  /// slab slot when it pops.
  void maybe_compact_heap();
  /// Slab slot of a timer id; a corrupted id (slot never allocated) fails an
  /// SJS_CHECK.
  std::uint32_t timer_slot(TimerId id) const;
  /// Whether `id` is still armed: its generation is the slot's current one.
  bool timer_armed(TimerId id) const {
    return timer_slots_[timer_slot(id)].generation == (id >> 32);
  }
  /// Frees an armed timer's slot, bumping its generation so every copy of
  /// `id` goes stale, and returns the slot (its tag is still readable).
  const TimerSlot& free_timer(TimerId id);
  /// Brings the running job's remaining workload up to date at time `t`.
  void advance_execution(double t);
  /// Stops the running job (bookkeeping only; no scheduler callback).
  void halt_running();
  void handle_completion(const Event& event);
  void handle_expiry(const Event& event);
  void handle_release(const Event& event);
  void handle_timer(const Event& event);

  const Instance* instance_;
  Scheduler* scheduler_;

  double last_advance_ = 0.0;   // execution accounted up to this time
  JobId running_ = kNoJob;
  std::uint64_t dispatch_epoch_ = 0;
  /// A completion event for the current dispatch epoch is in the heap; used
  /// to count the event as dead the moment a preemption invalidates it.
  bool completion_pending_ = false;

  /// What the sealed static side was built for. run_to_completion reuses it
  /// after reset() while `jobs` and `capacity_events` still match;
  /// begin_live() clears `reusable`.
  struct StaticSideKey {
    bool reusable = false;
    std::size_t jobs = 0;
    bool capacity_events = false;
    std::uint64_t next_seq = 0;  // next_seq_ right after the seal
  };
  StaticSideKey static_key_;

  /// The timer slab: one slot per armed timer, recycled LIFO. A cancel only
  /// frees the slot; the queued kTimer event stays and pops as a dead event
  /// at its own (time, seq), because every popped event subdivides the
  /// running job's execution integral and dropping it early would move
  /// completion instants by ulps.
  std::vector<TimerSlot> timer_slots_;
  std::vector<std::uint32_t> free_timer_slots_;

  mutable cap::CapacityProfile::Cursor cursor_;  // mutable: amortized-O(1)
                                                 // lookups from const queries

  bool record_schedule_ = false;
  obs::TraceSink* sink_ = nullptr;
  SimResult result_;
};

}  // namespace sjs::sim
