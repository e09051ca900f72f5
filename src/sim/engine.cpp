#include "sim/engine.hpp"

#include <algorithm>

#include "util/logging.hpp"
#include "util/fp.hpp"
#include "util/vec.hpp"

namespace sjs::sim {

Engine::Engine(const Instance& instance, Scheduler& scheduler)
    : instance_(&instance),
      scheduler_(&scheduler),
      cursor_(instance.capacity()) {
  rewind();
}

void Engine::reset(Scheduler& scheduler) {
  scheduler_ = &scheduler;
  rewind();
}

void Engine::rewind() {
  now_ = 0.0;
  last_advance_ = 0.0;
  running_ = kNoJob;
  dispatch_epoch_ = 0;
  completion_pending_ = false;

  jobs_.bind(instance_->jobs());

  if (static_key_.reusable) {
    queue_.rewind();
    next_seq_ = static_key_.next_seq;
  } else {
    queue_.clear();
    next_seq_ = 0;
  }
  run_started_ = false;
  timer_slots_.clear();
  free_timer_slots_.clear();
  cursor_.reset();
  in_callback_ = false;
  live_ = false;
}

void Engine::push_event(double time, EventType type, JobId jid,
                        std::uint64_t id) {
  SJS_CHECK_MSG(type != EventType::kTimer,
                "timer events are armed through set_timer, not push_event");
  const Event event{time, type, next_seq_++, jid, id};
  // Live-admitted releases/expiries arrive after the static side was sealed,
  // so they use the heap; side placement never changes the merged pop order.
  if (type == EventType::kCompletion ||
      (live_ && (type == EventType::kRelease || type == EventType::kExpiry))) {
    queue_.push_volatile(event);
  } else {
    queue_.push_static(event);
  }
  queue_.track_peak();
}

bool Engine::event_dead(const Event& event) const {
  switch (event.type) {
    case EventType::kCompletion:
      return stale_completion(event);
    case EventType::kExpiry:
      return resolved(event.job);
    case EventType::kTimer:
      // A timer of a job not yet released is live: the release may come
      // first.
      return cancelled_timer(event) ||
             (event.job != kNoJob && resolved(event.job));
    case EventType::kCapacityChange:
    case EventType::kRelease:
      return false;
  }
  return false;
}

void Engine::maybe_compact_heap() {
  const std::size_t volatile_size = queue_.volatile_size();
  if (volatile_size < kCompactionMinEvents ||
      queue_.dead_count() * 2 <= volatile_size) {
    return;
  }
  // One pass drops stale completions and cancelled timers alike.
  queue_.purge([&](const Event& e) {
    return stale_completion(e) || cancelled_timer(e);
  });
  ++result_.heap_compactions;
}

std::uint32_t Engine::timer_slot(TimerId id) const {
  const std::uint64_t slot_plus_one = id & 0xffffffffull;
  SJS_CHECK_MSG(slot_plus_one >= 1 && slot_plus_one <= timer_slots_.size(),
                "corrupted TimerId " << id << " (slab has "
                    << timer_slots_.size() << " slots)");
  return static_cast<std::uint32_t>(slot_plus_one - 1);
}

const Engine::TimerSlot& Engine::free_timer(TimerId id) {
  const std::uint32_t slot = timer_slot(id);
  ++timer_slots_[slot].generation;
  // Free-list push: growth stops at the slab's high-water (reserve_live
  // pre-sizes it for live mode).
  util::append(free_timer_slots_, slot);
  return timer_slots_[slot];
}

bool Engine::is_completed(JobId id) const {
  SJS_CHECK_MSG(jobs_.holds(id), "is_completed() on job " << id
                                     << " outside the window");
  return jobs_.outcome(id) == JobOutcome::kCompleted;
}

void Engine::advance_execution(double t) {
  SJS_CHECK_MSG(t >= last_advance_ - 1e-12,
                "time moved backwards: " << t << " < " << last_advance_);
  t = std::max(t, last_advance_);
  if (running_ != kNoJob && t > last_advance_) {
    const double executed = cursor_.work(last_advance_, t);
    double& rem = jobs_.remaining(running_);
    rem = std::max(0.0, rem - executed);
    result_.busy_time += t - last_advance_;
    result_.executed_total += executed;
    if (record_schedule_) {
      // Extend the current slice if it continues the same job, else append.
      auto& schedule = result_.schedule;
      if (!schedule.empty() && schedule.back().job == running_ &&
          fp::exact_eq(schedule.back().end, last_advance_)) {
        schedule.back().end = t;
      } else {
        util::append(schedule, ExecutionSlice{last_advance_, t, running_});
      }
    }
  }
  last_advance_ = t;
}

void Engine::halt_running() {
  running_ = kNoJob;
  ++dispatch_epoch_;  // invalidates any in-flight completion event
  if (completion_pending_) {
    completion_pending_ = false;
    queue_.mark_dead();
  }
}

void Engine::run(JobId id) {
  SJS_CHECK_MSG(in_callback_, "Engine::run() outside a scheduler callback");
  advance_execution(now_);
  if (id == running_) return;

  if (running_ != kNoJob && jobs_.remaining(running_) > 0.0) {
    ++result_.preemptions;
    trace(obs::TraceKind::kPreempt, running_, jobs_.remaining(running_));
  }
  halt_running();
  if (id == kNoJob) {
    trace(obs::TraceKind::kIdle, kNoJob);
    return;
  }

  SJS_CHECK_MSG(is_live(id), "run() on non-live job " << id);
  running_ = id;
  ++result_.dispatches;
  trace(obs::TraceKind::kDispatch, id, jobs_.remaining(id));

  const Job& j = jobs_.job(id);
  const double rem = jobs_.remaining(id);
  const double completion = cursor_.invert(now_, rem);
  // A completion just past the deadline is clamped to it, so it sorts before
  // the expiry at the same timestamp. The profile's own work() keeps the
  // cursor off the deadline.
  if (completes_by_deadline(completion, j, [&] {
        return rem - instance_->capacity().work(now_, j.deadline);
      })) {
    push_event(std::min(completion, j.deadline), EventType::kCompletion, id,
               dispatch_epoch_);
    completion_pending_ = true;
  }
  // Otherwise the job cannot finish under the true capacity path from here;
  // the expiry event at its deadline will raise the failure interrupt (the
  // scheduler is free to preempt it earlier).
}

TimerId Engine::set_timer(double t, JobId jid, int tag) {
  SJS_CHECK_MSG(in_callback_, "set_timer() outside a scheduler callback");
  SJS_CHECK_MSG(t >= now_ - 1e-12, "timer in the past: " << t << " < " << now_);
  std::uint32_t slot;
  if (!free_timer_slots_.empty()) {
    slot = free_timer_slots_.back();
    free_timer_slots_.pop_back();
  } else {
    slot = static_cast<std::uint32_t>(timer_slots_.size());
    util::append(timer_slots_, TimerSlot{});
  }
  timer_slots_[slot].tag = tag;
  // The +1 keeps every id distinct from kNoTimer regardless of generation.
  const TimerId id =
      (static_cast<TimerId>(timer_slots_[slot].generation) << 32) |
      (slot + 1ull);
  // The one place a kTimer event is built: every queued timer carries a
  // slab-issued id, which is what lets cancel_timer leave it dead in O(1).
  queue_.push_volatile(
      Event{std::max(t, now_), EventType::kTimer, next_seq_++, jid, id});
  ++result_.timers_armed;
  result_.timer_slab_peak =
      std::max<std::uint64_t>(result_.timer_slab_peak, live_timer_count());
  queue_.track_peak();
  return id;
}

void Engine::cancel_timer(TimerId id) {
  if (id == kNoTimer) return;
  // O(1): frees the slab slot; the queued event stays and pops dead. Stale
  // ids are a tolerated no-op; corrupted ids fail the check in timer_slot.
  if (!timer_armed(id)) return;
  free_timer(id);
  queue_.mark_dead();
  maybe_compact_heap();
}

void Engine::handle_completion(const Event& event) {
  if (event.id != dispatch_epoch_ || event.job != running_) {  // stale
    queue_.unmark_dead();  // counted when the preemption invalidated it
    return;
  }
  completion_pending_ = false;
  // The inversion is exact; any residue is floating-point dust.
  const Job& j = jobs_.job(event.job);
  SJS_CHECK_MSG(jobs_.remaining(event.job) <
                    completion_residue_bound(j.workload),
                "completion event with " << jobs_.remaining(event.job)
                                         << " work left");
  jobs_.remaining(event.job) = 0.0;
  jobs_.set_outcome(event.job, JobOutcome::kCompleted);
  jobs_.set_completion(event.job, now_);
  halt_running();

  result_.completed_value += j.value;
  ++result_.completed_count;
  // The value-vs-time trace is a batch figure: a live session's would grow
  // by one point per completion.
  if (!live_) result_.value_trace.append(now_, result_.completed_value);
  trace(obs::TraceKind::kComplete, event.job, j.value);

  scheduler_->on_complete(*this, event.job);
}

void Engine::handle_expiry(const Event& event) {
  // Dead when the job already has an outcome, or was retired since (its
  // slot may hold a later job by now).
  if (!jobs_.holds(event.job) ||
      jobs_.outcome(event.job) != JobOutcome::kPending) {
    return;
  }
  jobs_.set_outcome(event.job, JobOutcome::kExpired);
  ++result_.expired_count;
  const bool was_running = (running_ == event.job);
  if (was_running) halt_running();
  trace(obs::TraceKind::kExpire, event.job, jobs_.remaining(event.job),
        was_running ? 1.0 : 0.0);
  scheduler_->on_expire(*this, event.job, was_running);
}

void Engine::handle_release(const Event& event) {
  jobs_.set_released(event.job);
  const Job& j = jobs_.job(event.job);
  trace(obs::TraceKind::kRelease, event.job, j.workload, j.deadline);
  scheduler_->on_release(*this, event.job);
}

void Engine::handle_timer(const Event& event) {
  if (!timer_armed(event.id)) {
    // Cancelled before firing: a dead event, counted when the cancel
    // happened. Popping it still advanced the clock — the digest-relevant
    // side effect a dead timer exists to preserve.
    queue_.unmark_dead();
    return;
  }
  // Fires exactly once: freeing the slot makes the id stale.
  const int tag = free_timer(event.id).tag;
  const JobId jid = event.job;
  // Guard: timers reference queue membership that only matters for live jobs;
  // a timer outliving its job (completed early, expired at the same instant,
  // or retired) must not resurrect it.
  if (jid != kNoJob && !is_live(jid)) return;
  trace(obs::TraceKind::kTimer, jid, static_cast<double>(tag));
  scheduler_->on_timer(*this, jid, tag);
}

void Engine::build_static_side(bool capacity_events) {
  static_key_.reusable = false;  // until the seal below
  queue_.clear();
  next_seq_ = 0;
  queue_.reserve(2 * instance_->size(), 0);
  for (const Job& j : instance_->jobs()) {
    push_event(j.release, EventType::kRelease, j.id, 0);
    push_event(j.deadline, EventType::kExpiry, j.id, 0);
  }
  if (capacity_events) {
    const double end = instance_->max_deadline();
    for (double bp : instance_->capacity().breakpoints()) {
      if (bp > 0.0 && bp <= end) {
        push_event(bp, EventType::kCapacityChange, kNoJob, 0);
      }
    }
  }
  queue_.seal();
  static_key_ = StaticSideKey{true, instance_->size(), capacity_events,
                              next_seq_};
}

const SimResult& Engine::run_to_completion() {
  SJS_CHECK_MSG(!run_started_,
                "run_to_completion needs a fresh engine or a reset() one");
  run_started_ = true;
  // clear() (not `result_ = SimResult{}`) keeps every per-job vector's
  // capacity, so a warmed engine's replay performs no result allocations.
  result_.clear();
  result_.scheduler_name = scheduler_->name();
  result_.generated_value = instance_->total_value();
  result_.value_trace.reserve(instance_->size());

  // reset() already rewound a static side built for this job count and
  // capacity flag; the instance is immutable apart from live appends, so its
  // events are this run's.
  const bool capacity_events = scheduler_->wants_capacity_events();
  if (!static_key_.reusable || static_key_.jobs != instance_->size() ||
      static_key_.capacity_events != capacity_events) {
    build_static_side(capacity_events);
  }

  trace(obs::TraceKind::kRunStart, kNoJob,
        static_cast<double>(instance_->size()));

  in_callback_ = true;
  scheduler_->on_start(*this);
  in_callback_ = false;

  drain_events();
  return harvest_result();
}

void Engine::process_event(const Event& event) {
  switch (event.type) {
    case EventType::kCompletion:
      handle_completion(event);
      break;
    case EventType::kExpiry:
      handle_expiry(event);
      break;
    case EventType::kCapacityChange:
      trace(obs::TraceKind::kCapacityChange, kNoJob, cursor_.rate(now_));
      scheduler_->on_capacity_change(*this);
      break;
    case EventType::kRelease:
      handle_release(event);
      break;
    case EventType::kTimer:
      handle_timer(event);
      break;
  }
}

// sjs-hot-path-root
void Engine::step_event() {
  const Event event = queue_.pop();
  now_ = std::max(now_, event.time);
  advance_execution(now_);
  ++result_.events_processed;

  in_callback_ = true;
  process_event(event);
  in_callback_ = false;
}

const SimResult& Engine::harvest_result() {
  if (jobs_.retired() == 0) {
    // The window still holds every job of the run: report them per job.
    const auto n = static_cast<std::size_t>(jobs_.end());
    util::grow(result_.outcomes, n);
    util::grow(result_.executed_work, n);
    util::grow(result_.completion_times, n);
    util::grow(result_.release_times, n);
    for (std::size_t i = 0; i < n; ++i) {
      const auto id = static_cast<JobId>(i);
      const Job& j = jobs_.job(id);
      result_.outcomes[i] = jobs_.outcome(id);
      result_.executed_work[i] = j.workload - jobs_.remaining(id);
      result_.completion_times[i] = jobs_.completion(id);
      result_.release_times[i] = j.release;
    }
  }
  result_.event_heap_peak = queue_.peak();
  result_.event_heap_dead_peak = queue_.dead_peak();
  result_.job_slab_peak = jobs_.span_peak();
  result_.job_slab_slots = jobs_.capacity();
  result_.timer_slab_slots = timer_slots_.size();
  const Scheduler::QueueStats queue_stats = scheduler_->queue_stats();
  result_.queue_peak = queue_stats.peak;
  result_.queue_slots = queue_stats.slots;
  trace(obs::TraceKind::kRunEnd, kNoJob, result_.completed_value,
        result_.generated_value);
  if (sink_) sink_->flush();
  return result_;
}

// --- Live-mode driver hooks (sim/live_driver.hpp) ---------------------------

void Engine::start_run() {
  // Live events join the queue after the seal, and the live static side
  // keeps every capacity breakpoint: nothing here is a batch run's.
  static_key_.reusable = false;
  result_.clear();
  result_.scheduler_name = scheduler_->name();
  for (JobId id = 0; id < jobs_.end(); ++id) schedule_job(id);
  if (scheduler_->wants_capacity_events()) {
    // All profile breakpoints: the final deadline is unknown up front. The
    // extras beyond the last admitted deadline fire with no live jobs and
    // change nothing — outcome equality with replay is unaffected.
    for (double bp : instance_->capacity().breakpoints()) {
      if (bp > 0.0) {
        push_event(bp, EventType::kCapacityChange, kNoJob, 0);
      }
    }
  }
  queue_.seal();

  trace(obs::TraceKind::kRunStart, kNoJob,
        static_cast<double>(instance_->size()));
  in_callback_ = true;
  scheduler_->on_start(*this);
  in_callback_ = false;
}

void Engine::schedule_job(JobId id) {
  const Job& j = jobs_.job(id);
  result_.generated_value += j.value;
  push_event(j.release, EventType::kRelease, id, 0);
  push_event(j.deadline, EventType::kExpiry, id, 0);
}

void Engine::expire_now(JobId id) {
  advance_execution(now_);
  const Event event{now_, EventType::kExpiry, next_seq_++, id, 0};
  ++result_.events_processed;
  in_callback_ = true;
  handle_expiry(event);
  in_callback_ = false;
}

void Engine::reserve_live_events(std::size_t max_in_flight) {
  // The static side only takes pre-loaded jobs and capacity breakpoints; live
  // releases/expiries and timers go to the volatile heap: a release, an
  // expiry and one timer per in-flight job, plus the running job's
  // completion.
  queue_.reserve(2 * instance_->size() +
                     instance_->capacity().breakpoints().size(),
                 3 * max_in_flight + 1);
  timer_slots_.reserve(max_in_flight);
  free_timer_slots_.reserve(max_in_flight);
}

}  // namespace sjs::sim
