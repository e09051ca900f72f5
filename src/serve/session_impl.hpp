// Member definitions of serve::Session<Backend> (serve/session.hpp).
//
// Included only by the translation units that instantiate a backend
// explicitly — serve/server.cpp (LocalBackend) and
// cluster/cluster_server.cpp (cluster::FleetBackend) — so every front end
// links against one compiled copy per backend.
#pragma once

#include <algorithm>
#include <cmath>
#include <exception>
#include <limits>

#include "serve/session.hpp"
#include "sim/result.hpp"
#include "util/logging.hpp"

namespace sjs::serve {

template <typename Backend>
void Session<Backend>::begin_live(double epoch,
                                  obs::MetricsRegistry* metrics) {
  if (metrics) {
    // The metrics shard must belong to the serving thread: a shard worker
    // calls begin_live() on its own thread, never on the spawning one.
    shard_ = &metrics->local();
    trace_bridge_ = util::alloc_unique<obs::TraceMetricsBridge>(*shard_);
    tee_.add(trace_bridge_.get());
  }
  backend_.engine().attach_trace(&tee_);
  const auto n = static_cast<std::size_t>(backend_.config().max_in_flight);
  backend_.engine().reserve_live(n);
  if (journal_) journal_->reserve_held_rows(n);
  retired_.reserve(kRetiredTickets / 32);
  notifications_.reserve(n);
  backend_.engine().begin_live();
  bridge_.start_at(epoch);
}

template <typename Backend>
const std::string& Session<Backend>::journal_dir() const {
  static const std::string empty;
  return journal_ ? journal_->dir() : empty;
}

template <typename Backend>
std::vector<obs::TraceEvent> Session<Backend>::recent_trace() const {
  return ring_ ? ring_->events() : std::vector<obs::TraceEvent>{};
}

template <typename Backend>
StatsBody Session<Backend>::stats() const {
  StatsBody s = stats_;
  s.virtual_now = backend_.engine().now();
  return s;
}

template <typename Backend>
void Session<Backend>::pump() {
  auto& engine = backend_.engine();
  pumped_at_ = bridge_.virtual_now();
  engine.advance_to(std::max(pumped_at_, engine.now()));
  dispatch_notifications();
}

namespace detail {

/// Wall microseconds of a lead of `lead_s` seconds: rounded up, so the loop
/// never wakes just before the event is due, and kept below an hour, so a
/// far-future event cannot overflow the conversion.
inline std::int64_t lead_us(double lead_s) {
  return static_cast<std::int64_t>(
      std::min(std::ceil(std::max(0.0, lead_s) * 1e6), 3.6e9));
}

}  // namespace detail

template <typename Backend>
std::int64_t Session<Backend>::wait_us(std::int64_t cap_us) {
  wake_due_ = std::numeric_limits<double>::quiet_NaN();
  const auto& engine = backend_.engine();
  const double front = engine.next_event_time();
  if (!std::isfinite(front)) return cap_us;
  const auto capped = [cap_us](std::int64_t us) {
    return cap_us >= 0 ? std::min(us, cap_us) : us;
  };
  // One clock read: the live event's lead follows from the front's.
  const double front_lead = bridge_.wall_until(front);
  const double live = engine.next_live_event_time();
  std::int64_t wait = cap_us;  // only dead events queued: wait as if idle
  if (std::isfinite(live)) {
    const std::int64_t live_us =
        detail::lead_us(front_lead + (live - front) / bridge_.accel());
    wait = capped(live_us);
    if (wait == live_us) wake_due_ = live;
  }
  if (live > front &&
      (wait < 0 || wait > capped(detail::lead_us(front_lead)))) {
    count(names_.wake_dead_skipped);
  }
  return wait;
}

template <typename Backend>
void Session<Backend>::count_wakeup(std::int64_t waited_us, int ready,
                                    std::uint64_t notified_before) {
  if (waited_us == 0) return;  // the loop did not sleep
  if (ready > 0) {
    count(names_.wake_socket);
    return;
  }
  count(names_.wake_timer);
  if (notified_ == notified_before) count(names_.wake_timer_empty);
  if (shard_ && !std::isnan(wake_due_)) {
    const double late_us =
        std::max(0.0, (pumped_at_ - wake_due_) / bridge_.accel() * 1e6);
    wake_late_.add(late_us);
    wake_late_max_ = std::max(wake_late_max_, late_us);
  }
}

template <typename Backend>
void Session<Backend>::dispatch_notifications() {
  // Index-based drain: the target never re-enters the sink, and clear() at
  // the end retains the queue's capacity for the next pump cycle.
  for (std::size_t i = 0; i < notifications_.size(); ++i) {
    const obs::TraceEvent ev = notifications_[i];
    if (!jobs().holds(ev.job)) continue;
    notify(ev);
    // A spilled job retires as soon as it resolves, so the straggler store
    // holds only jobs in flight.
    if (ev.job < jobs().base()) retire_job(ev.job);
  }
  notifications_.clear();
  retire_resolved();
}

template <typename Backend>
void Session<Backend>::notify(const obs::TraceEvent& ev) {
  ++notified_;
  --stats_.in_flight;
  const sim::ReplyRoute& route = jobs().route(ev.job);
  Message note;
  note.ticket = route.ticket;
  note.seq = route.seq;
  if (ev.kind == obs::TraceKind::kComplete) {
    ++stats_.completed;
    stats_.completed_value += ev.a;
    count(names_.completed);
    note.type = MsgType::kCompleted;
    note.a = ev.a;       // value collected
    note.b = ev.time;    // completion instant
  } else {
    // A cancelled job's client already got kCancelled; the forced expiry
    // is internal.
    if (route.cancelled) return;
    ++stats_.expired;
    count(names_.expired);
    note.type = MsgType::kExpired;
    note.b = ev.time;
  }
  target_->send(route.conn, route.gen, note);
}

template <typename Backend>
void Session<Backend>::retire_resolved() {
  // Every job with an outcome had its notification dispatched before this
  // runs, so an outcome is what makes a job retirable.
  const sim::JobTable& window = jobs();
  while (window.span() > 0 &&
         window.outcome(window.base()) != sim::JobOutcome::kPending) {
    retire_job(window.base());
  }
}

template <typename Backend>
void Session<Backend>::retire_job(JobId id) {
  const sim::JobTable& window = jobs();
  const auto outcome = window.outcome(id);
  // The packed lane: 2 bits per wire ticket, grown a word at a time
  // inside begin()'s reserve (doubling past it).
  const std::uint64_t ticket = window.route(id).ticket;
  const std::size_t word = ticket / 32;
  if (word >= retired_.size()) util::grow(retired_, word + 1);
  retired_[word] |=
      std::uint64_t{outcome == sim::JobOutcome::kCompleted ? 1u : 2u}
      << (2 * (ticket % 32));
  // Read what outcomes.csv keeps of the job, then free its engine slot.
  const double completion = window.completion(id);
  const double value = window.job(id).value;
  backend_.engine().retire(id);
  if (!journal_) return;
  try {
    // The journal holds the row while a spilled lower id is unresolved.
    journal_->record_outcome(id, outcome, completion, value);
  } catch (const std::exception& e) {
    // The outcome row could not be written: outcomes.csv can no longer
    // match a replay, so the session fails and drains.
    if (journal_error_.empty()) journal_error_ = e.what();
    request_drain();
  }
}

template <typename Backend>
JobId Session<Backend>::find(std::uint64_t ticket) const {
  // Tickets increase with the local id, and the unretired ids in order are
  // the spilled ones (all below the base) and then the ring's: binary
  // search that sequence.
  const sim::JobTable& window = jobs();
  const std::size_t spilled = window.straggler_count();
  const auto id_at = [&](std::size_t i) {
    return i < spilled ? window.straggler(i)
                       : window.base() + static_cast<JobId>(i - spilled);
  };
  std::size_t lo = 0;
  std::size_t hi = spilled + window.span();
  while (lo < hi) {
    const std::size_t mid = lo + (hi - lo) / 2;
    if (window.route(id_at(mid)).ticket < ticket) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  return lo < spilled + window.span() &&
                 window.route(id_at(lo)).ticket == ticket
             ? id_at(lo)
             : kNoJob;
}

template <typename Backend>
JobState Session<Backend>::retired_state(std::uint64_t ticket) const {
  const std::size_t word = ticket / 32;
  if (word >= retired_.size()) return JobState::kUnknown;
  const auto bits = (retired_[word] >> (2 * (ticket % 32))) & 3u;
  return bits == 1   ? JobState::kCompleted
         : bits == 2 ? JobState::kExpired
                     : JobState::kUnknown;
}

template <typename Backend>
JobId Session<Backend>::submit(int conn, std::uint64_t gen, const Message& m) {
  ++stats_.submitted;
  count(names_.submitted);
  Message r;
  r.seq = m.seq;
  auto& engine = backend_.engine();
  const AdmissionGate::Decision verdict =
      gate_.evaluate(m.a, m.b, m.c, bridge_.virtual_now(), engine.now(),
                     draining_, stats_.in_flight);
  if (verdict.reply == MsgType::kRejected) {
    ++stats_.rejected;
    count(names_.rejected);
    r.type = MsgType::kRejected;
    r.code = static_cast<std::uint8_t>(verdict.reason);
    target_->send(conn, gen, r);
    return kNoJob;
  }
  if (verdict.reply == MsgType::kShed) {
    ++stats_.shed;
    count(names_.shed);
    r.type = MsgType::kShed;
    target_->send(conn, gen, r);
    return kNoJob;
  }
  // Journal first: a job whose row cannot be made durable is never
  // admitted, so nothing of it can run or notify.
  Job job = verdict.job;
  job.id = jobs().end();
  if (journal_) {
    try {
      journal_->record_admit(job);
    } catch (const std::exception& e) {
      fail_journal(conn, gen, r, e);
      return kNoJob;
    }
  }
  // A full window spills its base job, which must then be unresolved (the
  // gate's in-flight cap is what bounds the straggler store): retire the
  // resolved ones a previous spill exposed first. The admitted job's route
  // starts fresh.
  if (jobs().span() == jobs().capacity()) retire_resolved();
  const JobId id = engine.admit_live(job);
  sim::ReplyRoute& route = jobs().route(id);
  route.conn = conn;
  route.gen = gen;
  route.seq = m.seq;
  route.ticket = target_->ticket_for(id, m.ticket);
  ++stats_.in_flight;
  in_flight_peak_ = std::max(in_flight_peak_, stats_.in_flight);
  ++stats_.accepted;
  stats_.admitted_value += job.value;
  count(names_.accepted);
  r.type = MsgType::kAccepted;
  r.ticket = route.ticket;
  r.a = job.release;
  r.c = job.value;  // not on the wire; the sharded acceptor's stats read it
  target_->send(conn, gen, r);
  return id;
}

template <typename Backend>
void Session<Backend>::cancel(int conn, std::uint64_t gen, const Message& m) {
  Message r;
  r.seq = m.seq;
  r.ticket = m.ticket;
  auto& engine = backend_.engine();
  // A retired ticket is not found: its job has an outcome, so the cancel
  // fails exactly as it would have before retirement.
  const JobId id = find(m.ticket);
  if (id == kNoJob || jobs().route(id).cancelled || !engine.cancel_live(id)) {
    r.type = MsgType::kCancelFailed;
    target_->send(conn, gen, r);
    return;
  }
  jobs().route(id).cancelled = true;
  ++stats_.cancelled;
  count(names_.cancelled);
  if (journal_) {
    try {
      journal_->record_cancel(engine.now(), id);
    } catch (const std::exception& e) {
      // The cancel took effect in the engine but is not durable: the
      // journal replay would disagree with the live session.
      fail_journal(conn, gen, r, e);
      return;
    }
  }
  r.type = MsgType::kCancelled;
  target_->send(conn, gen, r);
  // cancel_live raised a kExpire notification; translate it now so the
  // in-flight count is current before the next admission decision.
  dispatch_notifications();
}

template <typename Backend>
void Session<Backend>::query(int conn, std::uint64_t gen, const Message& m) {
  Message r;
  r.type = MsgType::kQueryReply;
  r.seq = m.seq;
  r.ticket = m.ticket;
  const JobId id = find(m.ticket);
  if (id == kNoJob) {
    r.code = static_cast<std::uint8_t>(retired_state(m.ticket));
  } else {
    const auto& engine = backend_.engine();
    const sim::JobOutcome outcome = engine.job_state().outcome(id);
    const JobState state = outcome == sim::JobOutcome::kCompleted
                               ? JobState::kCompleted
                           : outcome == sim::JobOutcome::kExpired
                               ? JobState::kExpired
                           : engine.is_running(id) ? JobState::kRunning
                                                   : JobState::kQueued;
    r.code = static_cast<std::uint8_t>(state);
    if (outcome == sim::JobOutcome::kPending) {
      r.a = engine.is_released(id) ? engine.remaining(id)
                                   : engine.job(id).workload;
    }
  }
  target_->send(conn, gen, r);
}

template <typename Backend>
void Session<Backend>::fail_journal(int conn, std::uint64_t gen, Message r,
                                    const std::exception& e) {
  if (journal_error_.empty()) journal_error_ = e.what();
  r.type = MsgType::kError;
  r.code = static_cast<std::uint8_t>(ErrorCode::kJournalFailed);
  target_->send(conn, gen, r);
  dispatch_notifications();
  request_drain();
}

template <typename Backend>
void Session<Backend>::finalize() {
  SJS_CHECK_MSG(!finalized_, "Session::finalize called twice");
  // Drain = fast-forward: absent new arrivals the future of the simulation
  // is fully determined, so resolving the backlog now in virtual time yields
  // the same outcomes the session would have reached in real time.
  result_ = backend_.finish();
  dispatch_notifications();
  SJS_CHECK_MSG(jobs().span() + jobs().straggler_count() == 0,
                "drain left " << jobs().span() + jobs().straggler_count()
                              << " jobs unretired");
  if (shard_) {
    backend_.publish(result_, *shard_);
    shard_->set_gauge(names_.in_flight_peak,
                      static_cast<double>(in_flight_peak_));
    shard_->set_gauge(names_.window_peak, static_cast<double>(window_peak()));
    shard_->set_gauge(names_.window_slots,
                      static_cast<double>(window_slots()));
    shard_->set_gauge(names_.window_reserved,
                      static_cast<double>(window_reserved()));
    shard_->set_gauge(names_.window_stragglers,
                      static_cast<double>(window_stragglers()));
    shard_->set_gauge(names_.outcome_rows_held,
                      static_cast<double>(outcome_rows_held()));
    shard_->set_gauge(names_.outcome_ring_slots,
                      static_cast<double>(outcome_ring_slots()));
    if (wake_late_.total() > 0) {
      shard_->set_gauge(names_.wake_late_p50, wake_late_.quantile(0.50));
      shard_->set_gauge(names_.wake_late_p99, wake_late_.quantile(0.99));
      shard_->set_gauge(names_.wake_late_max, wake_late_max_);
    }
  }
  if (journal_) {
    try {
      journal_->close();
    } catch (const std::exception& e) {
      if (journal_error_.empty()) journal_error_ = e.what();
    }
  }
  finalized_ = true;
}

}  // namespace sjs::serve
