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
#include <filesystem>

#include "serve/session.hpp"
#include "util/logging.hpp"

namespace sjs::serve {

template <typename Backend>
void Session<Backend>::begin(double epoch, obs::MetricsRegistry* metrics) {
  if (metrics) {
    // The metrics shard must belong to the serving thread: a shard worker
    // calls begin() on its own thread, never on the spawning one.
    shard_ = &metrics->local();
    trace_bridge_ = util::alloc_unique<obs::TraceMetricsBridge>(*shard_);
    tee_.add(trace_bridge_.get());
  }
  backend_.engine().attach_trace(&tee_);
  const auto n = static_cast<std::size_t>(backend_.config().max_in_flight);
  backend_.reserve(n);
  backend_.engine().reserve_live(n);
  routes_.reserve(n);
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
  engine.advance_to(std::max(bridge_.virtual_now(), engine.now()));
  dispatch_notifications();
}

template <typename Backend>
std::int64_t Session<Backend>::wait_us(std::int64_t cap_us) {
  const double next = backend_.engine().next_event_time();
  if (!std::isfinite(next)) return cap_us;
  // Rounded up, so the loop never wakes just before the event is due; kept
  // below an hour so a far-future event cannot overflow the conversion.
  const double us = std::min(
      std::ceil(std::max(0.0, bridge_.wall_until(next)) * 1e6), 3.6e9);
  const auto wait = static_cast<std::int64_t>(us);
  return cap_us >= 0 ? std::min(wait, cap_us) : wait;
}

template <typename Backend>
void Session<Backend>::dispatch_notifications() {
  // Index-based drain: the target never re-enters the sink, and clear() at
  // the end retains the queue's capacity for the next pump cycle.
  for (std::size_t i = 0; i < notifications_.size(); ++i) {
    const obs::TraceEvent ev = notifications_[i];
    const auto id = static_cast<std::size_t>(ev.job);
    if (id >= routes_.size()) continue;
    const Route& route = routes_[id];
    Message note;
    note.ticket = target_->ticket(ev.job);
    note.seq = route.seq;
    if (ev.kind == obs::TraceKind::kComplete) {
      ++stats_.completed;
      stats_.completed_value += ev.a;
      count(names_.completed);
      note.type = MsgType::kCompleted;
      note.a = ev.a;       // value collected
      note.b = ev.time;    // completion instant
    } else {
      if (route.cancelled) {
        // The client already got kCancelled; the forced expiry is internal.
        --stats_.in_flight;
        continue;
      }
      ++stats_.expired;
      count(names_.expired);
      note.type = MsgType::kExpired;
      note.b = ev.time;
    }
    --stats_.in_flight;
    target_->send(route.conn, route.gen, note);
  }
  notifications_.clear();
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
  const JobId id = backend_.append(verdict.job);
  engine.admit_live(id);
  Route route;
  route.conn = conn;
  route.gen = gen;
  route.seq = m.seq;
  // Growth-to-high-water: reserve(max_in_flight) in begin() covers the
  // steady state; only sessions exceeding that total keep growing.
  util::append(routes_, route);
  SJS_CHECK(routes_.size() == static_cast<std::size_t>(id) + 1);
  target_->admitted(id, m.ticket);
  ++stats_.in_flight;
  in_flight_peak_ = std::max(in_flight_peak_, stats_.in_flight);
  const Job& job = engine.job(id);
  if (journal_) {
    try {
      journal_->record_admit(job);
    } catch (const std::exception& e) {
      // The admit cannot be made durable, so the client must not see
      // ACCEPTED: withdraw the job, then fail the session.
      routes_[static_cast<std::size_t>(id)].cancelled = true;
      engine.cancel_live(id);
      fail_journal(conn, gen, r, e);
      return id;
    }
  }
  ++stats_.accepted;
  stats_.admitted_value += job.value;
  count(names_.accepted);
  r.type = MsgType::kAccepted;
  r.ticket = target_->ticket(id);
  r.a = job.release;
  target_->send(conn, gen, r);
  return id;
}

template <typename Backend>
void Session<Backend>::cancel(int conn, std::uint64_t gen, const Message& m,
                              JobId id) {
  Message r;
  r.seq = m.seq;
  r.ticket = m.ticket;
  auto& engine = backend_.engine();
  const auto slot = static_cast<std::size_t>(id);
  const bool known =
      id != kNoJob && slot < routes_.size() && !routes_[slot].cancelled;
  if (!known || !engine.cancel_live(id)) {
    r.type = MsgType::kCancelFailed;
    target_->send(conn, gen, r);
    return;
  }
  routes_[slot].cancelled = true;
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
void Session<Backend>::query(int conn, std::uint64_t gen, const Message& m,
                             JobId id) {
  Message r;
  r.type = MsgType::kQueryReply;
  r.seq = m.seq;
  r.ticket = m.ticket;
  if (id == kNoJob || static_cast<std::size_t>(id) >= routes_.size()) {
    r.code = static_cast<std::uint8_t>(JobState::kUnknown);
  } else {
    const auto& engine = backend_.engine();
    const JobState state = backend_.state(id);
    r.code = static_cast<std::uint8_t>(state);
    if (state == JobState::kRunning) {
      r.a = engine.remaining(id);
    } else if (state == JobState::kQueued) {
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
  if (shard_) {
    backend_.publish(result_, *shard_);
    shard_->set_gauge(names_.in_flight_peak,
                      static_cast<double>(in_flight_peak_));
  }
  if (journal_) {
    backend_.save_outcomes(result_, (std::filesystem::path(journal_->dir()) /
                                     "outcomes.csv").string());
    try {
      journal_->close();
    } catch (const std::exception& e) {
      if (journal_error_.empty()) journal_error_ = e.what();
    }
  }
  finalized_ = true;
}

}  // namespace sjs::serve
