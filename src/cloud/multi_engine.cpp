#include "cloud/multi_engine.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "util/csv.hpp"
#include "util/logging.hpp"
#include "util/vec.hpp"

namespace sjs::cloud {

MultiEngine::MultiEngine(const std::vector<Job>& jobs,
                         std::vector<cap::CapacityProfile> servers,
                         GlobalScheduler& scheduler)
    : jobs_(&jobs), servers_(std::move(servers)), scheduler_(&scheduler) {
  SJS_CHECK_MSG(!servers_.empty(), "need at least one server");
  cursors_.reserve(servers_.size());
  for (const cap::CapacityProfile& path : servers_) cursors_.emplace_back(path);
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    SJS_CHECK_MSG(jobs[i].id == static_cast<JobId>(i),
                  "jobs must be in Instance canonical form (id == position)");
    SJS_CHECK_MSG(i == 0 || jobs[i].release >= jobs[i - 1].release,
                  "jobs must be release-sorted");
  }
  running_.assign(servers_.size(), kNoJob);
  epochs_.assign(servers_.size(), 0);
  placement_.assign(jobs.size(), kNoServer);
  remaining_.resize(jobs.size());
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    remaining_[i] = jobs[i].workload;
  }
  outcomes_.assign(jobs.size(), sim::JobOutcome::kPending);
  released_.assign(jobs.size(), false);
}

void MultiEngine::push_event(double time, EventType type, JobId jid,
                             std::size_t server, std::uint64_t epoch) {
  const Event event{time, type, next_seq_++, jid, server, epoch};
  // Batch releases/expiries are all known up front: sealed static side.
  // Completions, and everything in live mode, go to the heap.
  if (type == EventType::kCompletion || live_) {
    queue_.push_volatile(event);
  } else {
    queue_.push_static(event);
  }
}

double MultiEngine::server_rate(std::size_t server) const {
  SJS_CHECK(server < servers_.size());
  return cursors_[server].rate(now_);
}

double MultiEngine::remaining(JobId id) const {
  SJS_CHECK_MSG(is_released(id), "remaining() on unreleased job " << id);
  return remaining_[static_cast<std::size_t>(id)];
}

bool MultiEngine::is_released(JobId id) const {
  return id >= 0 && static_cast<std::size_t>(id) < released_.size() &&
         released_[static_cast<std::size_t>(id)];
}

bool MultiEngine::is_live(JobId id) const {
  return is_released(id) &&
         outcomes_[static_cast<std::size_t>(id)] == sim::JobOutcome::kPending;
}

std::size_t MultiEngine::server_of(JobId id) const {
  SJS_CHECK(id >= 0 && static_cast<std::size_t>(id) < placement_.size());
  return placement_[static_cast<std::size_t>(id)];
}

JobId MultiEngine::running_on(std::size_t server) const {
  SJS_CHECK(server < servers_.size());
  return running_[server];
}

void MultiEngine::advance_all(double t) {
  SJS_CHECK_MSG(t >= last_advance_ - 1e-12, "time moved backwards");
  t = std::max(t, last_advance_);
  if (t > last_advance_) {
    for (std::size_t s = 0; s < servers_.size(); ++s) {
      const JobId jid = running_[s];
      if (jid == kNoJob) continue;
      const double executed = cursors_[s].work(last_advance_, t);
      auto& rem = remaining_[static_cast<std::size_t>(jid)];
      rem = std::max(0.0, rem - executed);
      result_.busy_time_per_server[s] += t - last_advance_;
    }
  }
  last_advance_ = t;
}

void MultiEngine::halt_server(std::size_t server) {
  const JobId jid = running_[server];
  if (jid != kNoJob) {
    placement_[static_cast<std::size_t>(jid)] = kNoServer;
    running_[server] = kNoJob;
  }
  ++epochs_[server];
}

void MultiEngine::schedule_completion(std::size_t server) {
  const JobId jid = running_[server];
  if (jid == kNoJob) return;
  const Job& j = job(jid);
  const double rem = remaining_[static_cast<std::size_t>(jid)];
  const double completion = cursors_[server].invert(now_, rem);
  if (sim::completes_by_deadline(completion, j, [&] {
        return rem - servers_[server].work(now_, j.deadline);
      })) {
    push_event(std::min(completion, j.deadline), EventType::kCompletion, jid,
               server, epochs_[server]);
  }
}

void MultiEngine::run_on(std::size_t server, JobId id) {
  SJS_CHECK_MSG(in_callback_, "run_on() outside a scheduler callback");
  SJS_CHECK(server < servers_.size());
  SJS_CHECK_MSG(is_live(id), "run_on() with non-live job " << id);
  advance_all(now_);
  if (running_[server] == id) return;

  // Migration: stop it wherever it currently runs.
  const std::size_t current = placement_[static_cast<std::size_t>(id)];
  if (current != kNoServer) {
    trace(obs::TraceKind::kMigrate, id, server, static_cast<double>(current),
          static_cast<double>(server));
    halt_server(current);
    ++result_.migrations;
  }
  // Preempt the incumbent on the target server.
  if (running_[server] != kNoJob) {
    if (remaining_[static_cast<std::size_t>(running_[server])] > 0.0) {
      ++result_.preemptions;
      trace(obs::TraceKind::kPreempt, running_[server], server,
            remaining_[static_cast<std::size_t>(running_[server])]);
    }
    halt_server(server);
  } else {
    ++epochs_[server];
  }
  running_[server] = id;
  placement_[static_cast<std::size_t>(id)] = server;
  ++result_.dispatches;
  trace(obs::TraceKind::kDispatch, id, server,
        remaining_[static_cast<std::size_t>(id)]);
  schedule_completion(server);
}

void MultiEngine::idle(std::size_t server) {
  SJS_CHECK_MSG(in_callback_, "idle() outside a scheduler callback");
  SJS_CHECK(server < servers_.size());
  advance_all(now_);
  if (running_[server] != kNoJob &&
      remaining_[static_cast<std::size_t>(running_[server])] > 0.0) {
    ++result_.preemptions;
    trace(obs::TraceKind::kPreempt, running_[server], server,
          remaining_[static_cast<std::size_t>(running_[server])]);
  }
  halt_server(server);
  trace(obs::TraceKind::kIdle, kNoJob, server);
}

void MultiEngine::stop(JobId id) {
  SJS_CHECK_MSG(in_callback_, "stop() outside a scheduler callback");
  const std::size_t server = placement_[static_cast<std::size_t>(id)];
  if (server != kNoServer) idle(server);
}

void MultiEngine::process_event(const Event& event) {
  now_ = std::max(now_, event.time);
  advance_all(now_);
  in_callback_ = true;
  switch (event.type) {
    case EventType::kCompletion: {
      if (event.server == kNoServer || event.epoch != epochs_[event.server] ||
          running_[event.server] != event.job) {
        break;  // stale
      }
      const auto idx = static_cast<std::size_t>(event.job);
      SJS_CHECK_MSG(remaining_[idx] <
                        sim::completion_residue_bound(job(event.job).workload),
                    "completion with work left");
      remaining_[idx] = 0.0;
      outcomes_[idx] = sim::JobOutcome::kCompleted;
      result_.completion_times[idx] = now_;
      halt_server(event.server);
      result_.completed_value += job(event.job).value;
      ++result_.completed_count;
      trace(obs::TraceKind::kComplete, event.job, event.server,
            job(event.job).value);
      scheduler_->on_complete(*this, event.job, event.server);
      break;
    }
    case EventType::kExpiry: {
      const auto idx = static_cast<std::size_t>(event.job);
      if (outcomes_[idx] != sim::JobOutcome::kPending) break;
      outcomes_[idx] = sim::JobOutcome::kExpired;
      ++result_.expired_count;
      const std::size_t server = placement_[idx];
      if (server != kNoServer) halt_server(server);
      trace(obs::TraceKind::kExpire, event.job, server, remaining_[idx],
            server != kNoServer ? 1.0 : 0.0);
      scheduler_->on_expire(*this, event.job, server);
      break;
    }
    case EventType::kRelease: {
      released_[static_cast<std::size_t>(event.job)] = true;
      const Job& j = job(event.job);
      trace(obs::TraceKind::kRelease, event.job, kNoServer, j.workload,
            j.deadline);
      scheduler_->on_release(*this, event.job);
      break;
    }
  }
  in_callback_ = false;
}

void MultiEngine::harvest() {
  result_.outcomes = outcomes_;
  util::grow(result_.executed_work, jobs_->size());
  for (std::size_t i = 0; i < jobs_->size(); ++i) {
    result_.executed_work[i] = (*jobs_)[i].workload - remaining_[i];
  }
  trace(obs::TraceKind::kRunEnd, kNoJob, kNoServer, result_.completed_value,
        result_.generated_value);
  if (sink_) sink_->flush();
}

MultiSimResult MultiEngine::run_to_completion() {
  SJS_CHECK_MSG(!live_, "run_to_completion during a live session");
  result_ = MultiSimResult{};
  result_.scheduler_name = scheduler_->name();
  result_.busy_time_per_server.assign(servers_.size(), 0.0);
  result_.completion_times.assign(jobs_->size(),
                                  std::numeric_limits<double>::quiet_NaN());
  queue_.clear();
  queue_.reserve(2 * jobs_->size(), 0);
  for (const Job& j : *jobs_) {
    result_.generated_value += j.value;
    push_event(j.release, EventType::kRelease, j.id, kNoServer, 0);
    push_event(j.deadline, EventType::kExpiry, j.id, kNoServer, 0);
  }
  queue_.seal();

  trace(obs::TraceKind::kRunStart, kNoJob, kNoServer,
        static_cast<double>(jobs_->size()),
        static_cast<double>(servers_.size()));

  in_callback_ = true;
  scheduler_->on_start(*this);
  in_callback_ = false;

  while (!queue_.empty()) process_event(queue_.pop());

  harvest();
  return result_;
}

// --- Live mode (real-time admission serving) --------------------------------

void MultiEngine::begin_live() {
  SJS_CHECK_MSG(!live_ && !in_callback_, "begin_live: already live");
  live_ = true;
  result_ = MultiSimResult{};
  result_.scheduler_name = scheduler_->name();
  result_.busy_time_per_server.assign(servers_.size(), 0.0);
  result_.completion_times.assign(jobs_->size(),
                                  std::numeric_limits<double>::quiet_NaN());
  // The fresh result dropped reserve_live()'s pre-size; restore it.
  result_.completion_times.reserve(job_capacity_hint());
  // A live session normally starts empty, but admit any pre-loaded jobs so a
  // warm-started fleet behaves like the equivalent replay.
  for (const Job& j : *jobs_) {
    result_.generated_value += j.value;
    push_event(j.release, EventType::kRelease, j.id, kNoServer, 0);
    push_event(j.deadline, EventType::kExpiry, j.id, kNoServer, 0);
  }
  queue_.seal();
  trace(obs::TraceKind::kRunStart, kNoJob, kNoServer,
        static_cast<double>(jobs_->size()),
        static_cast<double>(servers_.size()));
  in_callback_ = true;
  scheduler_->on_start(*this);
  in_callback_ = false;
}

void MultiEngine::reserve_live(std::size_t max_in_flight) {
  live_reserve_ = max_in_flight;
  placement_.reserve(max_in_flight);
  remaining_.reserve(max_in_flight);
  outcomes_.reserve(max_in_flight);
  released_.reserve(max_in_flight);
  result_.completion_times.reserve(max_in_flight);
  // A release and an expiry per in-flight job, plus one completion per
  // server.
  queue_.reserve(0, 2 * max_in_flight + servers_.size());
}

void MultiEngine::admit_live(JobId id) {
  SJS_CHECK_MSG(live_ && !in_callback_, "admit_live outside live mode");
  SJS_CHECK_MSG(static_cast<std::size_t>(id) == placement_.size(),
                "admit_live out of order: job " << id << ", expected "
                    << placement_.size());
  SJS_CHECK_MSG(static_cast<std::size_t>(id) < jobs_->size(),
                "admit_live before the job was appended");
  const Job& j = job(id);
  SJS_CHECK_MSG(j.id == id, "job id out of sync with its position");
  SJS_CHECK_MSG(j.release >= now_ - 1e-12,
                "admit_live in the past: release " << j.release << " < now "
                    << now_);
  // Dense append: live ids stay == admission order, exactly as the replayed
  // Instance canonical form requires. Release-then-expiry push order per job
  // matches run_to_completion's loop, so relative seq order within every
  // (time, type) class — the only thing the tie-break reads — is identical.
  util::append(placement_, kNoServer);
  util::append(remaining_, j.workload);
  util::append(outcomes_, sim::JobOutcome::kPending);
  util::append(released_, false);
  result_.generated_value += j.value;
  util::append(result_.completion_times,
               std::numeric_limits<double>::quiet_NaN());
  push_event(j.release, EventType::kRelease, id, kNoServer, 0);
  push_event(j.deadline, EventType::kExpiry, id, kNoServer, 0);
}

bool MultiEngine::cancel_live(JobId id) {
  SJS_CHECK_MSG(live_ && !in_callback_, "cancel_live outside live mode");
  if (!is_live(id)) return false;
  // Deliver an ordinary expiry interrupt at the current instant; the job's
  // original expiry event stays queued and later pops as a no-op.
  advance_all(now_);
  process_event(Event{now_, EventType::kExpiry, next_seq_++, id, kNoServer, 0});
  return true;
}

void MultiEngine::advance_to(double t) {
  SJS_CHECK_MSG(live_ && !in_callback_, "advance_to outside live mode");
  SJS_CHECK_MSG(t >= now_ - 1e-12,
                "advance_to moving backwards: " << t << " < " << now_);
  for (const Event* next = queue_.front(); next && next->time < t;
       next = queue_.front()) {
    process_event(queue_.pop());
  }
  now_ = std::max(now_, t);
  // last_advance_ deliberately stays at the last processed event: execution
  // integrals must be subdivided at event times only, exactly as replay
  // subdivides them, or remaining workloads drift by ulps.
}

double MultiEngine::next_event_time() const {
  const Event* next = queue_.front();
  return next ? next->time : std::numeric_limits<double>::infinity();
}

const MultiSimResult& MultiEngine::finish_live() {
  SJS_CHECK_MSG(live_ && !in_callback_, "finish_live outside live mode");
  while (!queue_.empty()) process_event(queue_.pop());
  harvest();
  live_ = false;
  return result_;
}

sim::JobOutcome MultiEngine::outcome(JobId id) const {
  SJS_CHECK(id >= 0 && static_cast<std::size_t>(id) < outcomes_.size());
  return outcomes_[static_cast<std::size_t>(id)];
}

void save_multi_outcomes_csv(const MultiSimResult& result,
                             const std::vector<Job>& jobs,
                             const std::string& path) {
  CsvWriter w(path);
  w.write_row({"id", "outcome", "completion", "value_collected"});
  for (std::size_t i = 0; i < result.outcomes.size(); ++i) {
    const char* outcome = "pending";
    double collected = 0.0;
    std::string completion;
    if (result.outcomes[i] == sim::JobOutcome::kCompleted) {
      outcome = "completed";
      collected = i < jobs.size() ? jobs[i].value : 0.0;
      if (i < result.completion_times.size() &&
          !std::isnan(result.completion_times[i])) {
        completion = format_double(result.completion_times[i]);
      }
    } else if (result.outcomes[i] == sim::JobOutcome::kExpired) {
      outcome = "expired";
    }
    w.write_row({std::to_string(i), outcome, completion,
                 format_double(collected)});
  }
}

}  // namespace sjs::cloud
