#include "cloud/multi_engine.hpp"

#include <algorithm>
#include <limits>

#include "util/logging.hpp"
#include "util/vec.hpp"

namespace sjs::cloud {

MultiEngine::MultiEngine(const std::vector<Job>& jobs,
                         std::vector<cap::CapacityProfile> servers,
                         GlobalScheduler& scheduler)
    : source_(&jobs), servers_(std::move(servers)), scheduler_(&scheduler) {
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
  jobs_.bind(jobs);
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
  return jobs_.remaining(id);
}

bool MultiEngine::is_released(JobId id) const {
  return jobs_.holds(id) && jobs_.released(id);
}

bool MultiEngine::is_live(JobId id) const {
  return is_released(id) && jobs_.outcome(id) == sim::JobOutcome::kPending;
}

std::size_t MultiEngine::server_of(JobId id) const {
  SJS_CHECK(id != kNoJob);
  for (std::size_t s = 0; s < running_.size(); ++s) {
    if (running_[s] == id) return s;
  }
  return kNoServer;
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
      double& rem = jobs_.remaining(jid);
      rem = std::max(0.0, rem - executed);
      result_.executed_total += executed;
      result_.busy_time_per_server[s] += t - last_advance_;
    }
  }
  last_advance_ = t;
}

void MultiEngine::halt_server(std::size_t server) {
  running_[server] = kNoJob;
  ++epochs_[server];
}

void MultiEngine::schedule_completion(std::size_t server) {
  const JobId jid = running_[server];
  if (jid == kNoJob) return;
  const Job& j = job(jid);
  const double rem = jobs_.remaining(jid);
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
  const std::size_t current = server_of(id);
  if (current != kNoServer) {
    trace(obs::TraceKind::kMigrate, id, server, static_cast<double>(current),
          static_cast<double>(server));
    halt_server(current);
    ++result_.migrations;
  }
  // Preempt the incumbent on the target server.
  if (running_[server] != kNoJob) {
    if (jobs_.remaining(running_[server]) > 0.0) {
      ++result_.preemptions;
      trace(obs::TraceKind::kPreempt, running_[server], server,
            jobs_.remaining(running_[server]));
    }
    halt_server(server);
  } else {
    ++epochs_[server];
  }
  running_[server] = id;
  ++result_.dispatches;
  trace(obs::TraceKind::kDispatch, id, server, jobs_.remaining(id));
  schedule_completion(server);
}

void MultiEngine::idle(std::size_t server) {
  SJS_CHECK_MSG(in_callback_, "idle() outside a scheduler callback");
  SJS_CHECK(server < servers_.size());
  advance_all(now_);
  if (running_[server] != kNoJob && jobs_.remaining(running_[server]) > 0.0) {
    ++result_.preemptions;
    trace(obs::TraceKind::kPreempt, running_[server], server,
          jobs_.remaining(running_[server]));
  }
  halt_server(server);
  trace(obs::TraceKind::kIdle, kNoJob, server);
}

void MultiEngine::stop(JobId id) {
  SJS_CHECK_MSG(in_callback_, "stop() outside a scheduler callback");
  const std::size_t server = server_of(id);
  if (server != kNoServer) idle(server);
}

void MultiEngine::process_event(const Event& event) {
  now_ = std::max(now_, event.time);
  advance_all(now_);
  in_callback_ = true;
  switch (event.type) {
    case EventType::kCompletion: {
      if (event_dead(event)) break;  // stale
      SJS_CHECK_MSG(jobs_.remaining(event.job) <
                        sim::completion_residue_bound(job(event.job).workload),
                    "completion with work left");
      jobs_.remaining(event.job) = 0.0;
      jobs_.set_outcome(event.job, sim::JobOutcome::kCompleted);
      jobs_.set_completion(event.job, now_);
      halt_server(event.server);
      result_.completed_value += job(event.job).value;
      ++result_.completed_count;
      trace(obs::TraceKind::kComplete, event.job, event.server,
            job(event.job).value);
      scheduler_->on_complete(*this, event.job, event.server);
      break;
    }
    case EventType::kExpiry: {
      // Dead when the job already has an outcome, or was retired since (its
      // slot may hold a later job by now).
      if (event_dead(event)) break;
      jobs_.set_outcome(event.job, sim::JobOutcome::kExpired);
      ++result_.expired_count;
      const std::size_t server = server_of(event.job);
      if (server != kNoServer) halt_server(server);
      trace(obs::TraceKind::kExpire, event.job, server,
            jobs_.remaining(event.job), server != kNoServer ? 1.0 : 0.0);
      scheduler_->on_expire(*this, event.job, server);
      break;
    }
    case EventType::kRelease: {
      jobs_.set_released(event.job);
      const Job& j = job(event.job);
      trace(obs::TraceKind::kRelease, event.job, kNoServer, j.workload,
            j.deadline);
      scheduler_->on_release(*this, event.job);
      break;
    }
  }
  in_callback_ = false;
}

bool MultiEngine::event_dead(const Event& event) const {
  switch (event.type) {
    case EventType::kCompletion:
      return event.server == kNoServer ||
             event.epoch != epochs_[event.server] ||
             running_[event.server] != event.job;
    case EventType::kExpiry:
      return !jobs_.holds(event.job) ||
             jobs_.outcome(event.job) != sim::JobOutcome::kPending;
    case EventType::kRelease:
      return false;
  }
  return false;
}

void MultiEngine::harvest() {
  if (jobs_.retired() == 0) {
    // The window still holds every job of the run: report them per job.
    const std::size_t n = job_count();
    util::grow(result_.outcomes, n);
    util::grow(result_.executed_work, n);
    util::grow(result_.completion_times, n);
    for (std::size_t i = 0; i < n; ++i) {
      const auto id = static_cast<JobId>(i);
      result_.outcomes[i] = jobs_.outcome(id);
      result_.executed_work[i] = jobs_.job(id).workload - jobs_.remaining(id);
      result_.completion_times[i] = jobs_.completion(id);
    }
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
  queue_.clear();
  queue_.reserve(2 * job_count(), 0);
  for (JobId id = 0; id < jobs_.end(); ++id) schedule_job(id);
  queue_.seal();

  trace(obs::TraceKind::kRunStart, kNoJob, kNoServer,
        static_cast<double>(job_count()),
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
  // Live admissions append to the job vector: copy out any records the
  // window borrowed from it first.
  jobs_.own_records();
  result_ = MultiSimResult{};
  result_.scheduler_name = scheduler_->name();
  result_.busy_time_per_server.assign(servers_.size(), 0.0);
  // A live session normally starts empty, but admit any pre-loaded jobs so a
  // warm-started fleet behaves like the equivalent replay.
  for (JobId id = 0; id < jobs_.end(); ++id) schedule_job(id);
  queue_.seal();
  trace(obs::TraceKind::kRunStart, kNoJob, kNoServer,
        static_cast<double>(job_count()),
        static_cast<double>(servers_.size()));
  in_callback_ = true;
  scheduler_->on_start(*this);
  in_callback_ = false;
}

void MultiEngine::reserve_live(std::size_t max_in_flight) {
  live_reserve_ = max_in_flight;
  jobs_.reserve(max_in_flight);
  // A job spills only while unresolved, so the jobs in flight bound the
  // store (sim/job_table.hpp).
  jobs_.reserve_stragglers(max_in_flight);
  // A release and an expiry per in-flight job, plus one completion per
  // server.
  queue_.reserve(0, 2 * max_in_flight + servers_.size());
}

void MultiEngine::schedule_job(JobId id) {
  // Release-then-expiry push order per job, in id order, in every mode: the
  // relative seq order within every (time, type) class — the only thing the
  // tie-break reads — is the same live and in replay.
  const Job& j = jobs_.job(id);
  result_.generated_value += j.value;
  push_event(j.release, EventType::kRelease, id, kNoServer, 0);
  push_event(j.deadline, EventType::kExpiry, id, kNoServer, 0);
}

JobId MultiEngine::admit_live(const Job& job) {
  SJS_CHECK_MSG(live_ && !in_callback_, "admit_live outside live mode");
  SJS_CHECK_MSG(job.release >= now_ - 1e-12,
                "admit_live in the past: release " << job.release << " < now "
                    << now_);
  // Ids stay == admission order, exactly as the replayed Instance canonical
  // form requires. The window grows only when its unretired span outgrows
  // reserve_live's pre-size.
  const JobId id = jobs_.admit(job);
  schedule_job(id);
  return id;
}

void MultiEngine::admit_live(JobId id) {
  SJS_CHECK_MSG(id == jobs_.end() &&
                    static_cast<std::size_t>(id) < source_->size(),
                "admit_live out of order: job " << id << ", expected "
                    << jobs_.end());
  const Job& j = (*source_)[static_cast<std::size_t>(id)];
  SJS_CHECK_MSG(j.id == id, "job id out of sync with its position");
  admit_live(j);
}

void MultiEngine::retire(JobId id) {
  SJS_CHECK_MSG(!in_callback_, "retire inside a scheduler callback");
  jobs_.retire(id);
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

double MultiEngine::next_live_event_time() const {
  return queue_.first_live_time(
      [this](const Event& e) { return event_dead(e); });
}

const MultiSimResult& MultiEngine::finish_live() {
  SJS_CHECK_MSG(live_ && !in_callback_, "finish_live outside live mode");
  while (!queue_.empty()) process_event(queue_.pop());
  harvest();
  live_ = false;
  return result_;
}

void save_multi_outcomes_csv(const MultiSimResult& result,
                             const std::vector<Job>& jobs,
                             const std::string& path) {
  sim::save_outcomes_csv(result.outcomes, result.completion_times, jobs, path);
}

}  // namespace sjs::cloud
