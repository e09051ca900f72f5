#include "cloud/multi_engine.hpp"

#include <algorithm>

#include "util/logging.hpp"
#include "util/vec.hpp"

namespace sjs::cloud {

MultiEngine::MultiEngine(const std::vector<Job>& jobs,
                         std::vector<cap::CapacityProfile> servers,
                         GlobalScheduler& scheduler)
    // Engine lanes only: the dispatcher and the global schedulers keep their
    // own per-job state.
    : LiveDriver(sim::JobTable::Lanes::kEngine),
      source_(&jobs),
      servers_(std::move(servers)),
      scheduler_(&scheduler) {
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

const MultiSimResult& MultiEngine::harvest_result() {
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
  return result_;
}

MultiSimResult MultiEngine::run_to_completion() {
  SJS_CHECK_MSG(!live_, "run_to_completion during a live session");
  run_started_ = true;
  queue_.clear();
  queue_.reserve(2 * job_count(), 0);
  start_run();
  drain_events();
  return harvest_result();
}

// --- Live-mode driver hooks (sim/live_driver.hpp) ---------------------------

void MultiEngine::start_run() {
  result_ = MultiSimResult{};
  result_.scheduler_name = scheduler_->name();
  result_.busy_time_per_server.assign(servers_.size(), 0.0);
  for (JobId id = 0; id < jobs_.end(); ++id) schedule_job(id);
  queue_.seal();
  trace(obs::TraceKind::kRunStart, kNoJob, kNoServer,
        static_cast<double>(job_count()),
        static_cast<double>(servers_.size()));
  in_callback_ = true;
  scheduler_->on_start(*this);
  in_callback_ = false;
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

void MultiEngine::expire_now(JobId id) {
  advance_all(now_);
  process_event(Event{now_, EventType::kExpiry, next_seq_++, id, kNoServer, 0});
}

void save_multi_outcomes_csv(const MultiSimResult& result,
                             const std::vector<Job>& jobs,
                             const std::string& path) {
  sim::save_outcomes_csv(result.outcomes, result.completion_times, jobs, path);
}

}  // namespace sjs::cloud
