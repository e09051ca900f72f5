#include "obs/invariants.hpp"

#include <algorithm>
#include <cmath>
#include <sstream>

#include "util/logging.hpp"
#include "util/fp.hpp"
#include "util/vec.hpp"

namespace sjs::obs {

// Deadline checks use the engines' own tolerance, sjs::deadline_eps
// (jobs/job.hpp, used by sim::completes_by_deadline in sim/result.hpp):
// completion instants are exact, deadlines computed independently, and
// within that ulp-scale band the two may disagree.

InvariantChecker::InvariantChecker(const Instance& instance, Options options)
    : instance_(&instance), options_(options) {
  const std::size_t n = instance.size();
  executed_.assign(n, 0.0);
  released_.assign(n, 0);
  completed_.assign(n, 0);
  expired_.assign(n, 0);
  zero_laxity_tested_.assign(n, 0);
}

void InvariantChecker::set_server_profiles(
    std::vector<cap::CapacityProfile> profiles) {
  server_profiles_ = std::move(profiles);
}

const cap::CapacityProfile& InvariantChecker::profile_for(
    std::int32_t server) const {
  if (server >= 0 && static_cast<std::size_t>(server) < server_profiles_.size()) {
    return server_profiles_[static_cast<std::size_t>(server)];
  }
  return instance_->capacity();
}

double InvariantChecker::work_tolerance(const Job& job) const {
  // Relative slack on the workload plus the work representable inside the
  // engine's deadline snap (a completion clamped to d can shave up to
  // c_hi * deadline_eps(d) of integrated work).
  return options_.tolerance * std::max(1.0, job.workload) +
         instance_->c_hi() * deadline_eps(job.deadline);
}

void InvariantChecker::fail(const TraceEvent& event, const std::string& what) {
  if (options_.throw_on_violation) {
    SJS_CHECK_MSG(false, "invariant violation at t=" << event.time << " ["
                                                     << kind_name(event.kind)
                                                     << "]: " << what);
  }
  if (violations_.size() < options_.max_violations) {
    // Failure path only: fires when an invariant is already broken, so the
    // zero-allocation steady-state claim is unaffected.
    util::append(violations_, InvariantViolation{what, event});
  } else {
    ++suppressed_violations_;
  }
}

void InvariantChecker::close_slice(std::int32_t server, double t,
                                   JobId expected) {
  const auto it = open_.find(server);
  if (it == open_.end()) {
    if (expected != kNoJob) {
      std::ostringstream os;
      os << "job " << expected << " stopped on server " << server
         << " but no execution slice was open";
      fail(TraceEvent{t, TraceKind::kIdle, expected, server, 0, 0}, os.str());
    }
    return;
  }
  const OpenSlice slice = it->second;
  open_.erase(it);
  if (expected != kNoJob && slice.job != expected) {
    std::ostringstream os;
    os << "expected job " << expected << " on server " << server
       << " but slice holds job " << slice.job;
    fail(TraceEvent{t, TraceKind::kIdle, expected, server, 0, 0}, os.str());
  }
  const Job& job = instance_->job(slice.job);
  // I3: the slice must lie inside [r_i, d_i].
  if (slice.start < job.release - deadline_eps(job.release)) {
    std::ostringstream os;
    os << "job " << slice.job << " executed before its release (slice start "
       << slice.start << " < r=" << job.release << ")";
    fail(TraceEvent{t, TraceKind::kDispatch, slice.job, server, 0, 0},
         os.str());
  }
  if (t > job.deadline + deadline_eps(job.deadline)) {
    std::ostringstream os;
    os << "job " << slice.job << " executed past its deadline (slice end " << t
       << " > d=" << job.deadline << ")";
    fail(TraceEvent{t, TraceKind::kDispatch, slice.job, server, 0, 0},
         os.str());
  }
  executed_[static_cast<std::size_t>(slice.job)] +=
      profile_for(server).work(std::max(0.0, slice.start), std::max(0.0, t));
}

void InvariantChecker::check_release(const TraceEvent& event) {
  const auto idx = static_cast<std::size_t>(event.job);
  if (event.job < 0 || idx >= released_.size()) {
    fail(event, "release of unknown job id");
    return;
  }
  if (released_[idx]) {
    fail(event, "job released twice");
    return;
  }
  released_[idx] = 1;
  const Job& job = instance_->job(event.job);
  // I2: releases happen at r_i.
  if (std::abs(event.time - job.release) > deadline_eps(job.release)) {
    std::ostringstream os;
    os << "job " << event.job << " released at " << event.time
       << " but r=" << job.release;
    fail(event, os.str());
  }
}

void InvariantChecker::check_dispatch(const TraceEvent& event) {
  const auto idx = static_cast<std::size_t>(event.job);
  if (event.job < 0 || idx >= released_.size()) {
    fail(event, "dispatch of unknown job id");
    return;
  }
  if (!released_[idx]) fail(event, "dispatch of an unreleased job");
  if (completed_[idx]) fail(event, "dispatch of a completed job");
  if (expired_[idx]) fail(event, "dispatch of an expired job");
  const Job& job = instance_->job(event.job);
  if (event.time > job.deadline + deadline_eps(job.deadline)) {
    fail(event, "dispatch after the job's deadline");
  }
  // A dispatch displaces whatever ran before it on this server; the engine
  // emits kPreempt/kIdle first, so normally no slice is open here. Closing
  // unconditionally keeps the integration exact even for sink streams that
  // filter preempt records out.
  close_slice(event.server, event.time, kNoJob);
  open_[event.server] = OpenSlice{event.job, event.time};
}

void InvariantChecker::check_complete(const TraceEvent& event) {
  const auto idx = static_cast<std::size_t>(event.job);
  if (event.job < 0 || idx >= released_.size()) {
    fail(event, "completion of unknown job id");
    return;
  }
  // A completion interrupt can only come from the running job.
  close_slice(event.server, event.time, event.job);
  const Job& job = instance_->job(event.job);
  if (completed_[idx]) fail(event, "job completed twice");          // I6
  if (expired_[idx]) fail(event, "completion of an expired job");   // I6
  completed_[idx] = 1;
  ++completed_count_;
  value_sum_ += job.value;
  if (std::abs(event.a - job.value) > options_.tolerance) {
    std::ostringstream os;
    os << "completion value payload " << event.a << " != v=" << job.value;
    fail(event, os.str());
  }
  // I4: the job received exactly p_i, by our own integration.
  const double got = executed_[idx];
  if (std::abs(got - job.workload) > work_tolerance(job)) {
    std::ostringstream os;
    os << "job " << event.job << " completed with integrated work " << got
       << " != p=" << job.workload;
    fail(event, os.str());
  }
  if (event.time > job.deadline + deadline_eps(job.deadline)) {
    fail(event, "completion after the deadline");
  }
}

void InvariantChecker::check_expire(const TraceEvent& event) {
  const auto idx = static_cast<std::size_t>(event.job);
  if (event.job < 0 || idx >= released_.size()) {
    fail(event, "expiry of unknown job id");
    return;
  }
  if (completed_[idx]) fail(event, "expiry of a completed job");  // I6
  if (expired_[idx]) fail(event, "job expired twice");
  expired_[idx] = 1;
  const bool was_running = !fp::is_zero(event.b);
  if (was_running) {
    close_slice(event.server, event.time, event.job);
  }
  const Job& job = instance_->job(event.job);
  if (std::abs(event.time - job.deadline) > deadline_eps(job.deadline)) {
    std::ostringstream os;
    os << "job " << event.job << " expired at " << event.time
       << " but d=" << job.deadline;
    fail(event, os.str());
  }
  // An expired job must not have received its full workload (it would have
  // completed): allow equality within tolerance for the deadline-snap case.
  if (executed_[idx] > job.workload + work_tolerance(job)) {
    fail(event, "expired job received more than its workload");
  }
}

void InvariantChecker::check_note(const TraceEvent& event) {
  const auto code = static_cast<int>(event.a);
  const auto idx = static_cast<std::size_t>(event.job);
  if (event.job < 0 || idx >= zero_laxity_tested_.size()) return;
  switch (code) {
    case kNoteZeroLaxityTest:
      zero_laxity_tested_[idx] = 1;
      break;
    case kNoteSupplement:
    case kNoteAbandon:
    case kNoteOclScheduled:
      // I9: the 0cl outcome labels are only ever applied to a job that went
      // through the value test.
      if (!zero_laxity_tested_[idx]) {
        std::ostringstream os;
        os << "job " << event.job << " labelled "
           << (code == kNoteSupplement
                   ? "supplement"
                   : code == kNoteAbandon ? "abandoned" : "0cl-scheduled")
           << " without a zero-laxity value test";
        fail(event, os.str());
      }
      break;
    default:
      break;
  }
}

void InvariantChecker::check_run_end(const TraceEvent& event) {
  run_ended_ = true;
  // I7: value accounting.
  const double value_tol =
      options_.tolerance * std::max(1.0, instance_->total_value());
  if (std::abs(value_sum_ - event.a) > value_tol) {
    std::ostringstream os;
    os << "engine reports completed value " << event.a
       << " but observed completions sum to " << value_sum_;
    fail(event, os.str());
  }
  if (std::abs(instance_->total_value() - event.b) > value_tol) {
    std::ostringstream os;
    os << "engine reports generated value " << event.b
       << " but the instance totals " << instance_->total_value();
    fail(event, os.str());
  }
  // Every job must have been released and reached a terminal state.
  for (std::size_t i = 0; i < released_.size(); ++i) {
    if (!released_[i]) {
      std::ostringstream os;
      os << "job " << i << " was never released";
      fail(event, os.str());
    }
    if (!completed_[i] && !expired_[i]) {
      std::ostringstream os;
      os << "job " << i << " reached no terminal state";
      fail(event, os.str());
    }
  }
  // I5: conservation against the capacity supply (single-server stream; a
  // multi-server stream bounds against the sum of server supplies).
  double supply = 0.0;
  if (server_profiles_.empty()) {
    supply = instance_->capacity().work(0.0, event.time);
  } else {
    for (const auto& profile : server_profiles_) {
      supply += profile.work(0.0, event.time);
    }
  }
  const double total = total_executed();
  if (total > supply * (1.0 + options_.tolerance) + options_.tolerance) {
    std::ostringstream os;
    os << "executed work " << total << " exceeds capacity supply " << supply;
    fail(event, os.str());
  }
}

void InvariantChecker::record(const TraceEvent& event) {
  ++events_seen_;
  // I1: monotone time.
  if (event.time < last_time_ - 1e-12) {
    std::ostringstream os;
    os << "time moved backwards: " << event.time << " after " << last_time_;
    fail(event, os.str());
  }
  last_time_ = std::max(last_time_, event.time);

  switch (event.kind) {
    case TraceKind::kRunStart:
      if (static_cast<std::size_t>(event.a) != instance_->size()) {
        fail(event, "run_start job count does not match the instance");
      }
      break;
    case TraceKind::kRelease:
      check_release(event);
      break;
    case TraceKind::kDispatch:
      check_dispatch(event);
      break;
    case TraceKind::kPreempt:
      close_slice(event.server, event.time, event.job);
      break;
    case TraceKind::kIdle:
      close_slice(event.server, event.time, kNoJob);
      break;
    case TraceKind::kComplete:
      check_complete(event);
      break;
    case TraceKind::kExpire:
      check_expire(event);
      break;
    case TraceKind::kTimer:
      break;
    case TraceKind::kCapacityChange: {
      // I8: the reported rate is the true sample-path rate. Only checkable
      // against the instance path on single-server streams.
      if (server_profiles_.empty()) {
        const double truth = instance_->capacity().rate(event.time);
        if (std::abs(event.a - truth) > options_.tolerance) {
          std::ostringstream os;
          os << "capacity_change reports rate " << event.a << " but c(t)="
             << truth;
          fail(event, os.str());
        }
      }
      break;
    }
    case TraceKind::kMigrate:
      // The job leaves its source server (a); the destination slice opens at
      // the kDispatch that follows.
      close_slice(static_cast<std::int32_t>(event.a), event.time, event.job);
      break;
    case TraceKind::kNote:
      check_note(event);
      break;
    case TraceKind::kRunEnd:
      check_run_end(event);
      break;
  }
}

void InvariantChecker::verify_executed_work(
    const std::vector<double>& reported) {
  if (reported.size() != executed_.size()) {
    fail(TraceEvent{last_time_, TraceKind::kRunEnd, kNoJob, -1, 0, 0},
         "executed_work size does not match the instance");
    return;
  }
  for (std::size_t i = 0; i < reported.size(); ++i) {
    const Job& job = instance_->job(static_cast<JobId>(i));
    if (std::abs(reported[i] - executed_[i]) > work_tolerance(job)) {
      std::ostringstream os;
      os << "engine reports " << reported[i] << " executed for job " << i
         << " but the trace integrates to " << executed_[i];
      fail(TraceEvent{last_time_, TraceKind::kRunEnd, static_cast<JobId>(i),
                      -1, 0, 0},
           os.str());
    }
  }
}

double InvariantChecker::executed(JobId job) const {
  SJS_CHECK(job >= 0 && static_cast<std::size_t>(job) < executed_.size());
  return executed_[static_cast<std::size_t>(job)];
}

double InvariantChecker::total_executed() const {
  double total = 0.0;
  for (double w : executed_) total += w;
  return total;
}

std::string InvariantChecker::report() const {
  std::ostringstream os;
  if (ok()) {
    os << "invariants OK (" << events_seen_ << " events, " << completed_count_
       << " completions";
    if (!run_ended_) os << ", stream truncated before run_end";
    os << ")";
    return os.str();
  }
  os << violations_.size() + suppressed_violations_
     << " invariant violation(s):\n";
  for (const auto& violation : violations_) {
    os << "  t=" << violation.event.time << " ["
       << kind_name(violation.event.kind) << "] " << violation.what << "\n";
  }
  if (suppressed_violations_ > 0) {
    os << "  ... and " << suppressed_violations_ << " more\n";
  }
  return os.str();
}

}  // namespace sjs::obs
