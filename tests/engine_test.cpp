// Tests for the discrete-event engine: exact completion times under varying
// capacity, preemption/resume, deadline semantics, timers, event ordering,
// and accounting invariants.
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <functional>
#include <limits>
#include <optional>
#include <queue>
#include <random>
#include <utility>
#include <vector>

#include "capacity/capacity_profile.hpp"
#include "jobs/instance.hpp"
#include "jobs/workload_gen.hpp"
#include "obs/digest.hpp"
#include "obs/trace_sink.hpp"
#include "sched/factory.hpp"
#include "sim/engine.hpp"
#include "util/logging.hpp"
#include "util/rng.hpp"

namespace sjs::sim {
namespace {

Job make_job(double r, double p, double d, double v) {
  Job j;
  j.release = r;
  j.workload = p;
  j.deadline = d;
  j.value = v;
  return j;
}

/// Runs whatever was just released; re-dispatches nothing on completion.
/// Used to probe raw engine mechanics.
class RunOnReleaseScheduler : public Scheduler {
 public:
  void on_release(Engine& engine, JobId job) override { engine.run(job); }
  void on_complete(Engine&, JobId) override {}
  void on_expire(Engine&, JobId, bool) override {}
  std::string name() const override { return "run-on-release"; }
};

/// Work-conserving EDF-ish test scheduler that also logs every callback.
class LoggingScheduler : public Scheduler {
 public:
  void on_release(Engine& engine, JobId job) override {
    log_.push_back({'R', job, engine.now()});
    ready_.push_back(job);
    if (engine.running() == kNoJob) dispatch(engine);
  }
  void on_complete(Engine& engine, JobId job) override {
    log_.push_back({'C', job, engine.now()});
    dispatch(engine);
  }
  void on_expire(Engine& engine, JobId job, bool) override {
    log_.push_back({'X', job, engine.now()});
    std::erase(ready_, job);
    if (engine.running() == kNoJob) dispatch(engine);
  }
  void on_timer(Engine& engine, JobId job, int tag) override {
    log_.push_back({'T', job, engine.now()});
    last_timer_tag_ = tag;
  }
  std::string name() const override { return "logging"; }

  struct Entry {
    char kind;
    JobId job;
    double time;
  };
  std::vector<Entry> log_;
  int last_timer_tag_ = -1;

 private:
  void dispatch(Engine& engine) {
    while (!ready_.empty()) {
      JobId next = ready_.front();
      ready_.erase(ready_.begin());
      if (engine.is_live(next)) {
        engine.run(next);
        return;
      }
    }
  }
  std::vector<JobId> ready_;
};

TEST(Engine, SingleJobCompletesAtExactTime) {
  Instance instance({make_job(1.0, 4.0, 10.0, 5.0)},
                    cap::CapacityProfile(2.0));
  RunOnReleaseScheduler sched;
  Engine engine(instance, sched);
  auto result = engine.run_to_completion();
  EXPECT_EQ(result.completed_count, 1u);
  EXPECT_DOUBLE_EQ(result.completed_value, 5.0);
  // 4 units at rate 2 from t=1 -> completes at t=3.
  ASSERT_EQ(result.value_trace.size(), 1u);
  EXPECT_DOUBLE_EQ(result.value_trace.times()[0], 3.0);
}

TEST(Engine, CompletionSpansCapacityChangeExactly) {
  // Rate 1 on [0,10), then 35: a 12-unit job started at t=8 gets 2 units by
  // t=10 and the remaining 10 units in 10/35 time.
  Instance instance({make_job(8.0, 12.0, 100.0, 1.0)},
                    cap::CapacityProfile({0.0, 10.0}, {1.0, 35.0}));
  RunOnReleaseScheduler sched;
  Engine engine(instance, sched);
  auto result = engine.run_to_completion();
  EXPECT_EQ(result.completed_count, 1u);
  EXPECT_DOUBLE_EQ(result.value_trace.times()[0], 10.0 + 10.0 / 35.0);
}

TEST(Engine, JobCompletingExactlyAtDeadlineSucceeds) {
  // p = 4 at rate 1 with window exactly 4.
  Instance instance({make_job(0.0, 4.0, 4.0, 3.0)}, cap::CapacityProfile(1.0));
  RunOnReleaseScheduler sched;
  Engine engine(instance, sched);
  auto result = engine.run_to_completion();
  EXPECT_EQ(result.completed_count, 1u);
  EXPECT_EQ(result.expired_count, 0u);
  EXPECT_DOUBLE_EQ(result.completed_value, 3.0);
}

TEST(Engine, InfeasibleJobFailsAtDeadline) {
  Instance instance({make_job(0.0, 10.0, 4.0, 3.0)},
                    cap::CapacityProfile(1.0));
  RunOnReleaseScheduler sched;
  Engine engine(instance, sched);
  auto result = engine.run_to_completion();
  EXPECT_EQ(result.completed_count, 0u);
  EXPECT_EQ(result.expired_count, 1u);
  EXPECT_DOUBLE_EQ(result.completed_value, 0.0);
  // It executed for its whole window though.
  EXPECT_DOUBLE_EQ(result.executed_work[0], 4.0);
}

TEST(Engine, LateCompletionLeavingRealWorkExpires) {
  // Near t = 1e9 the deadline tolerance (1e-9 relative) spans a whole time
  // unit: the exact completion d + 0.5 falls inside it, but clamping it to d
  // would leave 0.5 units undone — real work, not rounding dust. The job
  // expires at d instead of tripping the engine's completion check.
  const double d = 1e9;
  Instance instance({make_job(d - 10.0, 10.5, d, 3.0)},
                    cap::CapacityProfile(1.0));
  RunOnReleaseScheduler sched;
  Engine engine(instance, sched);
  SimResult result;
  ASSERT_NO_THROW(result = engine.run_to_completion());
  EXPECT_EQ(result.completed_count, 0u);
  EXPECT_EQ(result.expired_count, 1u);
  EXPECT_DOUBLE_EQ(result.executed_work[0], 10.0);
}

TEST(Engine, LateCompletionLeavingDustCompletesAtDeadline) {
  // Same window, but the clamp leaves only 4e-6 of a 10-unit job undone:
  // below the dust bound, so the job completes exactly at its deadline.
  const double d = 1e9;
  Instance instance({make_job(d - 10.0, 10.0 + 4e-6, d, 3.0)},
                    cap::CapacityProfile(1.0));
  RunOnReleaseScheduler sched;
  Engine engine(instance, sched);
  const SimResult& result = engine.run_to_completion();
  EXPECT_EQ(result.completed_count, 1u);
  EXPECT_EQ(result.completion_times[0], d);
}

TEST(Engine, UnscheduledJobExpiresUntouched) {
  /// A scheduler that never runs anything.
  class IdleScheduler : public Scheduler {
   public:
    void on_release(Engine&, JobId) override {}
    void on_complete(Engine&, JobId) override {}
    void on_expire(Engine& engine, JobId job, bool was_running) override {
      EXPECT_FALSE(was_running);
      EXPECT_FALSE(engine.is_live(job));
    }
    std::string name() const override { return "idle"; }
  };
  Instance instance({make_job(0.0, 1.0, 2.0, 1.0)}, cap::CapacityProfile(1.0));
  IdleScheduler sched;
  Engine engine(instance, sched);
  auto result = engine.run_to_completion();
  EXPECT_EQ(result.expired_count, 1u);
  EXPECT_DOUBLE_EQ(result.executed_work[0], 0.0);
  EXPECT_DOUBLE_EQ(result.busy_time, 0.0);
}

TEST(Engine, PreemptionResumesFromPointOfPreemption) {
  // Job 0: long, released first. Job 1: short, preempts at t=2 (the logging
  // scheduler runs whatever is released when idle; we force the preemption
  // by a custom scheduler).
  class PreemptingScheduler : public Scheduler {
   public:
    void on_release(Engine& engine, JobId job) override { engine.run(job); }
    void on_complete(Engine& engine, JobId job) override {
      if (job == 1 && engine.is_live(0)) engine.run(0);  // resume job 0
    }
    void on_expire(Engine&, JobId, bool) override {}
    std::string name() const override { return "preempting"; }
  };
  Instance instance(
      {make_job(0.0, 5.0, 20.0, 1.0), make_job(2.0, 1.0, 10.0, 1.0)},
      cap::CapacityProfile(1.0));
  PreemptingScheduler sched;
  Engine engine(instance, sched);
  auto result = engine.run_to_completion();
  EXPECT_EQ(result.completed_count, 2u);
  EXPECT_EQ(result.preemptions, 1u);
  // Job 0: 2 units by t=2, paused for 1, resumes and finishes at t=6.
  const auto& times = result.value_trace.times();
  ASSERT_EQ(times.size(), 2u);
  EXPECT_DOUBLE_EQ(times[0], 3.0);  // job 1
  EXPECT_DOUBLE_EQ(times[1], 6.0);  // job 0
}

TEST(Engine, RemainingTracksExecution) {
  class ProbeScheduler : public Scheduler {
   public:
    void on_release(Engine& engine, JobId job) override {
      EXPECT_DOUBLE_EQ(engine.remaining(job), engine.job(job).workload);
      engine.run(job);
    }
    void on_complete(Engine& engine, JobId job) override {
      EXPECT_DOUBLE_EQ(engine.remaining(job), 0.0);
      EXPECT_TRUE(engine.is_completed(job));
    }
    void on_expire(Engine&, JobId, bool) override {}
    std::string name() const override { return "probe"; }
  };
  Instance instance({make_job(0.0, 3.0, 10.0, 1.0)},
                    cap::CapacityProfile(1.5));
  ProbeScheduler sched;
  Engine engine(instance, sched);
  engine.run_to_completion();
}

TEST(Engine, TimerFiresAtRequestedInstant) {
  class TimerScheduler : public LoggingScheduler {
   public:
    void on_release(Engine& engine, JobId job) override {
      LoggingScheduler::on_release(engine, job);
      engine.set_timer(engine.now() + 0.5, job, 42);
    }
  };
  Instance instance({make_job(1.0, 5.0, 20.0, 1.0)},
                    cap::CapacityProfile(1.0));
  TimerScheduler sched;
  Engine engine(instance, sched);
  engine.run_to_completion();
  bool saw_timer = false;
  for (const auto& e : sched.log_) {
    if (e.kind == 'T') {
      saw_timer = true;
      EXPECT_DOUBLE_EQ(e.time, 1.5);
    }
  }
  EXPECT_TRUE(saw_timer);
  EXPECT_EQ(sched.last_timer_tag_, 42);
}

TEST(Engine, CancelledTimerNeverFires) {
  class CancelScheduler : public LoggingScheduler {
   public:
    void on_release(Engine& engine, JobId job) override {
      LoggingScheduler::on_release(engine, job);
      auto id = engine.set_timer(engine.now() + 0.5, job, 1);
      engine.cancel_timer(id);
    }
  };
  Instance instance({make_job(0.0, 2.0, 20.0, 1.0)},
                    cap::CapacityProfile(1.0));
  CancelScheduler sched;
  Engine engine(instance, sched);
  engine.run_to_completion();
  for (const auto& e : sched.log_) EXPECT_NE(e.kind, 'T');
}

TEST(Engine, TimerForDeadJobIsSuppressed) {
  class DeadTimerScheduler : public LoggingScheduler {
   public:
    void on_release(Engine& engine, JobId job) override {
      LoggingScheduler::on_release(engine, job);
      // Fires after the job's deadline — must be swallowed by the engine.
      engine.set_timer(engine.job(job).deadline + 1.0, job, 9);
    }
  };
  Instance instance({make_job(0.0, 10.0, 2.0, 1.0)},
                    cap::CapacityProfile(1.0));
  DeadTimerScheduler sched;
  Engine engine(instance, sched);
  engine.run_to_completion();
  for (const auto& e : sched.log_) EXPECT_NE(e.kind, 'T');
}

TEST(Engine, ImmediateTimerFiresAfterCurrentHandler) {
  class ImmediateTimerScheduler : public LoggingScheduler {
   public:
    void on_release(Engine& engine, JobId job) override {
      LoggingScheduler::on_release(engine, job);
      engine.set_timer(engine.now(), job, 7);
    }
  };
  Instance instance({make_job(1.0, 2.0, 20.0, 1.0)},
                    cap::CapacityProfile(1.0));
  ImmediateTimerScheduler sched;
  Engine engine(instance, sched);
  engine.run_to_completion();
  ASSERT_GE(sched.log_.size(), 2u);
  EXPECT_EQ(sched.log_[0].kind, 'R');
  EXPECT_EQ(sched.log_[1].kind, 'T');
  EXPECT_DOUBLE_EQ(sched.log_[1].time, 1.0);
}

TEST(Engine, CompletionBeatsExpiryAtSameInstant) {
  // Window exactly equal to processing time: completion and expiry collide
  // at t=4 and the completion must win.
  Instance instance({make_job(0.0, 4.0, 4.0, 1.0)}, cap::CapacityProfile(1.0));
  LoggingScheduler sched;
  Engine engine(instance, sched);
  auto result = engine.run_to_completion();
  EXPECT_EQ(result.completed_count, 1u);
  bool saw_expire = false;
  for (const auto& e : sched.log_) saw_expire |= (e.kind == 'X');
  EXPECT_FALSE(saw_expire);
}

TEST(Engine, ValueTraceIsCumulative) {
  Instance instance(
      {make_job(0.0, 1.0, 5.0, 2.0), make_job(0.0, 1.0, 5.0, 3.0)},
      cap::CapacityProfile(1.0));
  LoggingScheduler sched;
  Engine engine(instance, sched);
  auto result = engine.run_to_completion();
  EXPECT_EQ(result.completed_count, 2u);
  ASSERT_EQ(result.value_trace.size(), 2u);
  const auto& values = result.value_trace.values();
  EXPECT_GT(values[1], values[0]);
  EXPECT_DOUBLE_EQ(values[1], 5.0);
}

TEST(Engine, WorkConservation) {
  Instance instance(
      {make_job(0.0, 3.0, 4.0, 1.0), make_job(1.0, 2.0, 8.0, 1.0)},
      cap::CapacityProfile({0.0, 2.0}, {1.0, 3.0}));
  LoggingScheduler sched;
  Engine engine(instance, sched);
  auto result = engine.run_to_completion();
  double executed = 0.0;
  for (double w : result.executed_work) executed += w;
  EXPECT_NEAR(executed, result.executed_total, 1e-9);
  // Executed work cannot exceed what the capacity path offered while busy.
  EXPECT_LE(result.executed_total,
            instance.capacity().work(0.0, instance.max_deadline()) + 1e-9);
}

TEST(Engine, RunningNonLiveJobThrows) {
  class BadScheduler : public Scheduler {
   public:
    void on_release(Engine& engine, JobId) override {
      engine.run(1);  // job 1 not released yet
    }
    void on_complete(Engine&, JobId) override {}
    void on_expire(Engine&, JobId, bool) override {}
    std::string name() const override { return "bad"; }
  };
  Instance instance(
      {make_job(0.0, 1.0, 5.0, 1.0), make_job(3.0, 1.0, 9.0, 1.0)},
      cap::CapacityProfile(1.0));
  BadScheduler sched;
  Engine engine(instance, sched);
  EXPECT_THROW(engine.run_to_completion(), CheckError);
}

TEST(Engine, RunOutsideCallbackThrows) {
  Instance instance({make_job(0.0, 1.0, 5.0, 1.0)}, cap::CapacityProfile(1.0));
  LoggingScheduler sched;
  Engine engine(instance, sched);
  EXPECT_THROW(engine.run(0), CheckError);
}

TEST(Engine, RunSameJobIsNoOp) {
  class RedundantScheduler : public Scheduler {
   public:
    void on_release(Engine& engine, JobId job) override {
      engine.run(job);
      engine.run(job);  // no-op, must not count a preemption
    }
    void on_complete(Engine&, JobId) override {}
    void on_expire(Engine&, JobId, bool) override {}
    std::string name() const override { return "redundant"; }
  };
  Instance instance({make_job(0.0, 1.0, 5.0, 1.0)}, cap::CapacityProfile(1.0));
  RedundantScheduler sched;
  Engine engine(instance, sched);
  auto result = engine.run_to_completion();
  EXPECT_EQ(result.preemptions, 0u);
  EXPECT_EQ(result.dispatches, 1u);
  EXPECT_EQ(result.completed_count, 1u);
}

TEST(Engine, IdleRunStopsExecution) {
  class StopScheduler : public Scheduler {
   public:
    void on_release(Engine& engine, JobId job) override {
      if (job == 0) engine.run(0);
      if (job == 1) engine.run(kNoJob);  // park the processor at t=1
    }
    void on_complete(Engine&, JobId) override {}
    void on_expire(Engine&, JobId, bool) override {}
    std::string name() const override { return "stop"; }
  };
  Instance instance(
      {make_job(0.0, 5.0, 3.0, 1.0), make_job(1.0, 1.0, 2.0, 1.0)},
      cap::CapacityProfile(1.0));
  StopScheduler sched;
  Engine engine(instance, sched);
  auto result = engine.run_to_completion();
  EXPECT_EQ(result.completed_count, 0u);
  EXPECT_DOUBLE_EQ(result.executed_work[0], 1.0);  // only [0,1)
  EXPECT_DOUBLE_EQ(result.busy_time, 1.0);
}

TEST(Engine, ClaxityMatchesDefinition) {
  class ClaxityProbe : public Scheduler {
   public:
    void on_release(Engine& engine, JobId job) override {
      // claxity = d − t − p_rem/c_est.
      EXPECT_DOUBLE_EQ(engine.claxity(job, 2.0),
                       engine.job(job).deadline - engine.now() -
                           engine.remaining(job) / 2.0);
      engine.run(job);
    }
    void on_complete(Engine&, JobId) override {}
    void on_expire(Engine&, JobId, bool) override {}
    std::string name() const override { return "claxity"; }
  };
  Instance instance({make_job(1.0, 6.0, 9.0, 1.0)}, cap::CapacityProfile(3.0));
  ClaxityProbe sched;
  Engine engine(instance, sched);
  engine.run_to_completion();
}

TEST(Engine, CapacityChangeEventsDeliveredWhenRequested) {
  class CapacityWatcher : public LoggingScheduler {
   public:
    bool wants_capacity_events() const override { return true; }
    void on_capacity_change(Engine& engine) override {
      changes_.push_back({engine.now(), engine.current_rate()});
    }
    std::vector<std::pair<double, double>> changes_;
  };
  Instance instance({make_job(0.0, 30.0, 40.0, 1.0)},
                    cap::CapacityProfile({0.0, 10.0, 20.0}, {1.0, 2.0, 1.0}));
  CapacityWatcher sched;
  Engine engine(instance, sched);
  engine.run_to_completion();
  ASSERT_EQ(sched.changes_.size(), 2u);
  EXPECT_DOUBLE_EQ(sched.changes_[0].first, 10.0);
  EXPECT_DOUBLE_EQ(sched.changes_[0].second, 2.0);
  EXPECT_DOUBLE_EQ(sched.changes_[1].first, 20.0);
}

TEST(Engine, CompletionAndResponseTimesRecorded) {
  Instance instance(
      {make_job(1.0, 2.0, 9.0, 1.0), make_job(2.0, 50.0, 4.0, 1.0)},
      cap::CapacityProfile(1.0));
  LoggingScheduler sched;
  Engine engine(instance, sched);
  auto result = engine.run_to_completion();
  ASSERT_EQ(result.completion_times.size(), 2u);
  EXPECT_DOUBLE_EQ(result.completion_times[0], 3.0);   // [1, 3)
  EXPECT_TRUE(std::isnan(result.completion_times[1])); // expired
  auto responses = result.response_times();
  ASSERT_EQ(responses.size(), 1u);
  EXPECT_DOUBLE_EQ(responses[0], 2.0);
  EXPECT_DOUBLE_EQ(result.mean_response_time(), 2.0);
}

TEST(Engine, MeanResponseTimeZeroWhenNothingCompletes) {
  Instance instance({make_job(0.0, 9.0, 1.0, 1.0)}, cap::CapacityProfile(1.0));
  LoggingScheduler sched;
  Engine engine(instance, sched);
  auto result = engine.run_to_completion();
  EXPECT_DOUBLE_EQ(result.mean_response_time(), 0.0);
  EXPECT_TRUE(result.response_times().empty());
}

// ------------------------------------------------------------- timer slab

TEST(EngineTimerSlab, CancelCorruptedIdThrows) {
  Instance instance({make_job(0.0, 1.0, 5.0, 1.0)}, cap::CapacityProfile(1.0));
  LoggingScheduler sched;
  Engine engine(instance, sched);
  // Slot index 999 was never allocated: a corrupted handle, not a stale one.
  EXPECT_THROW(engine.cancel_timer(TimerId{999}), CheckError);
}

TEST(EngineTimerSlab, StaleCancelAfterSlotReuseIsNoOp) {
  // Cancel a timer, arm a new one (which reuses the freed slot with a bumped
  // generation), then cancel the FIRST handle again: the stale cancel must
  // not kill the new timer.
  class ReuseScheduler : public LoggingScheduler {
   public:
    void on_release(Engine& engine, JobId job) override {
      LoggingScheduler::on_release(engine, job);
      TimerId first = engine.set_timer(engine.now() + 0.25, job, 1);
      engine.cancel_timer(first);
      TimerId second = engine.set_timer(engine.now() + 0.5, job, 2);
      // The same slot (low half of the id) under the next generation.
      EXPECT_EQ(second & 0xffffffffull, first & 0xffffffffull);
      EXPECT_EQ(second >> 32, (first >> 32) + 1);
      EXPECT_EQ(engine.live_timer_count(), 1u);
      engine.cancel_timer(first);  // stale generation: harmless no-op
      EXPECT_EQ(engine.live_timer_count(), 1u);
    }
  };
  Instance instance({make_job(0.0, 2.0, 20.0, 1.0)},
                    cap::CapacityProfile(1.0));
  ReuseScheduler sched;
  Engine engine(instance, sched);
  engine.run_to_completion();
  int timer_fires = 0;
  for (const auto& e : sched.log_) timer_fires += (e.kind == 'T');
  EXPECT_EQ(timer_fires, 1);
  EXPECT_EQ(sched.last_timer_tag_, 2);  // the second timer, not the first
  EXPECT_EQ(engine.live_timer_count(), 0u);
}

TEST(EngineTimerSlab, SlotsAreReusedNotLeaked) {
  // One timer live at a time, armed and fired N times in sequence: the slab
  // must stay at a single slot however many timers were armed.
  class ChainScheduler : public LoggingScheduler {
   public:
    void on_timer(Engine& engine, JobId job, int tag) override {
      LoggingScheduler::on_timer(engine, job, tag);
      if (tag < 8 && engine.is_live(job)) {
        engine.set_timer(engine.now() + 0.5, job, tag + 1);
      }
    }
    void on_release(Engine& engine, JobId job) override {
      LoggingScheduler::on_release(engine, job);
      engine.set_timer(engine.now() + 0.5, job, 1);
    }
  };
  Instance instance({make_job(0.0, 6.0, 20.0, 1.0)},
                    cap::CapacityProfile(1.0));
  ChainScheduler sched;
  Engine engine(instance, sched);
  auto result = engine.run_to_completion();
  EXPECT_EQ(result.timers_armed, 8u);
  EXPECT_EQ(result.timer_slab_slots, 1u);   // same slot recycled every time
  EXPECT_EQ(result.timer_slab_peak, 1u);
  EXPECT_EQ(engine.live_timer_count(), 0u);
}

TEST(EngineTimerSlab, LiveTimerCountTracksArmAndCancel) {
  class CountScheduler : public LoggingScheduler {
   public:
    void on_release(Engine& engine, JobId job) override {
      LoggingScheduler::on_release(engine, job);
      TimerId a = engine.set_timer(engine.now() + 1.0, job, 1);
      engine.set_timer(engine.now() + 2.0, job, 2);
      EXPECT_EQ(engine.live_timer_count(), 2u);
      engine.cancel_timer(a);
      EXPECT_EQ(engine.live_timer_count(), 1u);
      engine.cancel_timer(kNoTimer);  // explicit no-op
      EXPECT_EQ(engine.live_timer_count(), 1u);
    }
  };
  Instance instance({make_job(0.0, 4.0, 20.0, 1.0)},
                    cap::CapacityProfile(1.0));
  CountScheduler sched;
  Engine engine(instance, sched);
  auto result = engine.run_to_completion();
  EXPECT_EQ(result.timer_slab_peak, 2u);
  EXPECT_EQ(engine.live_timer_count(), 0u);
}

TEST(EngineTimerSlab, DeadJobTimerStillFreesItsSlot) {
  // A timer that fires after its job's deadline is swallowed (no callback),
  // but the slab slot must still come back.
  class DeadTimerScheduler : public LoggingScheduler {
   public:
    void on_release(Engine& engine, JobId job) override {
      LoggingScheduler::on_release(engine, job);
      engine.set_timer(engine.job(job).deadline + 1.0, job, 9);
    }
  };
  Instance instance({make_job(0.0, 10.0, 2.0, 1.0)},
                    cap::CapacityProfile(1.0));
  DeadTimerScheduler sched;
  Engine engine(instance, sched);
  engine.run_to_completion();
  EXPECT_EQ(engine.live_timer_count(), 0u);
}

// ------------------------------------------------- timer contract (the heap)
//
// Timers are kTimer events on the volatile heap under the engine's (time,
// type, seq) order: among timers, (time, arm order). A cancelled timer stays
// queued and pops dead at its own position.

/// Arms timers (kNoJob, so none is swallowed) from on_start and logs every
/// fire's tag; subclasses arm in on_start and react in fired().
class TimerProbe : public Scheduler {
 public:
  void on_release(Engine&, JobId) override {}
  void on_complete(Engine&, JobId) override {}
  void on_expire(Engine&, JobId, bool) override {}
  void on_timer(Engine& engine, JobId, int tag) override {
    tags_.push_back(tag);
    fired(engine, tag);
  }
  std::string name() const override { return "timer-probe"; }
  virtual void fired(Engine&, int) {}
  std::vector<int> tags_;
};

const Instance& timer_probe_instance() {
  static const Instance instance({make_job(0.0, 1.0, 5.0, 1.0)},
                                 cap::CapacityProfile(1.0));
  return instance;
}

TEST(EngineTimers, CancelAtTheExpiryInstantOfTheCancelledTimer) {
  // Timers 1..3 are due at t = 1; timer 1's handler cancels timer 2 there.
  // Cancelling the timer now firing, and cancelling timer 2 twice, are
  // no-ops; a timer armed at the current instant fires after all three.
  class Collide : public TimerProbe {
   public:
    void on_start(Engine& engine) override {
      for (int tag = 1; tag <= 3; ++tag) {
        ids_.push_back(engine.set_timer(1.0, kNoJob, tag));
      }
    }
    void fired(Engine& engine, int tag) override {
      EXPECT_EQ(engine.now(), 1.0);
      if (tag != 1) return;
      engine.cancel_timer(ids_[0]);
      engine.cancel_timer(ids_[1]);
      engine.cancel_timer(ids_[1]);
      EXPECT_EQ(engine.live_timer_count(), 1u);
      EXPECT_EQ(engine.dead_event_count(), 1u);
      engine.set_timer(engine.now(), kNoJob, 4);
    }
    std::vector<TimerId> ids_;
  };
  Collide probe;
  Engine engine(timer_probe_instance(), probe);
  EXPECT_EQ(engine.run_to_completion().timers_armed, 4u);
  EXPECT_EQ(probe.tags_, (std::vector<int>{1, 3, 4}));
  EXPECT_EQ(engine.dead_event_count(), 0u);
}

TEST(EngineTimers, CancelledTimerPopsDeadAtItsTimeAndSeq) {
  // Timers 1..3 at t = 2, timer 2 cancelled: it pops between the others
  // (one dead event queued when timer 1 fires, none when timer 3 fires) and
  // counts as a processed event.
  class DeadPop : public TimerProbe {
   public:
    void on_start(Engine& engine) override {
      engine.set_timer(2.0, kNoJob, 1);
      engine.cancel_timer(engine.set_timer(2.0, kNoJob, 2));
      engine.set_timer(2.0, kNoJob, 3);
    }
    void fired(Engine& engine, int) override {
      dead_.push_back(engine.dead_event_count());
    }
    std::vector<std::size_t> dead_;
  };
  DeadPop probe;
  Engine engine(timer_probe_instance(), probe);
  const SimResult& result = engine.run_to_completion();
  EXPECT_EQ(probe.tags_, (std::vector<int>{1, 3}));
  EXPECT_EQ(probe.dead_, (std::vector<std::size_t>{1, 0}));
  // The job's release and expiry, two fires, and the dead pop.
  EXPECT_EQ(result.events_processed, 5u);
  EXPECT_EQ(result.event_heap_dead_peak, 1u);
}

TEST(EngineTimers, FarFutureAndInfiniteTimesOrderCorrectly) {
  class FarFuture : public TimerProbe {
   public:
    void on_start(Engine& engine) override {
      engine.set_timer(std::numeric_limits<double>::infinity(), kNoJob, 1);
      engine.set_timer(1e300, kNoJob, 2);
      engine.set_timer(5e-324, kNoJob, 3);  // smallest subnormal
      engine.set_timer(0.0, kNoJob, 4);
      engine.set_timer(-0.0, kNoJob, 5);  // the same instant as 0.0
    }
  };
  FarFuture probe;
  Engine engine(timer_probe_instance(), probe);
  engine.run_to_completion();
  EXPECT_EQ(probe.tags_, (std::vector<int>{4, 5, 3, 2, 1}));
  EXPECT_EQ(engine.now(), std::numeric_limits<double>::infinity());
  // reset() rewinds the clock from +inf.
  FarFuture again;
  engine.reset(again);
  engine.run_to_completion();
  EXPECT_EQ(again.tags_, probe.tags_);
}

TEST(EngineTimers, RandomizedFireOrderMatchesPriorityQueue) {
  // Timer handlers arm and cancel at random, also at the current instant
  // and at already-armed instants, keeping ~100 timers standing and
  // cancelling often enough for the heap to compact mid-run. The reference
  // is a std::priority_queue on (time, arm index) that skips cancelled
  // entries; every fire must be its minimum, at its time.
  using Ref = std::pair<double, int>;
  class Random : public TimerProbe {
   public:
    void on_start(Engine& engine) override { churn(engine); }
    void fired(Engine& engine, int tag) override {
      skip_cancelled();
      ASSERT_FALSE(ref_.empty());
      ASSERT_EQ(ref_.top(), Ref(engine.now(), tag));
      ref_.pop();
      armed_[tag] = false;
      --live_;
      churn(engine);
    }
    void skip_cancelled() {
      while (!ref_.empty() && !armed_[ref_.top().second]) ref_.pop();
    }
    void churn(Engine& engine) {
      for (std::uint64_t op = 1 + rng_() % 4; op > 0; --op) {
        const std::uint64_t kind = rng_() % 100;
        if ((kind < 40 || live_ < 100) && ids_.size() < 3000) {
          double t = engine.now() + static_cast<double>(rng_() % 4096) * 0.37;
          if (kind % 8 == 0) t = engine.now();
          if (kind % 8 == 1 && live_ > 0) t = times_[pick_armed()];
          const int index = static_cast<int>(ids_.size());
          ids_.push_back(engine.set_timer(t, kNoJob, index));
          times_.push_back(t);
          armed_.push_back(true);
          ref_.push(Ref(t, index));
          ++live_;
        } else if (kind < 95 && live_ > 0) {
          const std::size_t i = pick_armed();
          engine.cancel_timer(ids_[i]);
          engine.cancel_timer(ids_[i]);  // double cancel: no-op
          armed_[i] = false;
          --live_;
        }
      }
      ASSERT_EQ(engine.live_timer_count(), live_);
    }
    std::size_t pick_armed() {
      std::size_t i = rng_() % armed_.size();
      while (!armed_[i]) i = (i + 1) % armed_.size();
      return i;
    }
    std::mt19937_64 rng_{2026};
    std::vector<TimerId> ids_;
    std::vector<double> times_;
    std::vector<bool> armed_;
    std::size_t live_ = 0;
    std::priority_queue<Ref, std::vector<Ref>, std::greater<Ref>> ref_;
  };
  Random probe;
  Engine engine(timer_probe_instance(), probe);
  const SimResult& result = engine.run_to_completion();
  EXPECT_GT(probe.tags_.size(), 500u);
  EXPECT_GE(result.heap_compactions, 1u);
  EXPECT_EQ(engine.live_timer_count(), 0u);
  EXPECT_EQ(engine.dead_event_count(), 0u);
  probe.skip_cancelled();
  EXPECT_TRUE(probe.ref_.empty());
}

// ------------------------------------------------------------ engine reuse

TEST(EngineReset, ReplaysIdenticallyOnSameInstance) {
  Instance instance(
      {make_job(0.0, 3.0, 4.0, 1.0), make_job(1.0, 2.0, 8.0, 2.0),
       make_job(1.5, 4.0, 5.0, 3.0)},
      cap::CapacityProfile({0.0, 2.0, 5.0}, {1.0, 3.0, 2.0}));

  obs::DigestSink first_digest;
  LoggingScheduler first_sched;
  Engine engine(instance, first_sched);
  engine.attach_trace(&first_digest);
  auto first = engine.run_to_completion();

  obs::DigestSink second_digest;
  LoggingScheduler second_sched;  // fresh scheduler, same engine
  engine.reset(second_sched);
  engine.attach_trace(&second_digest);
  auto second = engine.run_to_completion();

  EXPECT_EQ(first_digest.digest(), second_digest.digest());
  EXPECT_EQ(first_digest.event_count(), second_digest.event_count());
  EXPECT_EQ(first.completed_count, second.completed_count);
  EXPECT_DOUBLE_EQ(first.completed_value, second.completed_value);
  EXPECT_EQ(first.events_processed, second.events_processed);
  EXPECT_EQ(first.preemptions, second.preemptions);
  ASSERT_EQ(first.executed_work.size(), second.executed_work.size());
  for (std::size_t i = 0; i < first.executed_work.size(); ++i) {
    EXPECT_DOUBLE_EQ(first.executed_work[i], second.executed_work[i]);
  }
}

TEST(EngineReset, ClearsTimersFromPreviousRun) {
  // Run 1 leaves nothing live, but even mid-slab state must not leak into
  // run 2: stale handles from run 1 are rejected as corrupted or stale, and
  // the slab starts empty.
  class ArmOnlyScheduler : public LoggingScheduler {
   public:
    void on_release(Engine& engine, JobId job) override {
      LoggingScheduler::on_release(engine, job);
      saved_ = engine.set_timer(engine.now() + 50.0, job, 3);  // never fires
    }
    TimerId saved_ = kNoTimer;
  };
  Instance instance({make_job(0.0, 1.0, 2.0, 1.0)}, cap::CapacityProfile(1.0));
  ArmOnlyScheduler first;
  Engine engine(instance, first);
  engine.run_to_completion();

  LoggingScheduler second;
  engine.reset(second);
  EXPECT_EQ(engine.live_timer_count(), 0u);
  EXPECT_EQ(engine.timer_slab_size(), 0u);
  auto result = engine.run_to_completion();
  EXPECT_EQ(result.completed_count, 1u);
  for (const auto& e : second.log_) EXPECT_NE(e.kind, 'T');
}

/// Doubles compare bit for bit: NaN completion times are equal to each other
/// and 0.0 differs from -0.0.
std::vector<std::uint64_t> bits(const std::vector<double>& values) {
  std::vector<std::uint64_t> out;
  for (double v : values) out.push_back(std::bit_cast<std::uint64_t>(v));
  return out;
}
std::uint64_t bits(double value) { return std::bit_cast<std::uint64_t>(value); }

/// Every SimResult field of `got` equals `expected`'s.
void expect_same_result(const SimResult& expected, const SimResult& got) {
  EXPECT_EQ(expected.scheduler_name, got.scheduler_name);
  EXPECT_EQ(bits(expected.completed_value), bits(got.completed_value));
  EXPECT_EQ(bits(expected.generated_value), bits(got.generated_value));
  EXPECT_EQ(expected.completed_count, got.completed_count);
  EXPECT_EQ(expected.expired_count, got.expired_count);
  EXPECT_EQ(expected.outcomes, got.outcomes);
  EXPECT_EQ(bits(expected.executed_work), bits(got.executed_work));
  EXPECT_EQ(bits(expected.completion_times), bits(got.completion_times));
  EXPECT_EQ(bits(expected.release_times), bits(got.release_times));
  EXPECT_EQ(bits(expected.value_trace.times()), bits(got.value_trace.times()));
  EXPECT_EQ(bits(expected.value_trace.values()),
            bits(got.value_trace.values()));
  EXPECT_EQ(bits(expected.value_trace.before()),
            bits(got.value_trace.before()));
  ASSERT_EQ(expected.schedule.size(), got.schedule.size());
  for (std::size_t i = 0; i < expected.schedule.size(); ++i) {
    EXPECT_EQ(bits(expected.schedule[i].start), bits(got.schedule[i].start));
    EXPECT_EQ(bits(expected.schedule[i].end), bits(got.schedule[i].end));
    EXPECT_EQ(expected.schedule[i].job, got.schedule[i].job);
  }
  EXPECT_EQ(expected.dispatches, got.dispatches);
  EXPECT_EQ(expected.preemptions, got.preemptions);
  EXPECT_EQ(expected.events_processed, got.events_processed);
  EXPECT_EQ(bits(expected.busy_time), bits(got.busy_time));
  EXPECT_EQ(bits(expected.executed_total), bits(got.executed_total));
  EXPECT_EQ(expected.timers_armed, got.timers_armed);
  EXPECT_EQ(expected.timer_slab_peak, got.timer_slab_peak);
  EXPECT_EQ(expected.timer_slab_slots, got.timer_slab_slots);
  EXPECT_EQ(expected.event_heap_peak, got.event_heap_peak);
  EXPECT_EQ(expected.event_heap_dead_peak, got.event_heap_dead_peak);
  EXPECT_EQ(expected.heap_compactions, got.heap_compactions);
  EXPECT_EQ(expected.queue_peak, got.queue_peak);
  EXPECT_EQ(expected.queue_slots, got.queue_slots);
  EXPECT_EQ(expected.job_slab_peak, got.job_slab_peak);
  EXPECT_EQ(expected.job_slab_slots, got.job_slab_slots);
}

TEST(EngineReset, ReusedStaticSideMatchesFreshEngineAcrossLineup) {
  // The Monte-Carlo reuse path: one engine replays one instance through the
  // extended lineup. LLF wants capacity events and its neighbours do not, so
  // the static side is reused, rebuilt with capacity changes, and rebuilt
  // without them again along the way.
  gen::PaperSetup setup;
  setup.lambda = 6.0;
  setup.expected_jobs = 300.0;
  Rng rng(2024, 3);
  const Instance instance = gen::generate_paper_instance(setup, rng);
  const auto lineup = sched::extended_lineup({1.0, 24.5});

  std::optional<Engine> reused;
  std::size_t capacity_flips = 0;
  std::optional<bool> last_capacity_events;
  for (const auto& factory : lineup) {
    SCOPED_TRACE(factory.name);
    auto fresh_scheduler = factory.make();
    Engine fresh(instance, *fresh_scheduler);
    fresh.record_schedule(true);
    obs::DigestSink fresh_digest;
    fresh.attach_trace(&fresh_digest);
    const SimResult expected = fresh.run_to_completion();

    auto scheduler = factory.make();
    if (reused) {
      reused->reset(*scheduler);
      // The rewound static side is pending again before the run starts.
      EXPECT_GE(reused->queued_event_count(), 2 * instance.size());
    } else {
      reused.emplace(instance, *scheduler);
      reused->record_schedule(true);
    }
    obs::DigestSink digest;
    reused->attach_trace(&digest);
    const SimResult& got = reused->run_to_completion();

    expect_same_result(expected, got);
    EXPECT_EQ(fresh_digest.digest(), digest.digest());
    EXPECT_EQ(fresh_digest.event_count(), digest.event_count());

    const bool capacity_events = scheduler->wants_capacity_events();
    if (last_capacity_events && *last_capacity_events != capacity_events) {
      ++capacity_flips;
    }
    last_capacity_events = capacity_events;
  }
  EXPECT_GE(capacity_flips, 2u);
}

TEST(EngineReset, BeginLiveAfterBatchRunStartsFromEmptyQueue) {
  // The last breakpoint lies past every deadline: a batch static side drops
  // it, a live one keeps it, so a leftover batch side would show.
  Instance instance(
      {make_job(0.0, 3.0, 4.0, 1.0), make_job(1.0, 2.0, 8.0, 2.0),
       make_job(1.5, 4.0, 5.0, 3.0)},
      cap::CapacityProfile({0.0, 2.0, 5.0, 50.0}, {1.0, 3.0, 2.0, 1.5}));
  const auto llf = sched::make_llf();

  auto batch_scheduler = llf.make();
  Engine engine(instance, *batch_scheduler);
  engine.run_to_completion();
  auto live_scheduler = llf.make();
  engine.reset(*live_scheduler);
  engine.begin_live();

  auto fresh_scheduler = llf.make();
  Engine fresh(instance, *fresh_scheduler);
  fresh.begin_live();
  // 2 events per job plus every positive breakpoint.
  EXPECT_EQ(fresh.queued_event_count(), 2 * instance.size() + 3);
  EXPECT_EQ(engine.queued_event_count(), fresh.queued_event_count());

  const SimResult expected = fresh.finish_live();
  expect_same_result(expected, engine.finish_live());
}

TEST(EngineReset, BatchRunAfterLiveAppendsRebuildsStaticSide) {
  Instance instance(
      {make_job(0.0, 3.0, 4.0, 1.0), make_job(1.0, 2.0, 8.0, 2.0)},
      cap::CapacityProfile({0.0, 2.0, 5.0}, {1.0, 3.0, 2.0}));
  const auto edf = sched::make_edf();

  auto first = edf.make();
  Engine engine(instance, *first);
  engine.run_to_completion();  // static side for two jobs

  // A live session appends a third job.
  auto live_scheduler = edf.make();
  engine.reset(*live_scheduler);
  engine.begin_live();
  engine.advance_to(1.5);
  const JobId appended = instance.append_job(make_job(1.5, 4.0, 9.0, 3.0));
  engine.admit_live(appended);
  engine.finish_live();

  auto replay = edf.make();
  engine.reset(*replay);
  const SimResult got = engine.run_to_completion();
  ASSERT_EQ(got.release_times.size(), 3u);
  auto fresh_scheduler = edf.make();
  Engine fresh(instance, *fresh_scheduler);
  expect_same_result(fresh.run_to_completion(), got);

  // A job appended between two batch runs, with no live session between.
  instance.append_job(make_job(2.0, 1.0, 3.5, 4.0));
  auto second_replay = edf.make();
  engine.reset(*second_replay);
  const SimResult grown = engine.run_to_completion();
  ASSERT_EQ(grown.release_times.size(), 4u);
  auto second_fresh = edf.make();
  Engine fresh_grown(instance, *second_fresh);
  expect_same_result(fresh_grown.run_to_completion(), grown);
}

TEST(EngineReset, SecondRunWithoutResetThrows) {
  Instance instance({make_job(0.0, 1.0, 2.0, 1.0)}, cap::CapacityProfile(1.0));
  LoggingScheduler sched;
  Engine engine(instance, sched);
  engine.run_to_completion();
  EXPECT_THROW(engine.run_to_completion(), CheckError);
  EXPECT_THROW(engine.begin_live(), CheckError);
}

TEST(EngineWindow, RetiredJobsDeadEventsNeverTouchTheirSlotsNewJob) {
  // A two-slot job window: job 0 completes and retires while its expiry
  // event is still queued; job 2 then takes job 0's slot. When job 0's
  // expiry pops it must be dead — it must not expire job 2.
  Instance instance({}, cap::CapacityProfile(1.0));
  LoggingScheduler sched;
  Engine engine(instance, sched);
  engine.reserve_live(2);
  engine.begin_live();
  ASSERT_EQ(engine.job_state().capacity(), 2u);

  EXPECT_EQ(engine.admit_live(make_job(0.0, 0.1, 10.0, 1.0)), 0);
  engine.advance_to(0.5);
  ASSERT_TRUE(engine.is_completed(0));
  engine.retire(0);
  EXPECT_FALSE(engine.cancel_live(0));
  EXPECT_THROW(engine.is_completed(0), CheckError);

  EXPECT_EQ(engine.admit_live(make_job(0.5, 0.1, 20.0, 1.0)), 1);
  EXPECT_EQ(engine.admit_live(make_job(0.6, 12.0, 30.0, 1.0)), 2);
  // Job 2 sits in job 0's slot, and the slot says so.
  EXPECT_EQ(engine.job_state().capacity(), 2u);
  EXPECT_EQ(engine.job(2).id, 2);
  EXPECT_EQ(engine.job(2).deadline, 30.0);

  engine.advance_to(11.0);  // past job 0's deadline: its expiry popped
  EXPECT_TRUE(engine.is_live(2));
  for (const auto& e : sched.log_) {
    EXPECT_NE(e.kind, 'X') << "job " << e.job << " expired at " << e.time;
  }
  engine.retire(1);
  const SimResult& result = engine.finish_live();
  EXPECT_EQ(result.completed_count, 3u);
  EXPECT_EQ(result.expired_count, 0u);
  // A run that retired jobs reports aggregates only.
  EXPECT_TRUE(result.outcomes.empty());
  EXPECT_TRUE(result.completion_times.empty());
  EXPECT_EQ(result.job_slab_peak, 2u);
  EXPECT_EQ(result.job_slab_slots, 2u);
}

TEST(EngineLiveFront, EventsBeforeTheLiveFrontPopAsNoOps) {
  // A live V-Dover session under overload (stale completions from
  // preemptions, zero-laxity timers, expiries of completed jobs): whenever
  // the engine is advanced to exactly its live front, every event it pops
  // on the way is dead — the trace records nothing, so no scheduler hook
  // ran — and the live front never precedes the raw front.
  Instance instance({}, cap::CapacityProfile(1.0), 0.5, 1.0);
  auto scheduler = sched::make_vdover().make();
  Engine engine(instance, *scheduler);
  obs::VectorTraceSink trace;
  engine.attach_trace(&trace);
  engine.begin_live();
  Rng rng(91, 2);
  std::size_t skips = 0;
  for (int step = 0; step < 4000; ++step) {
    if (rng.bernoulli(0.5)) {
      const double p = rng.exponential_mean(0.05);
      const double now = engine.now();
      engine.admit_live(make_job(now, p, now + rng.uniform(2.1, 6.0) * p,
                                 p * rng.uniform(1.0, 7.0)));
    }
    const double front = engine.next_event_time();
    const double live = engine.next_live_event_time();
    ASSERT_LE(front, live);
    if (std::isfinite(live) && live > front) {
      const std::size_t recorded = trace.events().size();
      engine.advance_to(live);
      ASSERT_EQ(trace.events().size(), recorded) << "at " << live;
      ++skips;
    }
    engine.advance_to(engine.now() + rng.exponential_mean(0.02));
  }
  EXPECT_GT(skips, 200u);
  const SimResult& result = engine.finish_live();
  EXPECT_GT(result.timers_armed, 0u);
  EXPECT_GT(result.preemptions, 0u);
  EXPECT_GT(result.expired_count, 0u);
}

TEST(Engine, GeneratedValueEqualsInstanceTotal) {
  Instance instance(
      {make_job(0.0, 1.0, 1.0, 2.5), make_job(0.5, 1.0, 9.0, 4.5)},
      cap::CapacityProfile(1.0));
  LoggingScheduler sched;
  Engine engine(instance, sched);
  auto result = engine.run_to_completion();
  EXPECT_DOUBLE_EQ(result.generated_value, 7.0);
  EXPECT_LE(result.completed_value, result.generated_value);
}

}  // namespace
}  // namespace sjs::sim
