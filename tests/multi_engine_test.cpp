// Tests for the coupled multi-server engine and the global (migrating)
// schedulers: placement/migration mechanics, exact per-server completion
// arithmetic, conservation invariants under a chaos scheduler, and the
// expected dominance relations (more servers >= fewer; migration >= none on
// feasible loads).
#include <gtest/gtest.h>

#include "capacity/capacity_process.hpp"
#include "capacity/scenario.hpp"
#include "cloud/dispatch.hpp"
#include "cloud/global_sched.hpp"
#include "cloud/multi_engine.hpp"
#include "jobs/workload_gen.hpp"
#include "obs/trace_sink.hpp"
#include "sched/factory.hpp"
#include "util/logging.hpp"
#include "util/rng.hpp"

namespace sjs::cloud {
namespace {

Job make_job(JobId id, double r, double p, double d, double v) {
  Job j;
  j.id = id;
  j.release = r;
  j.workload = p;
  j.deadline = d;
  j.value = v;
  return j;
}

std::vector<Job> canonical(std::vector<Job> jobs) {
  std::stable_sort(jobs.begin(), jobs.end(), [](const Job& a, const Job& b) {
    return a.release < b.release;
  });
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    jobs[i].id = static_cast<JobId>(i);
  }
  return jobs;
}

std::vector<cap::CapacityProfile> uniform_fleet(std::size_t n, double rate) {
  return std::vector<cap::CapacityProfile>(n, cap::CapacityProfile(rate));
}

// ------------------------------------------------------------- mechanics

TEST(MultiEngine, TwoJobsRunTrulyInParallel) {
  auto jobs = canonical({make_job(0, 0.0, 4.0, 5.0, 1.0),
                         make_job(0, 0.0, 4.0, 5.0, 1.0)});
  GlobalKeyScheduler scheduler(GlobalKey::kDeadline);
  MultiEngine engine(jobs, uniform_fleet(2, 1.0), scheduler);
  auto result = engine.run_to_completion();
  // On one rate-1 server only one of the two 4-in-5 jobs could finish;
  // two servers complete both by t=4.
  EXPECT_EQ(result.completed_count, 2u);
  EXPECT_DOUBLE_EQ(result.busy_time_per_server[0], 4.0);
  EXPECT_DOUBLE_EQ(result.busy_time_per_server[1], 4.0);
}

TEST(MultiEngine, HeterogeneousRatesGiveExactCompletionTimes) {
  // Urgent job on the fast server (global EDF assigns fastest-first).
  auto jobs = canonical({make_job(0, 0.0, 10.0, 3.0, 1.0),
                         make_job(0, 0.0, 10.0, 11.0, 1.0)});
  GlobalKeyScheduler scheduler(GlobalKey::kDeadline);
  std::vector<cap::CapacityProfile> fleet{cap::CapacityProfile(1.0),
                                          cap::CapacityProfile(5.0)};
  MultiEngine engine(jobs, fleet, scheduler);
  auto result = engine.run_to_completion();
  EXPECT_EQ(result.completed_count, 2u);
  // Earliest deadline ran at rate 5: done at t=2; the other at rate 1: t=10.
  EXPECT_DOUBLE_EQ(result.executed_work[0], 10.0);
  EXPECT_DOUBLE_EQ(result.executed_work[1], 10.0);
}

TEST(MultiEngine, MigrationCarriesRemainingWork) {
  // A scheduler that deliberately migrates job 0 from server 0 to server 1
  // at job 1's release.
  class MigratingScheduler : public GlobalScheduler {
   public:
    void on_release(MultiEngine& engine, JobId job) override {
      if (job == 0) {
        engine.run_on(0, 0);
      } else {
        engine.run_on(1, 0);  // migrate job 0; leave job 1 unscheduled
      }
    }
    void on_complete(MultiEngine&, JobId, std::size_t) override {}
    void on_expire(MultiEngine&, JobId, std::size_t) override {}
    std::string name() const override { return "migrating"; }
  };
  auto jobs = canonical({make_job(0, 0.0, 6.0, 20.0, 1.0),
                         make_job(0, 2.0, 1.0, 3.0, 1.0)});
  MigratingScheduler scheduler;
  // Server 0 runs at 1, server 1 at 2: job 0 does 2 units by t=2, then the
  // remaining 4 at rate 2 -> completes at t=4.
  std::vector<cap::CapacityProfile> fleet{cap::CapacityProfile(1.0),
                                          cap::CapacityProfile(2.0)};
  MultiEngine engine(jobs, fleet, scheduler);
  auto result = engine.run_to_completion();
  EXPECT_EQ(result.migrations, 1u);
  EXPECT_EQ(result.outcomes[0], sim::JobOutcome::kCompleted);
  EXPECT_DOUBLE_EQ(result.executed_work[0], 6.0);
  EXPECT_EQ(result.outcomes[1], sim::JobOutcome::kExpired);
}

TEST(MultiEngine, JobNeverOnTwoServers) {
  class DoublePlacer : public GlobalScheduler {
   public:
    void on_release(MultiEngine& engine, JobId job) override {
      engine.run_on(0, job);
      engine.run_on(1, job);  // must migrate, not duplicate
      EXPECT_EQ(engine.server_of(job), 1u);
      EXPECT_EQ(engine.running_on(0), kNoJob);
    }
    void on_complete(MultiEngine&, JobId, std::size_t) override {}
    void on_expire(MultiEngine&, JobId, std::size_t) override {}
    std::string name() const override { return "double"; }
  };
  auto jobs = canonical({make_job(0, 0.0, 2.0, 5.0, 1.0)});
  DoublePlacer scheduler;
  MultiEngine engine(jobs, uniform_fleet(2, 1.0), scheduler);
  auto result = engine.run_to_completion();
  EXPECT_EQ(result.completed_count, 1u);
  // Executed exactly its workload despite the double placement.
  EXPECT_DOUBLE_EQ(result.executed_work[0], 2.0);
}

TEST(MultiEngine, StopAndIdleWork) {
  class StopScheduler : public GlobalScheduler {
   public:
    void on_release(MultiEngine& engine, JobId job) override {
      if (job == 0) engine.run_on(0, 0);
      if (job == 1) engine.stop(0);  // park job 0 at t=1, run nothing
    }
    void on_complete(MultiEngine&, JobId, std::size_t) override {}
    void on_expire(MultiEngine&, JobId, std::size_t) override {}
    std::string name() const override { return "stopper"; }
  };
  auto jobs = canonical({make_job(0, 0.0, 5.0, 4.0, 1.0),
                         make_job(0, 1.0, 1.0, 9.0, 1.0)});
  StopScheduler scheduler;
  MultiEngine engine(jobs, uniform_fleet(1, 1.0), scheduler);
  auto result = engine.run_to_completion();
  EXPECT_EQ(result.completed_count, 0u);
  EXPECT_DOUBLE_EQ(result.executed_work[0], 1.0);  // only [0, 1)
}

TEST(MultiEngine, RejectsMisuse) {
  auto jobs = canonical({make_job(0, 0.0, 1.0, 2.0, 1.0)});
  GlobalKeyScheduler scheduler(GlobalKey::kDeadline);
  MultiEngine engine(jobs, uniform_fleet(1, 1.0), scheduler);
  EXPECT_THROW(engine.run_on(0, 0), CheckError);  // outside callback
  EXPECT_THROW(MultiEngine(jobs, {}, scheduler), CheckError);
}

TEST(MultiEngine, LateCompletionLeavingRealWorkExpires) {
  // Near t = 1e9 the deadline tolerance (1e-9 relative) spans a whole time
  // unit: the exact completion d + 0.5 falls inside it, but clamping it to d
  // would leave 0.5 units undone — real work, not rounding dust. The job
  // expires at d instead of tripping the "completion with work left" check.
  const double d = 1e9;
  auto jobs = canonical({make_job(0, d - 10.0, 10.5, d, 1.0)});
  GlobalKeyScheduler scheduler(GlobalKey::kDeadline);
  MultiEngine engine(jobs, uniform_fleet(1, 1.0), scheduler);
  MultiSimResult result;
  ASSERT_NO_THROW(result = engine.run_to_completion());
  EXPECT_EQ(result.completed_count, 0u);
  EXPECT_EQ(result.outcomes[0], sim::JobOutcome::kExpired);
  EXPECT_DOUBLE_EQ(result.executed_work[0], 10.0);
}

TEST(MultiEngine, LateCompletionLeavingDustCompletesAtDeadline) {
  // Same window, but the clamp leaves only 4e-6 of a 10-unit job undone:
  // below the dust bound, so the job completes exactly at its deadline.
  const double d = 1e9;
  auto jobs = canonical({make_job(0, d - 10.0, 10.0 + 4e-6, d, 1.0)});
  GlobalKeyScheduler scheduler(GlobalKey::kDeadline);
  MultiEngine engine(jobs, uniform_fleet(1, 1.0), scheduler);
  const MultiSimResult result = engine.run_to_completion();
  EXPECT_EQ(result.outcomes[0], sim::JobOutcome::kCompleted);
  EXPECT_EQ(result.completion_times[0], d);
}

/// Re-derives each job's executed work from a run's trace, integrating the
/// server paths with the profiles' own binary-search work() — no cursor.
std::vector<double> work_from_trace(const std::vector<obs::TraceEvent>& events,
                                    const std::vector<cap::CapacityProfile>& fleet,
                                    std::size_t job_count) {
  std::vector<double> work(job_count, 0.0);
  std::vector<JobId> running(fleet.size(), kNoJob);
  std::vector<double> since(fleet.size(), 0.0);
  auto close = [&](std::size_t s, double t) {
    if (running[s] == kNoJob) return;
    work[static_cast<std::size_t>(running[s])] += fleet[s].work(since[s], t);
    running[s] = kNoJob;
  };
  for (const obs::TraceEvent& e : events) {
    const auto s = static_cast<std::size_t>(e.server);
    switch (e.kind) {
      case obs::TraceKind::kMigrate:
        close(static_cast<std::size_t>(e.a), e.time);
        break;
      case obs::TraceKind::kDispatch:
        close(s, e.time);
        running[s] = e.job;
        since[s] = e.time;
        break;
      case obs::TraceKind::kPreempt:
      case obs::TraceKind::kIdle:
      case obs::TraceKind::kComplete:
        close(s, e.time);
        break;
      case obs::TraceKind::kExpire:
        if (e.server >= 0) close(s, e.time);
        break;
      default:
        break;
    }
  }
  return work;
}

TEST(MultiEngine, LiveSessionOnDiurnalFleetMatchesBatchRun) {
  // Multi-segment paths put every per-server capacity cursor to work: the
  // batch run walks them forward only, while the live session also queries
  // rates at wall instants ahead of the last event. Both runs, each on a
  // fresh engine, must agree bit for bit; every rate the live engine reports
  // must equal the profile's own lookup; and the work the batch engine
  // accounted per job must match its trace integrated without cursors.
  Rng rng(2024);
  gen::JobGenParams jp;
  jp.lambda = 6.0;
  jp.horizon = 400.0;
  const auto jobs = canonical(gen::generate_jobs(jp, rng));
  double cover = jp.horizon;
  for (const auto& j : jobs) cover = std::max(cover, j.deadline);
  std::vector<cap::CapacityProfile> fleet;
  for (int s = 0; s < 3; ++s) {
    cap::TwoStateMarkovParams base;
    base.mean_sojourn_lo = base.mean_sojourn_hi = 8.0;
    cap::DiurnalParams diurnal;
    diurnal.phase = s;
    fleet.push_back(cap::sample_diurnal_ctmc(base, diurnal, cover, rng));
    ASSERT_GT(fleet.back().segments(), 20u);
  }

  GlobalKeyScheduler batch_scheduler(GlobalKey::kDeadline);
  MultiEngine batch_engine(jobs, fleet, batch_scheduler);
  obs::VectorTraceSink trace;
  batch_engine.attach_trace(&trace);
  const MultiSimResult batch = batch_engine.run_to_completion();
  const std::vector<double> traced =
      work_from_trace(trace.events(), fleet, jobs.size());
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    EXPECT_NEAR(batch.executed_work[i], traced[i],
                1e-9 * std::max(1.0, jobs[i].workload))
        << i;
  }

  std::vector<Job> admitted;
  admitted.reserve(jobs.size());
  GlobalKeyScheduler live_scheduler(GlobalKey::kDeadline);
  MultiEngine live(admitted, fleet, live_scheduler);
  live.begin_live();
  for (const Job& j : jobs) {
    live.advance_to(j.release);
    for (std::size_t s = 0; s < fleet.size(); ++s) {
      ASSERT_EQ(live.server_rate(s), fleet[s].rate(live.now()));
    }
    admitted.push_back(j);
    live.admit_live(j.id);
  }
  const MultiSimResult& replayed = live.finish_live();

  ASSERT_GT(batch.completed_count, 0u);
  ASSERT_GT(batch.expired_count, 0u);
  EXPECT_EQ(replayed.outcomes, batch.outcomes);
  EXPECT_EQ(replayed.migrations, batch.migrations);
  EXPECT_EQ(replayed.preemptions, batch.preemptions);
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    EXPECT_EQ(replayed.executed_work[i], batch.executed_work[i]) << i;
    if (batch.outcomes[i] == sim::JobOutcome::kCompleted) {
      EXPECT_EQ(replayed.completion_times[i], batch.completion_times[i]) << i;
    }
  }
}

TEST(MultiEngineLiveFront, EventsBeforeTheLiveFrontPopAsNoOps) {
  // A live fleet of three unequal machines under global EDF, overloaded so
  // that jobs migrate and are preempted (stale completions) and expiries of
  // completed jobs pile up: advancing to exactly the live front pops only
  // dead events — the trace records nothing — and the live front never
  // precedes the raw front.
  std::vector<Job> admitted;
  std::vector<cap::CapacityProfile> fleet{cap::CapacityProfile(4.0),
                                          cap::CapacityProfile(2.0),
                                          cap::CapacityProfile(1.0)};
  GlobalKeyScheduler scheduler(GlobalKey::kDeadline);
  MultiEngine engine(admitted, fleet, scheduler);
  obs::VectorTraceSink trace;
  engine.attach_trace(&trace);
  engine.begin_live();
  Rng rng(92, 2);
  std::size_t skips = 0;
  for (int step = 0; step < 4000; ++step) {
    if (rng.bernoulli(0.6)) {
      const double p = rng.exponential_mean(0.6);
      const double now = engine.now();
      engine.admit_live(Job{kNoJob, now, p, now + rng.uniform(1.1, 4.0) * p,
                            p * rng.uniform(1.0, 7.0)});
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
  const MultiSimResult& result = engine.finish_live();
  EXPECT_GT(result.migrations, 0u);
  EXPECT_GT(result.expired_count, 0u);
}

// ------------------------------------------------------------- invariants

class ChaosGlobalScheduler : public GlobalScheduler {
 public:
  explicit ChaosGlobalScheduler(std::uint64_t seed) : rng_(seed) {}
  void on_release(MultiEngine& engine, JobId) override { act(engine); }
  void on_complete(MultiEngine& engine, JobId, std::size_t) override {
    act(engine);
  }
  void on_expire(MultiEngine& engine, JobId, std::size_t) override {
    act(engine);
  }
  std::string name() const override { return "chaos"; }

 private:
  void act(MultiEngine& engine) {
    std::vector<JobId> live;
    for (JobId id = 0; id < static_cast<JobId>(engine.job_count()); ++id) {
      if (engine.is_live(id)) live.push_back(id);
    }
    for (std::size_t s = 0; s < engine.server_count(); ++s) {
      if (live.empty() || rng_.bernoulli(0.3)) {
        engine.idle(s);
      } else {
        engine.run_on(s, live[rng_.below(live.size())]);
      }
    }
  }
  Rng rng_;
};

class MultiEngineInvariants : public ::testing::TestWithParam<int> {};

TEST_P(MultiEngineInvariants, ConservationUnderChaos) {
  Rng rng(static_cast<std::uint64_t>(GetParam()) + 15000);
  gen::JobGenParams jp;
  jp.lambda = 8.0;
  jp.horizon = 25.0;
  jp.slack_factor = 1.0 + rng.uniform01();
  auto jobs = canonical(gen::generate_jobs(jp, rng));
  double cover = 30.0;
  for (const auto& j : jobs) cover = std::max(cover, j.deadline);

  std::vector<cap::CapacityProfile> fleet;
  for (int s = 0; s < 3; ++s) {
    cap::TwoStateMarkovParams cp;
    cp.mean_sojourn_lo = cp.mean_sojourn_hi = 5.0;
    fleet.push_back(cap::sample_two_state_markov(cp, cover, rng));
  }
  ChaosGlobalScheduler chaos(static_cast<std::uint64_t>(GetParam()));
  MultiEngine engine(jobs, fleet, chaos);
  auto result = engine.run_to_completion();

  EXPECT_EQ(result.completed_count + result.expired_count, jobs.size());
  double total_available = 0.0;
  for (std::size_t s = 0; s < fleet.size(); ++s) {
    total_available += fleet[s].work(0.0, cover);
  }
  double executed = 0.0, completed_value = 0.0;
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    EXPECT_GE(result.executed_work[i], -1e-9);
    EXPECT_LE(result.executed_work[i], jobs[i].workload + 1e-9);
    executed += result.executed_work[i];
    if (result.outcomes[i] == sim::JobOutcome::kCompleted) {
      completed_value += jobs[i].value;
      EXPECT_NEAR(result.executed_work[i], jobs[i].workload,
                  1e-6 * std::max(1.0, jobs[i].workload));
    }
  }
  EXPECT_LE(executed, total_available + 1e-6);
  EXPECT_NEAR(result.completed_value, completed_value,
              1e-9 * std::max(1.0, completed_value));
}

INSTANTIATE_TEST_SUITE_P(Seeds, MultiEngineInvariants, ::testing::Range(0, 6));

// ------------------------------------------------------------- dominance

TEST(GlobalSched, GlobalEdfCompletesPartitionableLoad) {
  // Four sequential streams that exactly fit four servers.
  std::vector<Job> jobs;
  for (int stream = 0; stream < 4; ++stream) {
    for (int i = 0; i < 5; ++i) {
      jobs.push_back(make_job(0, i * 2.0, 2.0, (i + 1) * 2.0, 1.0));
    }
  }
  auto canon = canonical(jobs);
  GlobalKeyScheduler scheduler(GlobalKey::kDeadline);
  MultiEngine engine(canon, uniform_fleet(4, 1.0), scheduler);
  auto result = engine.run_to_completion();
  EXPECT_EQ(result.completed_count, canon.size());
}

TEST(GlobalSched, MoreServersNeverHurt) {
  Rng rng(99);
  gen::JobGenParams jp;
  jp.lambda = 6.0;
  jp.horizon = 40.0;
  auto jobs = canonical(gen::generate_jobs(jp, rng));
  auto run_k = [&](std::size_t k) {
    GlobalKeyScheduler scheduler(GlobalKey::kDeadline);
    MultiEngine engine(jobs, uniform_fleet(k, 1.0), scheduler);
    return engine.run_to_completion().completed_value;
  };
  EXPECT_GE(run_k(4), run_k(2));
  EXPECT_GE(run_k(2), run_k(1));
}

TEST(GlobalSched, MigrationBeatsDispatchOnUnbalancedBursts) {
  // All jobs arrive while server 0 is slow and server 1 is fast, then the
  // roles flip. Dispatch-once policies strand work on whichever server they
  // picked; the migrating global scheduler follows the capacity.
  std::vector<Job> jobs;
  for (int i = 0; i < 12; ++i) {
    jobs.push_back(make_job(0, 0.1 * i, 4.0, 0.1 * i + 8.0, 1.0));
  }
  auto canon = canonical(jobs);
  std::vector<cap::CapacityProfile> fleet{
      cap::CapacityProfile({0.0, 4.0}, {1.0, 10.0}),
      cap::CapacityProfile({0.0, 4.0}, {10.0, 1.0}),
  };
  GlobalKeyScheduler global(GlobalKey::kDeadline);
  MultiEngine engine(canon, fleet, global);
  auto migrating = engine.run_to_completion();

  CloudConfig config;
  config.c_lo = 1.0;
  config.c_hi = 10.0;
  config.policy = DispatchPolicy::kLeastBacklog;
  auto dispatched = run_cloud(canon, fleet, config, sched::make_edf());

  EXPECT_GE(migrating.completed_value, dispatched.completed_value);
  EXPECT_GT(migrating.migrations, 0u);
}

TEST(GlobalSched, HvdfPrefersDenseJobsUnderOverload) {
  std::vector<Job> jobs{
      make_job(0, 0.0, 4.0, 4.0, 28.0),  // density 7
      make_job(0, 0.0, 4.0, 4.0, 4.0),   // density 1
      make_job(0, 0.0, 4.0, 4.0, 4.0),   // density 1
  };
  auto canon = canonical(jobs);
  GlobalKeyScheduler scheduler(GlobalKey::kValueDensity);
  MultiEngine engine(canon, uniform_fleet(2, 1.0), scheduler);
  auto result = engine.run_to_completion();
  EXPECT_EQ(result.completed_count, 2u);
  EXPECT_DOUBLE_EQ(result.completed_value, 32.0);  // dense + one filler
}

}  // namespace
}  // namespace sjs::cloud
