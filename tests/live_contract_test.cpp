// The live-mode contract (sim/live_driver.hpp), checked once over both
// engines that serve it: sim::Engine (the paper's single machine) and
// cloud::MultiEngine (the fleet). Each misuse of the API is refused with a
// CheckError, and cancel_live answers false for a job that is not live.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "capacity/capacity_profile.hpp"
#include "cloud/multi_engine.hpp"
#include "jobs/instance.hpp"
#include "sim/engine.hpp"
#include "util/logging.hpp"

namespace sjs {
namespace {

Job make_job(double release, double workload, double deadline,
             double value = 1.0) {
  Job j;
  j.release = release;
  j.workload = workload;
  j.deadline = deadline;
  j.value = value;
  return j;
}

/// sim::Engine over an empty instance, under a scheduler that runs nothing
/// (and, on request, retires each released job from inside on_release).
struct SingleEngineRig {
  struct IdleScheduler final : sim::Scheduler {
    bool retire_on_release = false;
    void on_release(sim::Engine& engine, JobId job) override {
      if (retire_on_release) engine.retire(job);
    }
    void on_complete(sim::Engine&, JobId) override {}
    void on_expire(sim::Engine&, JobId, bool) override {}
    std::string name() const override { return "idle"; }
  };

  Instance instance{{}, cap::CapacityProfile(1.0)};
  IdleScheduler scheduler;
  sim::Engine engine{instance, scheduler};

  JobId append(const Job& job) { return instance.append_job(job); }
  void run_batch() { engine.run_to_completion(); }
};

/// cloud::MultiEngine over an empty job vector and one server, likewise.
struct FleetEngineRig {
  struct IdleScheduler final : cloud::GlobalScheduler {
    bool retire_on_release = false;
    void on_release(cloud::MultiEngine& engine, JobId job) override {
      if (retire_on_release) engine.retire(job);
    }
    void on_complete(cloud::MultiEngine&, JobId, std::size_t) override {}
    void on_expire(cloud::MultiEngine&, JobId, std::size_t) override {}
    std::string name() const override { return "idle"; }
  };

  std::vector<Job> jobs;
  IdleScheduler scheduler;
  cloud::MultiEngine engine{jobs, {cap::CapacityProfile(1.0)}, scheduler};

  JobId append(Job job) {
    job.id = static_cast<JobId>(jobs.size());
    jobs.push_back(job);
    return job.id;
  }
  void run_batch() { engine.run_to_completion(); }
};

template <typename Rig>
class LiveContract : public ::testing::Test {
 protected:
  Rig rig_;
};

using Rigs = ::testing::Types<SingleEngineRig, FleetEngineRig>;
TYPED_TEST_SUITE(LiveContract, Rigs);

TYPED_TEST(LiveContract, CallsOutsideLiveModeThrow) {
  auto& engine = this->rig_.engine;
  EXPECT_THROW(engine.admit_live(make_job(0.0, 1.0, 2.0)), CheckError);
  EXPECT_THROW(engine.advance_to(1.0), CheckError);
  EXPECT_THROW(engine.cancel_live(0), CheckError);
  EXPECT_THROW(engine.finish_live(), CheckError);
  EXPECT_FALSE(engine.live_mode());
}

TYPED_TEST(LiveContract, AdmissionInThePastThrows) {
  auto& engine = this->rig_.engine;
  engine.begin_live();
  engine.advance_to(5.0);
  EXPECT_THROW(engine.admit_live(make_job(4.0, 1.0, 9.0)), CheckError);
  EXPECT_EQ(engine.admit_live(make_job(5.0, 1.0, 9.0)), 0);
  EXPECT_EQ(engine.job_count(), 1u);
}

TYPED_TEST(LiveContract, InvalidJobThrows) {
  auto& engine = this->rig_.engine;
  engine.begin_live();
  EXPECT_THROW(engine.admit_live(make_job(1.0, 0.0, 2.0)), CheckError);
  EXPECT_THROW(engine.admit_live(make_job(1.0, 1.0, 0.5)), CheckError);
  EXPECT_THROW(engine.admit_live(make_job(1.0, 1.0, 2.0, -1.0)), CheckError);
  EXPECT_EQ(engine.job_count(), 0u);
}

TYPED_TEST(LiveContract, AdvanceBackwardsThrows) {
  auto& engine = this->rig_.engine;
  engine.begin_live();
  engine.advance_to(5.0);
  EXPECT_THROW(engine.advance_to(4.0), CheckError);
  engine.advance_to(5.0);  // standing still is fine
  EXPECT_EQ(engine.now(), 5.0);
}

TYPED_TEST(LiveContract, AdmitByIdOutOfOrderThrows) {
  auto& rig = this->rig_;
  rig.engine.begin_live();
  const JobId first = rig.append(make_job(0.0, 1.0, 3.0));
  const JobId second = rig.append(make_job(0.5, 1.0, 3.0));
  EXPECT_THROW(rig.engine.admit_live(second), CheckError);
  rig.engine.admit_live(first);
  EXPECT_THROW(rig.engine.admit_live(first), CheckError);
  EXPECT_THROW(rig.engine.admit_live(second + 1), CheckError);
  rig.engine.admit_live(second);
  EXPECT_EQ(rig.engine.job_count(), 2u);
}

TYPED_TEST(LiveContract, RetireInsideACallbackThrows) {
  auto& rig = this->rig_;
  rig.scheduler.retire_on_release = true;
  rig.engine.begin_live();
  rig.engine.admit_live(make_job(1.0, 1.0, 3.0));
  EXPECT_THROW(rig.engine.advance_to(2.0), CheckError);
}

TYPED_TEST(LiveContract, SecondBeginLiveThrows) {
  auto& engine = this->rig_.engine;
  engine.begin_live();
  EXPECT_THROW(engine.begin_live(), CheckError);  // while live
  engine.finish_live();
  EXPECT_THROW(engine.begin_live(), CheckError);  // after a live run
}

TYPED_TEST(LiveContract, BeginLiveAfterABatchRunThrows) {
  this->rig_.run_batch();
  EXPECT_THROW(this->rig_.engine.begin_live(), CheckError);
}

TYPED_TEST(LiveContract, CancelOfAJobThatIsNotLiveReturnsFalse) {
  auto& engine = this->rig_.engine;
  engine.begin_live();
  const JobId later = engine.admit_live(make_job(2.0, 1.0, 6.0));
  const JobId brief = engine.admit_live(make_job(0.0, 1.0, 1.5));
  EXPECT_FALSE(engine.cancel_live(later));  // not released yet
  engine.advance_to(3.0);  // `brief` expired at 1.5 (nothing runs it)
  EXPECT_FALSE(engine.is_live(brief));
  EXPECT_FALSE(engine.cancel_live(brief));  // resolved
  EXPECT_TRUE(engine.is_live(later));
  EXPECT_TRUE(engine.cancel_live(later));
  EXPECT_FALSE(engine.cancel_live(later));  // cancelled already
  const auto& result = engine.finish_live();
  EXPECT_EQ(result.expired_count, 2u);
  EXPECT_EQ(result.completed_count, 0u);
}

}  // namespace
}  // namespace sjs
