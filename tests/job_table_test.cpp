// Unit tests for the job window (sim/job_table.hpp): dense admission-order
// ids, retirement from the base, slot reuse after retirement, ring doubling
// when the unretired span outgrows it, the bounded-memory contract under
// churn, and the reply-route lane that exists only with owned records.
//
// The differential test drives the window and a deliberately naive
// reference (ordered maps keyed by id) with one random operation stream and
// requires identical observable state after every step — including that
// every slot read holds the id it is read for, and that retired ids are no
// longer held.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <map>
#include <thread>
#include <vector>

#include "jobs/job.hpp"
#include "sim/job_table.hpp"
#include "util/logging.hpp"
#include "util/rng.hpp"

namespace sjs {
namespace {

using sim::JobOutcome;
using sim::JobTable;
using sim::ReplyRoute;

Job make_job(double workload) { return Job{kNoJob, 0.0, workload, 10.0, 1.0}; }

/// A reply route that encodes its job id in every field.
ReplyRoute route_for(JobId id) {
  const auto n = static_cast<std::uint64_t>(id);
  return ReplyRoute{static_cast<int>(id % 7), n + 1, 2 * n, 3 * n + 5,
                    id % 2 == 0};
}

void expect_route(const ReplyRoute& got, const ReplyRoute& want) {
  EXPECT_EQ(got.conn, want.conn);
  EXPECT_EQ(got.gen, want.gen);
  EXPECT_EQ(got.seq, want.seq);
  EXPECT_EQ(got.ticket, want.ticket);
  EXPECT_EQ(got.cancelled, want.cancelled);
}

TEST(JobTableTest, DenseBindMatchesInstanceOrder) {
  std::vector<Job> jobs;
  for (int i = 0; i < 5; ++i) {
    jobs.push_back(Job{static_cast<JobId>(i), 0.0, 1.0 + i, 10.0, 1.0});
  }
  JobTable table;
  table.bind(jobs);
  EXPECT_EQ(table.base(), 0);
  EXPECT_EQ(table.end(), 5);
  EXPECT_EQ(table.capacity(), 8u);  // the next power of two
  for (JobId id = 0; id < 5; ++id) {
    EXPECT_TRUE(table.holds(id));
    EXPECT_EQ(table.job(id).id, id);
    EXPECT_EQ(table.remaining(id), 1.0 + static_cast<double>(id));
    EXPECT_EQ(table.outcome(id), JobOutcome::kPending);
    EXPECT_FALSE(table.released(id));
  }
  EXPECT_FALSE(table.holds(5));
  EXPECT_FALSE(table.holds(-1));
}

TEST(JobTableTest, AppendDenseAssignsAdmissionOrderIds) {
  JobTable table;
  table.bind({});
  EXPECT_EQ(table.admit(make_job(2.0)), 0);
  EXPECT_EQ(table.admit(make_job(3.0)), 1);
  EXPECT_EQ(table.admit(make_job(4.0)), 2);
  EXPECT_EQ(table.end(), 3);
  EXPECT_EQ(table.span(), 3u);
  EXPECT_EQ(table.remaining(1), 3.0);
  // The stored record carries its admission id, whatever the caller passed.
  EXPECT_EQ(table.job(1).id, 1);
  EXPECT_TRUE(std::isnan(table.completion(1)));
}

TEST(JobTableTest, ReleaseSlotInvalidatesHandleAndReusesSlot) {
  // Retiring the base frees its slot: the id is no longer held, and the
  // next admission reuses the slot under its own id.
  JobTable table;
  table.reserve(4);
  ASSERT_EQ(table.capacity(), 4u);
  for (int i = 0; i < 4; ++i) table.admit(make_job(1.0 + i));

  // A job without an outcome cannot retire.
  EXPECT_THROW(table.retire(table.base()), CheckError);
  table.set_outcome(0, JobOutcome::kCompleted);
  table.set_completion(0, 0.5);
  table.retire(table.base());
  EXPECT_EQ(table.base(), 1);
  EXPECT_FALSE(table.holds(0));

  const JobId reused = table.admit(make_job(9.0));
  EXPECT_EQ(reused, 4);
  EXPECT_EQ(table.capacity(), 4u);  // the span never exceeded the ring
  // Slot 0 now holds job 4, fully re-initialised; the stale id 0 is not
  // held, and the slot does not hold it either.
  EXPECT_TRUE(table.holds(reused));
  EXPECT_EQ(table.job(reused).id, reused);
  EXPECT_NE(table.job(0).id, 0);
  EXPECT_EQ(table.remaining(reused), 9.0);
  EXPECT_EQ(table.outcome(reused), JobOutcome::kPending);
  EXPECT_TRUE(std::isnan(table.completion(reused)));
  EXPECT_FALSE(table.holds(0));
}

TEST(JobTableTest, RingDoublesAndReslotsWhenSpanOutgrowsIt) {
  // A pending low id pins the base: the span grows past the ring, which
  // doubles and moves every held job to its slot under the new mask.
  JobTable table;
  table.reserve(4);
  for (int i = 0; i < 4; ++i) {
    const JobId id = table.admit(make_job(1.0 + i));
    table.qedf_meta(id) = sim::QedfMeta{0.25 * i, 0.5 * i};
    table.route(id) = route_for(id);
    table.set_released(id);
  }
  // Resolve and retire job 0; jobs 1..3 stay pending.
  table.set_outcome(0, JobOutcome::kExpired);
  table.retire(table.base());
  for (int i = 0; i < 5; ++i) {  // ids 4..8
    const JobId id = table.admit(make_job(10.0 + i));
    table.route(id) = route_for(id);
  }
  EXPECT_EQ(table.span(), 8u);
  EXPECT_EQ(table.capacity(), 8u);
  EXPECT_EQ(table.span_peak(), 8u);
  for (JobId id = 1; id < 4; ++id) {
    EXPECT_EQ(table.job(id).id, id);
    EXPECT_EQ(table.remaining(id), 1.0 + static_cast<double>(id));
    EXPECT_EQ(table.qedf_meta(id).t_insert, 0.25 * static_cast<double>(id));
    expect_route(table.route(id), route_for(id));
    EXPECT_TRUE(table.released(id));
  }
  for (JobId id = 4; id < 9; ++id) {
    EXPECT_EQ(table.job(id).id, id);
    EXPECT_EQ(table.remaining(id), 6.0 + static_cast<double>(id));
    EXPECT_FALSE(table.released(id));
  }
  const JobId last = table.admit(make_job(1.0));  // span 9 > 8: doubles
  EXPECT_EQ(table.capacity(), 16u);
  EXPECT_EQ(table.route_slots(), 16u);
  EXPECT_EQ(table.job(1).id, 1);
  // Every route survived the doubling; the new job's starts fresh.
  for (JobId id = 1; id < last; ++id) {
    expect_route(table.route(id), route_for(id));
  }
  expect_route(table.route(last), ReplyRoute{});
}

TEST(JobTableTest, RingWidensInPlaceUpToItsReservation) {
  // reserve() reserves lane capacity and starts a 16-slot ring. A full ring
  // below the reservation doubles in place: no lane moves to new storage,
  // and every held id reads every lane as before, whichever half its slot
  // lands in. At the reservation the ring spills instead of doubling.
  for (const JobTable::Lanes lanes :
       {JobTable::Lanes::kAll, JobTable::Lanes::kEngine}) {
    const bool all = lanes == JobTable::Lanes::kAll;
    JobTable table(lanes);
    table.bind({});
    table.reserve(40);  // rounds up to 64
    table.reserve_stragglers(2);
    EXPECT_EQ(table.reserved(), 64u);
    EXPECT_EQ(table.capacity(), 16u);
    EXPECT_EQ(table.route_slots(), 16u);
    const auto fill = [&](JobId id) {
      const double x = static_cast<double>(id);
      table.remaining(id) = 0.5 * x;
      table.set_completion(id, 0.25 * x);
      if (id % 3 == 0) table.set_released(id);
      table.route(id) = route_for(id);
      if (all) {
        table.qedf_meta(id) = sim::QedfMeta{x, -x};
        table.ocl_timer(id) = static_cast<sim::TimerId>(7 * id);
        table.set_abandoned(id, id % 2 == 0);
        table.set_ocl_scheduled(id, id % 5 == 0);
      }
    };
    const auto expect_lanes = [&](JobId id) {
      const double x = static_cast<double>(id);
      EXPECT_TRUE(table.holds(id));
      EXPECT_EQ(table.job(id).id, id);
      EXPECT_EQ(table.job(id).workload, 1.0 + x);
      EXPECT_EQ(table.remaining(id), 0.5 * x);
      EXPECT_EQ(table.completion(id), 0.25 * x);
      EXPECT_EQ(table.outcome(id), JobOutcome::kPending);
      EXPECT_EQ(table.released(id), id % 3 == 0);
      expect_route(table.route(id), route_for(id));
      if (all) {
        EXPECT_EQ(table.qedf_meta(id).t_insert, x);
        EXPECT_EQ(table.qedf_meta(id).cslack_insert, -x);
        EXPECT_EQ(table.ocl_timer(id), static_cast<sim::TimerId>(7 * id));
        EXPECT_EQ(table.abandoned(id), id % 2 == 0);
        EXPECT_EQ(table.ocl_scheduled(id), id % 5 == 0);
      }
    };
    const auto admit = [&] {
      const JobId id = table.admit(make_job(1.0 + static_cast<double>(
                                                      table.end())));
      fill(id);
      return id;
    };
    // Move the base off slot 0 first, so the window wraps the ring.
    for (int i = 0; i < 16; ++i) admit();
    for (int i = 0; i < 5; ++i) {
      table.set_outcome(table.base(), JobOutcome::kCompleted);
      table.retire(table.base());
    }
    while (table.span() < 16) admit();
    ASSERT_EQ(table.capacity(), 16u);
    const double* remaining_lane = &table.remaining(table.base());
    const std::size_t base_slot =
        static_cast<std::size_t>(table.base()) & (table.capacity() - 1);
    remaining_lane -= base_slot;
    for (std::size_t want : {32u, 64u}) {
      admit();  // the full ring widens
      EXPECT_EQ(table.capacity(), want);
      EXPECT_EQ(table.route_slots(), want);
      EXPECT_EQ(table.straggler_count(), 0u);
      for (JobId id = table.base(); id < table.end(); ++id) expect_lanes(id);
      while (table.span() < table.capacity()) admit();
    }
    // The ring never left its first storage.
    const auto slot_of = [&](JobId id) {
      return static_cast<std::size_t>(id) & (table.capacity() - 1);
    };
    EXPECT_EQ(&table.remaining(table.base()) - slot_of(table.base()),
              remaining_lane);
    // At the reservation a full ring spills its base instead.
    const JobId spilled = table.base();
    admit();
    EXPECT_EQ(table.capacity(), 64u);
    ASSERT_EQ(table.straggler_count(), 1u);
    EXPECT_EQ(table.straggler(0), spilled);
    expect_lanes(spilled);
    for (JobId id = table.base(); id < table.end(); ++id) expect_lanes(id);
  }
}

TEST(JobTableTest, FullRingSpillsItsBaseInsteadOfDoubling) {
  // A pending job 0 at the base of a full ring: the next admission moves
  // it, every lane included, to the straggler store and advances the base,
  // so the ring keeps its pre-size. Once the store is full, the ring
  // doubles as it would without one.
  for (const JobTable::Lanes lanes :
       {JobTable::Lanes::kAll, JobTable::Lanes::kEngine}) {
    const bool all = lanes == JobTable::Lanes::kAll;
    JobTable table(lanes);
    table.reserve(4);
    table.reserve_stragglers(2);
    EXPECT_EQ(table.straggler_room(), 2u);
    for (int i = 0; i < 4; ++i) {
      const JobId id = table.admit(make_job(1.0 + i));
      table.route(id) = route_for(id);
      if (all) table.qedf_meta(id) = sim::QedfMeta{0.25 * i, 0.5 * i};
    }
    table.set_released(0);
    table.remaining(0) = 0.5;
    if (all) {
      table.ocl_timer(0) = 7;
      table.set_abandoned(0, true);
    }

    const JobId four = table.admit(make_job(5.0));
    EXPECT_EQ(four, 4);
    EXPECT_EQ(table.capacity(), 4u);
    EXPECT_EQ(table.base(), 1);
    ASSERT_EQ(table.straggler_count(), 1u);
    EXPECT_EQ(table.straggler(0), 0);
    EXPECT_EQ(table.span(), 4u);
    EXPECT_EQ(table.span_peak(), 5u);  // stragglers count in the span
    // Job 0 reads the same through every lane, and job 4 has its slot.
    EXPECT_TRUE(table.holds(0));
    EXPECT_EQ(table.job(0).id, 0);
    EXPECT_EQ(table.job(0).workload, 1.0);
    EXPECT_EQ(table.remaining(0), 0.5);
    EXPECT_TRUE(table.released(0));
    EXPECT_EQ(table.outcome(0), JobOutcome::kPending);
    expect_route(table.route(0), route_for(0));
    if (all) {
      EXPECT_EQ(table.qedf_meta(0).t_insert, 0.0);
      EXPECT_EQ(table.ocl_timer(0), 7u);
      EXPECT_TRUE(table.abandoned(0));
      EXPECT_FALSE(table.ocl_scheduled(0));
    }
    EXPECT_EQ(table.job(4).id, 4);
    EXPECT_EQ(table.remaining(4), 5.0);
    // Writes reach the store entry.
    table.route(0).cancelled = true;
    EXPECT_TRUE(table.route(0).cancelled);

    // Job 1 spills too; then the store is full and the ring doubles.
    table.admit(make_job(6.0));
    EXPECT_EQ(table.straggler_count(), 2u);
    EXPECT_EQ(table.straggler(1), 1);
    EXPECT_EQ(table.capacity(), 4u);
    table.admit(make_job(7.0));
    EXPECT_EQ(table.capacity(), 8u);
    EXPECT_EQ(table.base(), 2);
    EXPECT_EQ(table.straggler_peak(), 2u);

    // A spilled job retires out of order once it has an outcome.
    EXPECT_THROW(table.retire(1), CheckError);
    table.set_outcome(1, JobOutcome::kExpired);
    table.retire(1);
    EXPECT_FALSE(table.holds(1));
    EXPECT_TRUE(table.holds(0));
    EXPECT_EQ(table.straggler_count(), 1u);
    EXPECT_THROW(table.retire(3), CheckError);  // not the base
    table.set_outcome(0, JobOutcome::kCompleted);
    table.retire(0);
    EXPECT_EQ(table.straggler_count(), 0u);
    EXPECT_EQ(table.retired(), 2u);
    EXPECT_FALSE(table.holds(0));
  }
}

TEST(JobTableTest, SparseRingSpillsBelowItsReservationDenseRingWidens) {
  // A full ring below its reservation widens only when more than half of
  // its slots hold pending jobs. With at most half pending, the span is
  // outrunning the jobs in flight: the pending base spills and the ring
  // keeps its size. The same ring with more than half pending doubles and
  // spills nothing.
  const auto full_ring = [](JobTable& table, std::size_t pending) {
    table.reserve(64);
    table.reserve_stragglers(4);
    EXPECT_EQ(table.capacity(), 16u);
    for (int i = 0; i < 16; ++i) table.admit(make_job(1.0 + i));
    // Job 0 at the base and the newest `pending - 1` stay pending; the
    // resolved jobs between them cannot retire past the base.
    for (JobId id = 1; id < static_cast<JobId>(17 - pending); ++id) {
      table.set_outcome(id, JobOutcome::kCompleted);
    }
  };
  for (const std::size_t pending : {std::size_t{5}, std::size_t{8}}) {
    JobTable table;
    full_ring(table, pending);
    const JobId id = table.admit(make_job(20.0));
    EXPECT_EQ(id, 16);
    EXPECT_EQ(table.capacity(), 16u) << pending << " pending";
    ASSERT_EQ(table.straggler_count(), 1u) << pending << " pending";
    EXPECT_EQ(table.straggler(0), 0);
    EXPECT_EQ(table.base(), 1);
    EXPECT_EQ(table.job(0).workload, 1.0);
    EXPECT_EQ(table.outcome(0), JobOutcome::kPending);
    EXPECT_EQ(table.job(id).id, id);
  }
  JobTable dense;
  full_ring(dense, 9);
  const JobId id = dense.admit(make_job(20.0));
  EXPECT_EQ(id, 16);
  EXPECT_EQ(dense.capacity(), 32u);
  EXPECT_EQ(dense.straggler_count(), 0u);
  EXPECT_EQ(dense.base(), 0);
  for (JobId held = 0; held <= id; ++held) EXPECT_EQ(dense.job(held).id, held);
}

TEST(JobTableTest, BatchBindNeverSpills) {
  // A bound instance is its whole window: base 0, no stragglers, however
  // large the straggler store a previous live run reserved.
  JobTable table;
  table.reserve_stragglers(4);
  std::vector<Job> jobs;
  for (int i = 0; i < 40; ++i) {
    jobs.push_back(make_job(1.0 + i));
    jobs.back().id = i;
  }
  table.bind(jobs);
  EXPECT_EQ(table.base(), 0);
  EXPECT_EQ(table.straggler_count(), 0u);
  EXPECT_EQ(table.span_peak(), 40u);
  for (JobId id = 0; id < 40; ++id) EXPECT_EQ(table.job(id).id, id);
  // kNoJob is no held id, and reading below the base does not throw.
  EXPECT_FALSE(table.holds(kNoJob));
}

/// The reference keeps per-job state in ordered maps keyed by id. The
/// table retires like a serving session: a resolved spilled job in any
/// order, the ring from its base once that job has an outcome. Some jobs
/// stay pending for 5 x `reserve` admissions, so a full ring with few jobs
/// pending spills them, below its reservation too (from 16 slots when
/// `reserve` is larger), and a full store of four makes the ring double
/// instead, past the reservation too. The window must agree with the
/// reference on every observable after every operation.
void run_window_differential(std::size_t reserve) {
  constexpr std::size_t kRoom = 4;
  JobTable table;
  table.reserve(reserve);
  table.reserve_stragglers(kRoom);
  ASSERT_EQ(table.capacity(), std::min<std::size_t>(reserve, 16));
  const auto linger = static_cast<JobId>(5 * reserve);
  std::map<JobId, double> ref_remaining;
  std::map<JobId, JobOutcome> ref_outcome;
  std::map<JobId, ReplyRoute> ref_route;
  std::vector<JobId> retired;
  JobId next = 0;
  std::size_t sparse_spills = 0;  // spills of a ring below its reservation
  Rng rng(20250809);

  for (int step = 0; step < 20000; ++step) {
    const double roll = rng.uniform(0.0, 1.0);
    if (roll < 0.3 || ref_remaining.empty()) {
      const double workload = rng.uniform(0.5, 9.5);
      const std::size_t ring_before = table.capacity();
      const std::size_t spilled_before = table.straggler_count();
      std::size_t pending_before = 0;  // in the ring
      for (auto it = ref_outcome.lower_bound(table.base());
           it != ref_outcome.end(); ++it) {
        if (it->second == JobOutcome::kPending) ++pending_before;
      }
      // A full ring may widen only if it is below the reservation with
      // more than half its slots pending; otherwise it spills, and doubles
      // only with a full store.
      const bool may_widen = ring_before < table.reserved() &&
                             2 * pending_before > ring_before;
      const JobId id = table.admit(make_job(workload));
      ASSERT_EQ(id, next++);
      if (table.straggler_count() > spilled_before) {
        ASSERT_FALSE(may_widen);
        if (ring_before < table.reserved()) ++sparse_spills;
      }
      if (table.capacity() != ring_before) {
        ASSERT_EQ(table.capacity(), 2 * ring_before);
        if (!may_widen) ASSERT_EQ(spilled_before, kRoom);
      }
      ref_remaining[id] = workload;
      ref_outcome[id] = JobOutcome::kPending;
      // A fresh route, then the session's write of it.
      ASSERT_EQ(table.route(id).conn, -1);
      ASSERT_EQ(table.route(id).ticket, 0u);
      ASSERT_FALSE(table.route(id).cancelled);
      table.route(id) = route_for(id);
      ref_route[id] = route_for(id);
    } else if (roll < 0.7) {
      // Resolve one of the oldest held jobs (jobs resolve roughly in
      // admission order, so the window keeps moving), if still pending;
      // every id divisible by 97 lingers (a far deadline) until later.
      auto skip = static_cast<int>(rng.uniform(0.0, 4.0));
      auto it = ref_outcome.begin();
      while (it != ref_outcome.end() &&
             (it->second != JobOutcome::kPending ||
              (it->first % 97 == 0 && next - it->first < linger) ||
              skip-- > 0)) {
        ++it;
      }
      if (it != ref_outcome.end()) {
        const JobOutcome o = rng.uniform(0.0, 1.0) < 0.5
                                 ? JobOutcome::kCompleted
                                 : JobOutcome::kExpired;
        table.set_outcome(it->first, o);
        it->second = o;
      }
    } else if (roll < 0.85) {
      // Serve some work on a random held job, spilled ones included.
      auto it = ref_remaining.lower_bound(static_cast<JobId>(
          rng.uniform(static_cast<double>(ref_remaining.begin()->first),
                      static_cast<double>(next))));
      if (it != ref_remaining.end()) {
        const double served = rng.uniform(0.0, 0.5);
        table.remaining(it->first) -= served;
        it->second -= served;
        // A cancel flips the route's flag in place.
        if (served < 0.1) {
          table.route(it->first).cancelled = true;
          ref_route[it->first].cancelled = true;
        }
      }
    } else {
      const auto forget = [&](JobId id) {
        ref_outcome.erase(id);
        ref_remaining.erase(id);
        ref_route.erase(id);
        retired.push_back(id);
      };
      // Retire some resolved spilled jobs, in whatever order they come...
      std::vector<JobId> spilled;
      for (const auto& [id, o] : ref_outcome) {
        if (id >= table.base()) break;
        if (o != JobOutcome::kPending) spilled.push_back(id);
      }
      std::reverse(spilled.begin(), spilled.end());
      for (const JobId id : spilled) {
        if (rng.uniform(0.0, 1.0) < 0.3) continue;
        table.retire(id);
        forget(id);
      }
      // ...then every resolved job at the ring's base.
      while (table.span() > 0 &&
             ref_outcome.at(table.base()) != JobOutcome::kPending) {
        const JobId id = table.base();
        table.retire(table.base());
        forget(id);
      }
    }

    // Full-state comparison every step: each held id's slot (or store
    // entry) holds that id, and the store holds exactly the ids below the
    // base, in order.
    ASSERT_EQ(table.span() + table.straggler_count(), ref_remaining.size());
    std::size_t below = 0;
    for (const auto& [id, rem] : ref_remaining) {
      if (id < table.base()) {
        ASSERT_LT(below, table.straggler_count());
        ASSERT_EQ(table.straggler(below++), id);
      }
      ASSERT_TRUE(table.holds(id));
      ASSERT_EQ(table.job(id).id, id) << "slot does not hold job " << id;
      ASSERT_EQ(table.remaining(id), rem);
      ASSERT_EQ(table.outcome(id), ref_outcome[id]);
      const ReplyRoute& got = table.route(id);
      const ReplyRoute& want = ref_route[id];
      ASSERT_EQ(got.conn, want.conn);
      ASSERT_EQ(got.gen, want.gen);
      ASSERT_EQ(got.seq, want.seq);
      ASSERT_EQ(got.ticket, want.ticket);
      ASSERT_EQ(got.cancelled, want.cancelled);
    }
    ASSERT_EQ(below, table.straggler_count());
    if (!retired.empty()) {
      const JobId stale = retired[static_cast<std::size_t>(rng.uniform(
          0.0, static_cast<double>(retired.size() - 1)))];
      ASSERT_FALSE(table.holds(stale));
    }
  }

  // Retirement kept the ring far below the number of admissions, jobs
  // spilled, and the store never outgrew its room.
  EXPECT_GT(next, 4000);
  EXPECT_LT(table.capacity(), static_cast<std::size_t>(next) / 4);
  EXPECT_GT(table.straggler_peak(), 0u);
  EXPECT_LE(table.straggler_peak(), kRoom);
  EXPECT_GE(table.capacity(), table.reserved());
  if (reserve > 16) EXPECT_GT(sparse_spills, 0u);
  EXPECT_EQ(table.retired() + table.span() + table.straggler_count(),
            static_cast<std::uint64_t>(next));
}

TEST(JobTableTest, RandomizedDifferentialAgainstAosReference) {
  run_window_differential(8);   // the ring starts at its reservation
  run_window_differential(64);  // the ring starts at 16 and widens to 64
}

TEST(JobTableTest, ChurnKeepsSlotsBoundedByPeakOccupancy) {
  // Cycle far more admissions through the window than it ever holds at
  // once, retiring in id order: the ring must stay at its pre-size — the
  // bounded-memory contract for unbounded-session serving.
  constexpr std::size_t kWindow = 64;
  constexpr int kOps = 100000;
  JobTable table;
  table.reserve(kWindow);
  Rng rng(777);
  for (int i = 0; i < kOps; ++i) {
    const JobId id = table.admit(make_job(rng.uniform(1.0, 2.0)));
    table.set_outcome(id, JobOutcome::kCompleted);
    if (table.span() == kWindow) {
      while (table.span() > 0) table.retire(table.base());
    }
  }
  EXPECT_EQ(table.span_peak(), kWindow);
  EXPECT_EQ(table.capacity(), kWindow);
  EXPECT_EQ(table.end(), kOps);
}

TEST(JobTableTest, DenseRebindInvalidatesPriorHandlesByContract) {
  std::vector<Job> jobs{Job{0, 0.0, 1.0, 10.0, 1.0},
                        Job{1, 0.0, 2.0, 10.0, 1.0}};
  JobTable table;
  table.bind(jobs);
  table.remaining(0) = 0.25;
  table.set_released(1);
  table.set_outcome(0, JobOutcome::kCompleted);
  table.retire(table.base());
  ASSERT_EQ(table.base(), 1);

  // Rebinding the same instance resets the window and every slot to its
  // initial state.
  table.bind(jobs);
  EXPECT_EQ(table.base(), 0);
  EXPECT_EQ(table.end(), 2);
  EXPECT_EQ(table.remaining(0), 1.0);
  EXPECT_FALSE(table.released(1));
  EXPECT_EQ(table.outcome(0), JobOutcome::kPending);
  EXPECT_EQ(table.span(), 2u);
}

TEST(JobTableTest, BatchBindBorrowsTheRecordsUntilOwned) {
  std::vector<Job> jobs;
  for (int i = 0; i < 5; ++i) {
    jobs.push_back(Job{static_cast<JobId>(i), 0.0, 1.0 + i, 10.0, 1.0});
  }
  JobTable table;
  table.bind(jobs);
  // A batch window reads the instance's own records, not copies, and sizes
  // no reply-route lane.
  EXPECT_EQ(&table.job(3), &jobs[3]);
  EXPECT_EQ(table.route_slots(), 0u);
  EXPECT_THROW(table.admit(make_job(1.0)), CheckError);
  // Owned, the window keeps every record and admits after them; the bound
  // vector may then change without the window seeing it.
  table.own_records();
  EXPECT_NE(&table.job(3), &jobs[3]);
  EXPECT_EQ(table.route_slots(), table.capacity());
  EXPECT_EQ(table.admit(make_job(9.0)), 5);
  table.route(5) = route_for(5);
  expect_route(table.route(5), route_for(5));
  expect_route(table.route(3), ReplyRoute{});
  jobs.assign(jobs.size(), Job{});
  for (JobId id = 0; id < 5; ++id) {
    EXPECT_EQ(table.job(id).id, id);
    EXPECT_EQ(table.job(id).workload, 1.0 + static_cast<double>(id));
  }
  EXPECT_EQ(table.job(5).workload, 9.0);
  // Rebinding an empty instance starts a live window with owned records,
  // even after a borrowed bind left the record lane short.
  JobTable live;
  std::vector<Job> many(40, Job{kNoJob, 0.0, 1.0, 10.0, 1.0});
  for (std::size_t i = 0; i < many.size(); ++i) {
    many[i].id = static_cast<JobId>(i);
  }
  live.bind(many);
  EXPECT_EQ(live.route_slots(), 0u);
  live.bind({});
  EXPECT_EQ(live.route_slots(), live.capacity());
  for (int i = 0; i < 40; ++i) {
    EXPECT_EQ(live.admit(make_job(2.0)), i);
    live.route(i) = route_for(i);
  }
  EXPECT_EQ(live.job(39).id, 39);
  expect_route(live.route(39), route_for(39));
}

TEST(JobTableTest, EngineLanesOnlyTableServesTheEngineLanes) {
  // The fleet's table: the record, remaining, completion, outcome and
  // released lanes, through batch bind, live admission and ring growth.
  std::vector<Job> jobs{Job{0, 0.0, 1.5, 10.0, 1.0},
                        Job{1, 0.0, 2.5, 10.0, 1.0}};
  JobTable table(JobTable::Lanes::kEngine);
  table.bind(jobs);
  EXPECT_EQ(table.remaining(1), 2.5);
  EXPECT_TRUE(std::isnan(table.completion(0)));
  table.own_records();
  for (int i = 0; i < 100; ++i) table.admit(make_job(1.0 + i));
  EXPECT_EQ(table.end(), 102);
  EXPECT_GE(table.capacity(), 128u);
  EXPECT_EQ(table.job(1).workload, 2.5);
  EXPECT_EQ(table.remaining(101), 100.0);
  table.set_outcome(0, JobOutcome::kCompleted);
  table.set_completion(0, 0.5);
  table.retire(table.base());
  EXPECT_FALSE(table.holds(0));
  EXPECT_EQ(table.outcome(1), JobOutcome::kPending);
}

}  // namespace
}  // namespace sjs
