#include "sim/job_table.hpp"

#include <algorithm>
#include <bit>
#include <limits>

#include "util/logging.hpp"
#include "util/vec.hpp"

namespace sjs::sim {

namespace {

/// util::grow, out of line: one copy per lane type serves every call site.
template <typename T>
[[gnu::noinline]] void grow_lane(std::vector<T>& lane, std::size_t n) {
  util::grow(lane, n);
}

}  // namespace

template <typename F>
void JobTable::for_each_lane(F&& f) {
  if (!borrowed_) {
    f(jobs_);
    f(routes_);
  }
  f(remaining_);
  f(completion_);
  f(outcome_);
  f(released_);
  if (lanes_ == Lanes::kAll) {
    f(qedf_meta_);
    f(ocl_timer_);
    f(abandoned_);
    f(ocl_scheduled_);
  }
}

void JobTable::resize_ring(std::size_t slots) {
  // An empty ring has nothing to carry over: plain growth keeps the
  // buffers (and never shrinks them).
  SJS_CHECK(std::has_single_bit(slots) && span() == 0);
  for_each_lane([slots](auto& lane) { grow_lane(lane, slots); });
  mask_ = slots - 1;
  if (!borrowed_) records_ = jobs_.data();
}

void JobTable::widen_ring() {
  // Each lane grows within its reserved capacity (past it, util::grow
  // reallocates with the contents kept) and the movers follow the one ring
  // rule.
  const std::size_t old = capacity();
  const auto base = static_cast<std::uint64_t>(base_);
  for_each_lane([old, base](auto& lane) {
    grow_lane(lane, 2 * old);
    util::ring_widen(lane.data(), old, base, old);
  });
  mask_ = 2 * old - 1;
  records_ = jobs_.data();
}

void JobTable::init_slot(std::size_t s, const Job& job) {
  jobs_[s] = job;
  routes_[s] = ReplyRoute{};
  remaining_[s] = job.workload;
  completion_[s] = std::numeric_limits<double>::quiet_NaN();
  outcome_[s] = JobOutcome::kPending;
  released_[s] = 0;
  if (lanes_ == Lanes::kAll) {
    qedf_meta_[s] = QedfMeta{};
    ocl_timer_[s] = kNoTimer;
    abandoned_[s] = 0;
    ocl_scheduled_[s] = 0;
  }
}

void JobTable::bind(const std::vector<Job>& jobs) {
  const std::size_t n = jobs.size();
  base_ = 0;
  end_ = 0;
  stragglers_.clear();
  straggler_peak_ = 0;
  retired_ = 0;
  // An empty instance is a live session's start: nothing to borrow.
  borrowed_ = n > 0;
  if (n > capacity()) resize_ring(std::bit_ceil(n));
  // Owned records fill every slot (a borrowed bind may have left the lanes
  // short).
  if (!borrowed_) {
    grow_lane(jobs_, capacity());
    grow_lane(routes_, capacity());
  }
  records_ = borrowed_ ? jobs.data() : jobs_.data();
  // init_slot for slots [0, n), a lane at a time, the records apart.
  for (std::size_t i = 0; i < n; ++i) remaining_[i] = jobs[i].workload;
  std::fill_n(completion_.begin(), n,
              std::numeric_limits<double>::quiet_NaN());
  std::fill_n(outcome_.begin(), n, JobOutcome::kPending);
  std::fill_n(released_.begin(), n, std::uint8_t{0});
  if (lanes_ == Lanes::kAll) {
    std::fill_n(qedf_meta_.begin(), n, QedfMeta{});
    std::fill_n(ocl_timer_.begin(), n, kNoTimer);
    std::fill_n(abandoned_.begin(), n, std::uint8_t{0});
    std::fill_n(ocl_scheduled_.begin(), n, std::uint8_t{0});
  }
  end_ = static_cast<JobId>(n);
  span_peak_ = n;
}

void JobTable::own_records() {
  if (!borrowed_) return;
  // The records lanes join the others' reservation, so the ring can widen
  // into it.
  jobs_.reserve(std::max(reserved_, capacity()));
  routes_.reserve(std::max(reserved_, capacity()));
  grow_lane(jobs_, capacity());
  for (JobId id = base_; id < end_; ++id) jobs_[slot(id)] = records_[slot(id)];
  grow_lane(routes_, capacity());
  borrowed_ = false;
  records_ = jobs_.data();
}

void JobTable::reserve(std::size_t n) {
  const std::size_t slots = std::bit_ceil(std::max<std::size_t>(n, 1));
  if (slots > reserved_) {
    // Capacity only: no page of it is written until the ring widens into
    // it.
    for_each_lane([slots](auto& lane) { lane.reserve(slots); });
    reserved_ = slots;
  }
  if (capacity() == 0) resize_ring(std::min(kFirstSlots, reserved_));
  if (lanes_ == Lanes::kAll) admission_scratch_.reserve(n + 2);
}

void JobTable::reserve_stragglers(std::size_t n) {
  // Reserved, not resized: a store entry is written only when a job spills.
  stragglers_.reserve(n);
  straggler_room_ = std::max(straggler_room_, n);
}

const JobTable::Straggler* JobTable::find_spilled(JobId id) const {
  const auto it = std::lower_bound(
      stragglers_.begin(), stragglers_.end(), id,
      [](const Straggler& s, JobId key) { return s.job.id < key; });
  return it != stragglers_.end() && it->job.id == id ? &*it : nullptr;
}

void JobTable::spill_front() {
  const std::size_t s = slot(base_);
  Straggler entry{};
  entry.job = jobs_[s];
  entry.route = routes_[s];
  entry.remaining = remaining_[s];
  entry.completion = completion_[s];
  entry.outcome = outcome_[s];
  entry.released = released_[s];
  if (lanes_ == Lanes::kAll) {
    entry.qedf_meta = qedf_meta_[s];
    entry.ocl_timer = ocl_timer_[s];
    entry.abandoned = abandoned_[s];
    entry.ocl_scheduled = ocl_scheduled_[s];
  }
  // Ids spill in base order, so the store stays sorted; it never outgrows
  // its reservation (admit() checks the room).
  util::append(stragglers_, entry);
  straggler_peak_ = std::max(straggler_peak_, stragglers_.size());
  ++base_;
}

bool JobTable::mostly_pending() const {
  // Only a full ring asks, so every slot holds a job of [base(), end()).
  const auto pending = static_cast<std::size_t>(
      std::count(outcome_.begin(), outcome_.end(), JobOutcome::kPending));
  return 2 * pending > capacity();
}

JobId JobTable::admit(const Job& job) {
  SJS_CHECK_MSG(!borrowed_, "admit into a window of borrowed records");
  if (span() == capacity()) {
    if (capacity() == 0) {
      resize_ring(kFirstSlots);
    } else if (stragglers_.size() < straggler_room_ &&
               (capacity() >= reserved_ || !mostly_pending())) {
      // At the reservation, or below it with the span outrunning the jobs
      // in flight: the base spills.
      spill_front();
    } else {
      // More than half the ring pending below the reservation, or no room
      // to spill: double the ring.
      widen_ring();
    }
  }
  const JobId id = end_++;
  init_slot(slot(id), job);
  jobs_[slot(id)].id = id;
  const JobId lowest = stragglers_.empty() ? base_ : stragglers_.front().job.id;
  span_peak_ = std::max(span_peak_, static_cast<std::size_t>(end_ - lowest));
  return id;
}

void JobTable::retire(JobId id) {
  SJS_CHECK_MSG(holds(id), "retire of job " << id << ", which is not held");
  SJS_CHECK_MSG(outcome(id) != JobOutcome::kPending,
                "retire of job " << id << " with no outcome");
  if (id < base_) {
    stragglers_.erase(stragglers_.begin() +
                      (find_spilled(id) - stragglers_.data()));
  } else {
    SJS_CHECK_MSG(id == base_, "retire out of order: job "
                                   << id << ", window base " << base_);
    ++base_;
  }
  ++retired_;
}

}  // namespace sjs::sim
