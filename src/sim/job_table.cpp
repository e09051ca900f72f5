#include "sim/job_table.hpp"

#include <algorithm>
#include <bit>
#include <limits>

#include "util/logging.hpp"
#include "util/vec.hpp"

namespace sjs::sim {

namespace {

/// Moves the window [base, end) of `lane` from its slots under `old_mask`
/// to its slots in a fresh lane of `slots` entries.
template <typename T>
void reslot(std::vector<T>& lane, std::size_t slots, JobId base, JobId end,
            std::size_t old_mask) {
  std::vector<T> fresh;
  util::grow(fresh, slots);
  const std::size_t new_mask = slots - 1;
  for (JobId id = base; id < end; ++id) {
    const auto i = static_cast<std::size_t>(id);
    fresh[i & new_mask] = lane[i & old_mask];
  }
  lane.swap(fresh);
}

}  // namespace

void JobTable::resize_ring(std::size_t slots) {
  SJS_CHECK(std::has_single_bit(slots) && slots >= span());
  if (span() == 0) {
    // Nothing to carry over: plain growth keeps the buffers (and never
    // shrinks them).
    if (!borrowed_) {
      util::grow(jobs_, slots);
      util::grow(routes_, slots);
    }
    util::grow(remaining_, slots);
    util::grow(completion_, slots);
    util::grow(outcome_, slots);
    util::grow(released_, slots);
    if (lanes_ == Lanes::kAll) {
      util::grow(qedf_meta_, slots);
      util::grow(ocl_timer_, slots);
      util::grow(abandoned_, slots);
      util::grow(ocl_scheduled_, slots);
    }
  } else {
    // Borrowed records stay where they are: id & mask is the id itself
    // under every mask at least as wide as the bound instance.
    if (!borrowed_) {
      reslot(jobs_, slots, base_, end_, mask_);
      reslot(routes_, slots, base_, end_, mask_);
    }
    reslot(remaining_, slots, base_, end_, mask_);
    reslot(completion_, slots, base_, end_, mask_);
    reslot(outcome_, slots, base_, end_, mask_);
    reslot(released_, slots, base_, end_, mask_);
    if (lanes_ == Lanes::kAll) {
      reslot(qedf_meta_, slots, base_, end_, mask_);
      reslot(ocl_timer_, slots, base_, end_, mask_);
      reslot(abandoned_, slots, base_, end_, mask_);
      reslot(ocl_scheduled_, slots, base_, end_, mask_);
    }
  }
  mask_ = slots - 1;
  if (!borrowed_) records_ = jobs_.data();
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
    util::grow(jobs_, capacity());
    util::grow(routes_, capacity());
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
  util::grow(jobs_, capacity());
  for (JobId id = base_; id < end_; ++id) jobs_[slot(id)] = records_[slot(id)];
  util::grow(routes_, capacity());
  borrowed_ = false;
  records_ = jobs_.data();
}

void JobTable::reserve(std::size_t n) {
  if (n > capacity()) resize_ring(std::bit_ceil(n));
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

JobId JobTable::admit(const Job& job) {
  SJS_CHECK_MSG(!borrowed_, "admit into a window of borrowed records");
  if (span() == capacity()) {
    if (span() > 0 && stragglers_.size() < straggler_room_) {
      spill_front();
    } else {
      // No room to spill: double the ring (or create it) and re-slot.
      resize_ring(capacity() == 0 ? 16 : 2 * capacity());
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
