#include "sim/job_table.hpp"

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
    util::grow(jobs_, slots);
    util::grow(remaining_, slots);
    util::grow(completion_, slots);
    util::grow(outcome_, slots);
    util::grow(released_, slots);
    util::grow(qedf_meta_, slots);
    util::grow(ocl_timer_, slots);
    util::grow(abandoned_, slots);
    util::grow(ocl_scheduled_, slots);
  } else {
    reslot(jobs_, slots, base_, end_, mask_);
    reslot(remaining_, slots, base_, end_, mask_);
    reslot(completion_, slots, base_, end_, mask_);
    reslot(outcome_, slots, base_, end_, mask_);
    reslot(released_, slots, base_, end_, mask_);
    reslot(qedf_meta_, slots, base_, end_, mask_);
    reslot(ocl_timer_, slots, base_, end_, mask_);
    reslot(abandoned_, slots, base_, end_, mask_);
    reslot(ocl_scheduled_, slots, base_, end_, mask_);
  }
  mask_ = slots - 1;
}

void JobTable::init_slot(std::size_t s, const Job& job) {
  jobs_[s] = job;
  remaining_[s] = job.workload;
  completion_[s] = std::numeric_limits<double>::quiet_NaN();
  outcome_[s] = JobOutcome::kPending;
  released_[s] = 0;
  qedf_meta_[s] = QedfMeta{};
  ocl_timer_[s] = kNoTimer;
  abandoned_[s] = 0;
  ocl_scheduled_[s] = 0;
}

void JobTable::bind(const std::vector<Job>& jobs) {
  const std::size_t n = jobs.size();
  base_ = 0;
  end_ = 0;
  if (n > capacity()) resize_ring(std::bit_ceil(n));
  for (std::size_t i = 0; i < n; ++i) init_slot(i, jobs[i]);
  end_ = static_cast<JobId>(n);
  span_peak_ = n;
}

void JobTable::reserve(std::size_t n) {
  if (n > capacity()) resize_ring(std::bit_ceil(n));
  admission_scratch_.reserve(n + 2);
}

JobId JobTable::admit(const Job& job) {
  if (span() == capacity()) {
    // The window outgrew the ring: double it (or create it) and re-slot.
    resize_ring(capacity() == 0 ? 16 : 2 * capacity());
  }
  const JobId id = end_++;
  init_slot(slot(id), job);
  jobs_[slot(id)].id = id;
  if (span() > span_peak_) span_peak_ = span();
  return id;
}

void JobTable::retire_front() {
  SJS_CHECK_MSG(base_ < end_, "retire_front on an empty window");
  SJS_CHECK_MSG(outcome(base_) != JobOutcome::kPending,
                "retire_front of job " << base_ << " with no outcome");
  ++base_;
}

}  // namespace sjs::sim
