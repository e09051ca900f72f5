// JobTable — the engine's per-job state: one window over admission ids.
//
// Every per-job table the engine, the schedulers and a serving session keep
// (the job record, remaining workload, outcome, completion instant, released
// flag, V-Dover's Qedf metadata / 0cl timer handle / abandoned and
// 0cl-scheduled flags, the session's reply route) is one contiguous lane
// here. A JobId is the dense admission index (0, 1, 2, ...), so digests,
// journal rows, ReadyQueue tie-breaks and the event order are exactly those
// of a plain per-run vector.
//
// The lanes form a power-of-two ring indexed by `id & mask`. The window is
// the id range [base(), end()): end() is the next id admit() hands out, and
// base() is the lowest id not yet retired. retire_front() retires the job at
// base() once it has an outcome, so a live session's memory is bounded by
// the span of unretired ids, not by the number of jobs it ever admitted. The
// ring is pre-sized by reserve() (the serve plane passes --max-in-flight)
// and doubles, re-slotting the window, only when the span outgrows it.
//
// A batch run is the same window over the whole sealed instance (bind()):
// ids [0, n), nothing ever retires. Its job records are read from the
// instance's own vector, which outlives the run, instead of being copied;
// a live session owns its records (own_records()). The reply-route lane
// follows the records: a borrowed window neither sizes nor fills it.
//
// Retired ids are dead: holds(id) is false for them, and the engine treats
// any event still queued for one (a completed job's expiry, a stale
// completion, a timer) as dead before it reads a lane. Hot accessors index
// the ring without re-checking the window; the job lane keeps each record's
// id, so job(id).id == id is the check that a slot holds the id it is read
// for (tests/job_table_test.cpp).
#pragma once

#include <cstdint>
#include <utility>
#include <vector>

#include "jobs/job.hpp"
#include "sim/result.hpp"
#include "sim/scheduler.hpp"

namespace sjs::sim {

/// Qedf bookkeeping (V-Dover, paper Sec. III-D): the time and cSlack at the
/// moment the job was inserted into Qedf, consumed by the cSlack update on
/// completion. Lives here rather than in the scheduler so the lane is part of
/// the pre-sized window.
struct QedfMeta {
  double t_insert = 0.0;
  double cslack_insert = 0.0;
};

/// Where serve::Session sends an unretired job's replies; the engine never
/// reads it. The generation guards against conn-id reuse after a disconnect.
struct ReplyRoute {
  int conn = -1;
  std::uint64_t gen = 0;
  std::uint64_t seq = 0;     // the SUBMIT's seq, echoed in notifications
  std::uint64_t ticket = 0;  // the job's wire ticket
  bool cancelled = false;
};

class JobTable {
 public:
  /// Which lanes a table keeps. cloud::MultiEngine's global schedulers keep
  /// their own per-job state, so the fleet's table sizes and initialises
  /// only the engine's lanes (the job record, remaining, completion,
  /// outcome, released) and, with owned records, the reply route; the
  /// scheduler lanes (V-Dover's Qedf metadata, 0cl timer, abandoned and
  /// 0cl-scheduled flags, EDF-AC's admission scratch) stay empty and must
  /// not be read.
  enum class Lanes { kAll, kEngine };

  explicit JobTable(Lanes lanes = Lanes::kAll) : lanes_(lanes) {}
  // job() reads through a pointer into the owned records: a copy would
  // read the original's. A move carries the buffer, and the pointer with it.
  JobTable(const JobTable&) = delete;
  JobTable& operator=(const JobTable&) = delete;
  JobTable(JobTable&&) = default;
  JobTable& operator=(JobTable&&) = default;

  /// The window over a sealed instance: ids [0, n), slot i holding job i's
  /// initial state. Keeps ring capacity across calls (the Monte-Carlo driver
  /// rebinds one engine per cell); ids from before a rebind are void by
  /// contract. A non-empty `jobs` is borrowed, not copied: job(id) reads
  /// jobs[id] until own_records(), so `jobs` must stay alive and unchanged
  /// until then.
  void bind(const std::vector<Job>& jobs);

  /// Copies borrowed job records into the ring and sizes the reply-route
  /// lane (no-op when it owns them). admit() requires owned records: a live
  /// engine calls this as it enters live mode, before anything can append
  /// to the bound vector.
  void own_records();

  /// Pre-sizes the ring for a span of `n` ids (rounded up to a power of
  /// two).
  void reserve(std::size_t n);

  /// Admits `job` at id end() with fresh lanes and returns that id (the
  /// record's own id field is overwritten with it). Doubles the ring when
  /// the span would outgrow it.
  JobId admit(const Job& job);

  /// Retires the job at base(), which must have an outcome; its slot is
  /// free for a later admission.
  void retire_front();

  JobId base() const { return base_; }
  JobId end() const { return end_; }
  /// Whether `id` is admitted and not retired.
  bool holds(JobId id) const { return id >= base_ && id < end_; }
  /// Unretired ids.
  std::size_t span() const { return static_cast<std::size_t>(end_ - base_); }
  /// Peak span since the last bind().
  std::size_t span_peak() const { return span_peak_; }
  /// Ring slots (a power of two, or 0 before any reserve/bind/admit).
  std::size_t capacity() const { return remaining_.size(); }
  /// Slots of the reply-route lane: capacity() once the table owns its
  /// records, 0 in a table that has only borrowed them.
  std::size_t route_slots() const { return routes_.size(); }

  // --- Lanes (unchecked ring indexing, see the header note) -----------------

  const Job& job(JobId id) const { return records_[slot(id)]; }

  double remaining(JobId id) const { return remaining_[slot(id)]; }
  double& remaining(JobId id) { return remaining_[slot(id)]; }

  JobOutcome outcome(JobId id) const { return outcome_[slot(id)]; }
  void set_outcome(JobId id, JobOutcome o) { outcome_[slot(id)] = o; }

  /// Completion instant; NaN unless the job completed.
  double completion(JobId id) const { return completion_[slot(id)]; }
  void set_completion(JobId id, double t) { completion_[slot(id)] = t; }

  bool released(JobId id) const { return released_[slot(id)] != 0; }
  void set_released(JobId id) { released_[slot(id)] = 1; }

  QedfMeta& qedf_meta(JobId id) { return qedf_meta_[slot(id)]; }
  const QedfMeta& qedf_meta(JobId id) const { return qedf_meta_[slot(id)]; }

  TimerId& ocl_timer(JobId id) { return ocl_timer_[slot(id)]; }
  TimerId ocl_timer(JobId id) const { return ocl_timer_[slot(id)]; }

  bool abandoned(JobId id) const { return abandoned_[slot(id)] != 0; }
  void set_abandoned(JobId id, bool v) { abandoned_[slot(id)] = v ? 1 : 0; }

  bool ocl_scheduled(JobId id) const { return ocl_scheduled_[slot(id)] != 0; }
  void set_ocl_scheduled(JobId id, bool v) {
    ocl_scheduled_[slot(id)] = v ? 1 : 0;
  }

  /// The reply route (owned records only).
  ReplyRoute& route(JobId id) { return routes_[slot(id)]; }
  const ReplyRoute& route(JobId id) const { return routes_[slot(id)]; }

  /// EDF-AC's trial-schedule scratch (deadline, remaining) — a table-owned
  /// buffer so the admission test reuses one allocation across calls. Exposed
  /// const-callable (mutable member) because the admission test is a const
  /// query; contents are meaningless between calls.
  std::vector<std::pair<double, double>>& admission_scratch() const {
    return admission_scratch_;
  }

 private:
  std::size_t slot(JobId id) const {
    return static_cast<std::size_t>(id) & mask_;
  }
  /// Resizes every lane to `slots` (a power of two >= span()), moving the
  /// window's jobs to their slots under the new mask.
  void resize_ring(std::size_t slots);
  /// Resets slot `s` to `job`'s initial state (owned records only).
  void init_slot(std::size_t s, const Job& job);

  /// Where job(id) reads: jobs_.data(), or the bound vector while borrowed_.
  const Job* records_ = nullptr;
  bool borrowed_ = false;
  std::vector<Job> jobs_;  // the owned records (unread while borrowed_)
  std::vector<ReplyRoute> routes_;  // sized with jobs_, never while borrowed_
  std::vector<double> remaining_;
  std::vector<double> completion_;
  std::vector<JobOutcome> outcome_;
  std::vector<std::uint8_t> released_;
  std::vector<QedfMeta> qedf_meta_;
  std::vector<TimerId> ocl_timer_;
  std::vector<std::uint8_t> abandoned_;
  std::vector<std::uint8_t> ocl_scheduled_;

  Lanes lanes_;
  std::size_t mask_ = 0;
  JobId base_ = 0;
  JobId end_ = 0;
  std::size_t span_peak_ = 0;

  mutable std::vector<std::pair<double, double>> admission_scratch_;
};

}  // namespace sjs::sim
