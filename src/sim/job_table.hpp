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
// The lanes form a power-of-two ring indexed by `id & mask`. The ring holds
// the id range [base(), end()): end() is the next id admit() hands out.
// retire(base()) retires the job at the base once it has an outcome, so a
// live session's memory does not grow with the number of jobs it admits.
//
// A pre-size is a reservation. reserve() (the serve plane passes
// --max-in-flight) reserves every lane's capacity for its slots, but the
// ring starts at min(16, reserved()) slots, and admit() may double a full
// ring in place while it is below the reservation (when, see below): the
// lanes grow within their capacity, so no allocation happens, and only the
// ids whose slot moves under the wider mask are copied, into the fresh
// upper half (util::ring_widen, the rule serve::Journal's held rows follow
// too). A page of the reservation is thus touched only once the ring
// widens into it, and a session's memory follows its load, not its
// pre-size.
//
// Stragglers. In the paper's model a job keeps its slack until its
// deadline, so one far-deadline job would pin the base while thousands of
// later jobs come and go, and the ring would have to grow with the arrival
// rate times the longest deadline. A live engine therefore also reserves a
// straggler store (reserve_stragglers(), sized from --max-in-flight). When
// admit() finds the ring full it spills the job at base() — every lane of
// it, the reply route included — into that store, and advances the base.
// A spilled job stays in the store, below base() and in id order, until
// retire(id) takes it out. The ring is thus bounded by its pre-size, the
// store by the jobs in flight (a spilled job is unresolved when it spills,
// and the serving session retires it as soon as it resolves), and only the
// span of unretired ids — end() minus the lowest unretired id, span_peak()
// — still follows the longest deadline.
//
// The window follows the jobs in flight, not the span. A full ring below
// its reservation doubles only when more than half of its slots hold
// pending jobs (a scan of the 1-byte outcome lane, made only by an admit
// that finds the ring full); otherwise the span is outrunning the work, and
// the base spills as it does at the reservation. A ring thus doubles from C
// slots only while more than C/2 jobs are pending, so below its reservation
// it stays under max(16, 4 x its pending peak), whatever the deadlines, and
// resolved jobs queued behind a straggler hold no lane. A table with no
// store (a batch run, or no reserve_stragglers()) or a full one doubles the
// ring instead, past the reservation too, in place the same way (past the
// lanes' capacity the growth reallocates, with the contents kept).
//
// A batch run is the same window over the whole sealed instance (bind()):
// ids [0, n), nothing ever spills or retires, and the base stays 0, so a
// lane read costs one extra, always-false compare against it. Its job
// records are read from the instance's own vector, which outlives the run,
// instead of being copied; a live session owns its records (own_records()).
// The reply-route lane follows the records: a borrowed window neither sizes
// nor fills it.
//
// Retired ids are dead: holds(id) is false for them, and the engine treats
// any event still queued for one (a completed job's expiry, a stale
// completion, a timer) as dead before it reads a lane. Hot accessors index
// the ring without re-checking the window (an id below the base is looked
// up in the store first); the job lane keeps each record's id,
// so job(id).id == id is the check that a slot holds the id it is read for
// (tests/job_table_test.cpp).
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

  /// Reserves every lane's capacity for a span of `n` ids (rounded up to a
  /// power of two) without writing it, and starts an empty ring at
  /// min(16, reserved()) slots. admit() widens the ring into the
  /// reservation as the span needs it.
  void reserve(std::size_t n);

  /// Reserves room for `n` spilled jobs (see the header note). The store's
  /// memory is reserved, not written: its pages are touched only as jobs
  /// spill.
  void reserve_stragglers(std::size_t n);

  /// Admits `job` at id end() with fresh lanes and returns that id (the
  /// record's own id field is overwritten with it). When the ring is full it
  /// spills the job at base() into the straggler store, unless it is below
  /// reserved() with more than half its slots pending; then, or when the
  /// store has no room, it doubles in place (past the reservation only with
  /// no room to spill).
  JobId admit(const Job& job);

  /// Retires job `id`, which must have an outcome and be either base() or a
  /// spilled job; its slot is free for a later admission.
  void retire(JobId id);

  JobId base() const { return base_; }
  JobId end() const { return end_; }
  /// Whether `id` is admitted and not retired.
  bool holds(JobId id) const {
    return id < end_ && (id >= base_ || find_spilled(id) != nullptr);
  }
  /// Ids in the ring, [base(), end()).
  std::size_t span() const { return static_cast<std::size_t>(end_ - base_); }
  /// Peak span of unretired ids since the last bind(): end() minus the
  /// lowest unretired id, spilled jobs included (it may exceed capacity()).
  std::size_t span_peak() const { return span_peak_; }
  /// Ring slots in use (a power of two, or 0 before any
  /// reserve/bind/admit).
  std::size_t capacity() const { return remaining_.size(); }
  /// Slots reserve() reserved (a power of two, 0 without a reserve()); the
  /// ring widens in place up to this many.
  std::size_t reserved() const { return reserved_; }
  /// Slots of the reply-route lane: capacity() once the table owns its
  /// records, 0 in a table that has only borrowed them.
  std::size_t route_slots() const { return routes_.size(); }
  /// Jobs retired since the last bind().
  std::uint64_t retired() const { return retired_; }

  /// Spilled, unretired jobs, below base() in id order: straggler(i) is the
  /// id of the i-th.
  std::size_t straggler_count() const { return stragglers_.size(); }
  JobId straggler(std::size_t i) const { return stragglers_[i].job.id; }
  /// Peak straggler_count() since the last bind().
  std::size_t straggler_peak() const { return straggler_peak_; }
  /// Spilled jobs the store has room for.
  std::size_t straggler_room() const { return straggler_room_; }

  // --- Lanes (unchecked ring indexing, see the header note) -----------------

  const Job& job(JobId id) const { return lane(records_, &Straggler::job, id); }

  double remaining(JobId id) const {
    return lane(remaining_.data(), &Straggler::remaining, id);
  }
  double& remaining(JobId id) {
    return lane(remaining_.data(), &Straggler::remaining, id);
  }

  JobOutcome outcome(JobId id) const {
    return lane(outcome_.data(), &Straggler::outcome, id);
  }
  void set_outcome(JobId id, JobOutcome o) {
    lane(outcome_.data(), &Straggler::outcome, id) = o;
  }

  /// Completion instant; NaN unless the job completed.
  double completion(JobId id) const {
    return lane(completion_.data(), &Straggler::completion, id);
  }
  void set_completion(JobId id, double t) {
    lane(completion_.data(), &Straggler::completion, id) = t;
  }

  bool released(JobId id) const {
    return lane(released_.data(), &Straggler::released, id) != 0;
  }
  void set_released(JobId id) {
    lane(released_.data(), &Straggler::released, id) = 1;
  }

  QedfMeta& qedf_meta(JobId id) {
    return lane(qedf_meta_.data(), &Straggler::qedf_meta, id);
  }
  const QedfMeta& qedf_meta(JobId id) const {
    return lane(qedf_meta_.data(), &Straggler::qedf_meta, id);
  }

  TimerId& ocl_timer(JobId id) {
    return lane(ocl_timer_.data(), &Straggler::ocl_timer, id);
  }
  TimerId ocl_timer(JobId id) const {
    return lane(ocl_timer_.data(), &Straggler::ocl_timer, id);
  }

  bool abandoned(JobId id) const {
    return lane(abandoned_.data(), &Straggler::abandoned, id) != 0;
  }
  void set_abandoned(JobId id, bool v) {
    lane(abandoned_.data(), &Straggler::abandoned, id) = v ? 1 : 0;
  }

  bool ocl_scheduled(JobId id) const {
    return lane(ocl_scheduled_.data(), &Straggler::ocl_scheduled, id) != 0;
  }
  void set_ocl_scheduled(JobId id, bool v) {
    lane(ocl_scheduled_.data(), &Straggler::ocl_scheduled, id) = v ? 1 : 0;
  }

  /// The reply route (owned records only).
  ReplyRoute& route(JobId id) {
    return lane(routes_.data(), &Straggler::route, id);
  }
  const ReplyRoute& route(JobId id) const {
    return lane(routes_.data(), &Straggler::route, id);
  }

  /// EDF-AC's trial-schedule scratch (deadline, remaining) — a table-owned
  /// buffer so the admission test reuses one allocation across calls. Exposed
  /// const-callable (mutable member) because the admission test is a const
  /// query; contents are meaningless between calls.
  std::vector<std::pair<double, double>>& admission_scratch() const {
    return admission_scratch_;
  }

 private:
  /// Every lane of one spilled job.
  struct Straggler {
    Job job;
    ReplyRoute route;
    double remaining;
    double completion;
    QedfMeta qedf_meta;
    TimerId ocl_timer;
    JobOutcome outcome;
    std::uint8_t released;
    std::uint8_t abandoned;
    std::uint8_t ocl_scheduled;
  };

  std::size_t slot(JobId id) const {
    return static_cast<std::size_t>(id) & mask_;
  }
  /// The spilled job `id`, or null.
  const Straggler* find_spilled(JobId id) const;
  /// Job `id`'s entry of a lane: its `field` if it spilled, else its slot
  /// of the ring lane at `ring` (for a retired id, whatever job holds it).
  template <typename T>
  const T& lane(const T* ring, T Straggler::*field, JobId id) const {
    if (id < base_) [[unlikely]] return below_base(ring, field, id);
    return ring[slot(id)];
  }
  /// lane() for an id below the base, out of the hot path.
  template <typename T>
  [[gnu::cold, gnu::noinline]] const T& below_base(const T* ring,
                                                   T Straggler::*field,
                                                   JobId id) const {
    const Straggler* s = find_spilled(id);
    return s != nullptr ? s->*field : ring[slot(id)];
  }
  template <typename T>
  T& lane(T* ring, T Straggler::*field, JobId id) {
    return const_cast<T&>(
        std::as_const(*this).lane(static_cast<const T*>(ring), field, id));
  }
  /// The ring a reserve() starts (at most the reservation).
  static constexpr std::size_t kFirstSlots = 16;

  /// Calls `f(lane)` for every lane the table keeps: the records and reply
  /// routes only when it owns its records, the scheduler lanes only under
  /// Lanes::kAll.
  template <typename F>
  void for_each_lane(F&& f);
  /// Whether more than half the slots of a full ring hold pending jobs.
  bool mostly_pending() const;
  /// Moves the job at base() into the store and advances the base.
  void spill_front();
  /// Grows every lane of an empty ring to `slots` (a power of two).
  void resize_ring(std::size_t slots);
  /// Doubles a full ring with owned records, in place (see the header
  /// note).
  void widen_ring();
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
  /// Spilled jobs in id order; capacity straggler_room_, reserved up front.
  std::vector<Straggler> stragglers_;
  std::size_t straggler_room_ = 0;

  Lanes lanes_;
  std::size_t reserved_ = 0;
  std::size_t mask_ = 0;
  JobId base_ = 0;
  JobId end_ = 0;
  std::size_t span_peak_ = 0;
  std::size_t straggler_peak_ = 0;
  std::uint64_t retired_ = 0;

  mutable std::vector<std::pair<double, double>> admission_scratch_;
};

}  // namespace sjs::sim
