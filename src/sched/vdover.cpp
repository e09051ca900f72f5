#include "sched/vdover.hpp"

#include <algorithm>
#include <sstream>

#include "obs/trace_event.hpp"
#include "theory/ratios.hpp"
#include "util/logging.hpp"
#include "util/vec.hpp"

namespace sjs::sched {

namespace {

// Thread-local recycler for the regular-interval log (the ReadyQueue buffer
// idiom, sched/ready_queue.cpp): the Monte-Carlo driver and the steady-state
// replay ratchet construct one fresh scheduler per run on the same thread, so
// donating the destroyed scheduler's interval buffer and adopting it in the
// next keeps interval logging allocation-free across cells.
constexpr std::size_t kIntervalRecyclerCap = 4;

std::vector<std::vector<RegularInterval>>& interval_recycler() {
  thread_local std::vector<std::vector<RegularInterval>> pool;
  return pool;
}

}  // namespace

VDoverScheduler::VDoverScheduler(const VDoverOptions& options)
    : c_est_(options.capacity_estimate),
      use_supplement_queue_(options.use_supplement_queue),
      beta_(options.beta),
      k_(options.k),
      adaptive_estimate_(options.adaptive_estimate),
      ewma_alpha_(options.ewma_alpha) {
  if (!options.display_name.empty()) {
    display_name_ = options.display_name;
  } else if (adaptive_estimate_) {
    display_name_ = use_supplement_queue_ ? "V-Dover-EWMA" : "Dover-EWMA";
  } else if (use_supplement_queue_) {
    display_name_ = "V-Dover";
  } else {
    std::ostringstream os;
    os << "Dover(c^=";
    if (options.capacity_estimate > 0.0) {
      os << options.capacity_estimate;
    } else {
      os << "c_lo";
    }
    os << ")";
    display_name_ = os.str();
  }
  auto& pool = interval_recycler();
  if (!pool.empty()) {
    intervals_ = std::move(pool.back());
    pool.pop_back();
    intervals_.clear();
  }
}

VDoverScheduler::~VDoverScheduler() {
  auto& pool = interval_recycler();
  if (intervals_.capacity() > 0 && pool.size() < kIntervalRecyclerCap) {
    intervals_.clear();
    pool.push_back(std::move(intervals_));
  }
}

std::string VDoverScheduler::name() const { return display_name_; }

void VDoverScheduler::on_start(sim::Engine& engine) {
  if (adaptive_estimate_) {
    // Seed the EWMA with the rate observable at t = 0.
    c_est_ = engine.current_rate();
    SJS_CHECK_MSG(ewma_alpha_ > 0.0 && ewma_alpha_ <= 1.0,
                  "EWMA weight must lie in (0, 1]");
  }
  if (c_est_ <= 0.0) c_est_ = engine.c_lo();  // V-Dover's conservative choice
  if (beta_ <= 0.0) {
    const double delta = engine.c_hi() / engine.c_lo();
    if (use_supplement_queue_ && delta > 1.0) {
      beta_ = theory::optimal_beta(k_, delta);  // β* = 1 + √(k/f(k,δ))
    } else {
      // Constant capacity (δ = 1, where f is undefined) or Dover mode:
      // Koren–Shasha's optimum.
      beta_ = theory::dover_beta(k_);
    }
  }
  SJS_CHECK_MSG(beta_ > 1.0, "β must exceed 1 (Lemma 1 needs β − 1 > 0)");
  const std::size_t n = engine.job_capacity_hint();
  qedf_.reserve(n);
  qother_.reserve(n);
  qsupp_.reserve(n);
  // At most one regular interval closes per job (with its completion or
  // failure), so on a batch run the job count bounds the Lemma-1 interval
  // log. Nothing reads a live session's log while it runs: it keeps the
  // most recent kLiveIntervals, whatever the pre-size.
  interval_cap_ =
      engine.live_mode() ? kLiveIntervals : std::max<std::size_t>(n, 2);
  intervals_.reserve(interval_cap_);
  // Per-job lanes (Qedf metadata, 0cl timers, flags) are slab lanes the
  // engine already sized in rewind()/admit_live — nothing to grow here.
}

void VDoverScheduler::maybe_open_interval(double now) {
  if (interval_open_) return;
  interval_open_ = true;
  current_interval_ = RegularInterval{now, now, 0.0, 0.0};
}

void VDoverScheduler::close_interval(double now) {
  if (!interval_open_) return;
  interval_open_ = false;
  current_interval_.end = now;
  if (intervals_.size() == interval_cap_) {
    // Only a live session gets here: drop the older half, so the log stays
    // within its pre-size however long the session runs.
    intervals_.erase(intervals_.begin(),
                     intervals_.begin() +
                         static_cast<std::ptrdiff_t>(interval_cap_ / 2));
  }
  // Growth to the recycled buffer's high-water (see interval_recycler).
  util::append(intervals_, current_interval_);
}

double VDoverScheduler::privileged_value(const sim::Engine& engine) const {
  double total = 0.0;
  if (engine.running() != kNoJob) total += engine.job(engine.running()).value;
  // Ordered visitation: the sum feeds a traced payload, and floating-point
  // addition order is observable in the replay digest.
  qedf_.for_each_ordered([&](const ReadyQueue::Entry& e) {
    total += engine.job(e.id).value;
  });
  return total;
}

void VDoverScheduler::insert_other(sim::Engine& engine, JobId job) {
  qother_.push(engine.job(job).deadline, job);
  // The 0cl instant: the conservative laxity d − t − p_rem/c_est hits zero at
  // t = d − p_rem/c_est; p_rem is frozen while the job waits, so the instant
  // is known now. A non-positive laxity raises the interrupt immediately
  // (fires right after the current handler returns).
  const double t_0cl =
      engine.job(job).deadline - engine.remaining(job) / c_est_;
  engine.job_state().ocl_timer(job) =
      engine.set_timer(std::max(engine.now(), t_0cl), job, /*tag=*/0);
}

void VDoverScheduler::remove_other(sim::Engine& engine, JobId job) {
  qother_.erase(job);
  sim::TimerId& timer = engine.job_state().ocl_timer(job);
  engine.cancel_timer(timer);
  timer = sim::kNoTimer;
}

void VDoverScheduler::insert_supp(sim::Engine& engine, JobId job) {
  qsupp_.push(engine.job(job).deadline, job);
}

// Procedure B — job release handler.
void VDoverScheduler::on_release(sim::Engine& engine, JobId job) {
  switch (flag_) {
    case Flag::kIdle: {
      engine.run(job);
      maybe_open_interval(engine.now());
      cslack_ = claxity(engine, job);
      flag_ = Flag::kReg;
      break;
    }
    case Flag::kReg: {
      const JobId curr = engine.running();
      SJS_CHECK_MSG(curr != kNoJob, "flag=reg with an idle processor");
      const Job& arr = engine.job(job);
      const Job& running = engine.job(curr);
      if (arr.deadline < running.deadline && cslack_ >= tc(engine, job)) {
        // EDF preemption without overload: the preempted job becomes
        // "recently EDF-scheduled" (B.7–B.9).
        qedf_.push(running.deadline, curr);
        engine.job_state().qedf_meta(curr) = sim::QedfMeta{engine.now(), cslack_};
        const double tc_arr = tc(engine, job);
        engine.run(job);
        // [reconstruction] The paper's B.8–9 are OCR-garbled; by symmetry
        // with C.7, admitting the new job consumes tc(T_arr) of the slack and
        // the new running job's own laxity caps it.
        cslack_ = std::min(cslack_ - tc_arr, claxity(engine, job));
      } else {
        insert_other(engine, job);  // B.11
      }
      break;
    }
    case Flag::kSupp: {
      // B.13–15: regular jobs always preempt supplement jobs.
      const JobId curr = engine.running();
      SJS_CHECK_MSG(curr != kNoJob, "flag=supp with an idle processor");
      insert_supp(engine, curr);
      engine.run(job);
      maybe_open_interval(engine.now());
      cslack_ = claxity(engine, job);
      flag_ = Flag::kReg;
      break;
    }
  }
}

// Procedure C — job completion or failure handler. The engine has already
// freed the processor.
void VDoverScheduler::completion_or_failure(sim::Engine& engine) {
  const double now = engine.now();
  if (!qedf_.empty() && !qother_.empty()) {
    const auto [d_edf, t_edf] = qedf_.top();
    const sim::QedfMeta& meta = engine.job_state().qedf_meta(t_edf);
    cslack_ = meta.cslack_insert - (now - meta.t_insert);  // C.3
    const auto [d_other, t_other] = qother_.top();
    if (d_other < d_edf && cslack_ >= tc(engine, t_other)) {  // C.5
      remove_other(engine, t_other);
      const double tc_other = tc(engine, t_other);
      engine.run(t_other);
      cslack_ = std::min(cslack_ - tc_other, claxity(engine, t_other));  // C.7
    } else {
      qedf_.pop();  // C.9
      engine.run(t_edf);
    }
    maybe_open_interval(now);
    flag_ = Flag::kReg;
    return;
  }
  if (!qother_.empty()) {  // C.10–12
    const JobId t_other = qother_.top().id;
    remove_other(engine, t_other);
    engine.run(t_other);
    maybe_open_interval(now);
    cslack_ = claxity(engine, t_other);
    flag_ = Flag::kReg;
    return;
  }
  if (!qedf_.empty()) {  // C.13–15
    const JobId t_edf = qedf_.pop().id;
    const sim::QedfMeta meta = engine.job_state().qedf_meta(t_edf);
    engine.run(t_edf);
    maybe_open_interval(now);
    cslack_ = meta.cslack_insert - (now - meta.t_insert);
    flag_ = Flag::kReg;
    return;
  }
  cslack_ = kInf;  // C.17
  if (use_supplement_queue_ && !qsupp_.empty()) {  // C.18–20
    const JobId t_supp = qsupp_.pop().id;  // latest deadline first
    engine.run(t_supp);
    ++stats_.supplement_dispatched;
    flag_ = Flag::kSupp;
  } else {
    flag_ = Flag::kIdle;  // C.22
  }
}

// Procedure D — zero conservative laxity handler.
void VDoverScheduler::zero_laxity(sim::Engine& engine, JobId job) {
  SJS_CHECK_MSG(qother_.contains(job),
                "0cl interrupt for a job not in Qother");
  SJS_CHECK_MSG(flag_ == Flag::kReg,
                "Qother non-empty requires a running regular job");
  const double urgent_value = engine.job(job).value;
  const double privileged = privileged_value(engine);
  engine.note(job, obs::kNoteZeroLaxityTest, privileged);
  if (urgent_value > beta_ * privileged) {  // D.1
    ++stats_.ocl_scheduled;
    engine.job_state().set_ocl_scheduled(job, true);
    engine.note(job, obs::kNoteOclScheduled);
    remove_other(engine, job);
    const JobId prev = engine.running();
    engine.run(job);  // D.5
    // D.2–3: demote the previous running job and all of Qedf to Qother
    // (each re-arms a 0cl timer; those with negative laxity re-raise the
    // interrupt immediately and will typically become supplements). Drain in
    // pop order — timer arming order is observable in the replay digest.
    if (prev != kNoJob) insert_other(engine, prev);
    while (!qedf_.empty()) {
      insert_other(engine, qedf_.pop().id);
    }
    cslack_ = 0.0;  // D.4: the urgent job leaves no conservative slack
  } else {
    // D.7: not valuable enough — supplement (V-Dover) or abandon (Dover).
    remove_other(engine, job);
    if (use_supplement_queue_) {
      insert_supp(engine, job);
      ++stats_.labeled_supplement;
      engine.note(job, obs::kNoteSupplement);
    } else {
      engine.job_state().set_abandoned(job, true);
      ++stats_.abandoned;
      engine.note(job, obs::kNoteAbandon);
    }
  }
}

void VDoverScheduler::on_complete(sim::Engine& engine, JobId job) {
  const double value = engine.job(job).value;
  if (flag_ == Flag::kSupp) {
    ++stats_.supplement_completed;
    stats_.supplement_value += value;
  } else if (interval_open_) {
    // Regular completion inside the open regular interval (Sec. III-E).
    current_interval_.regval += value;
    if (engine.job_state().ocl_scheduled(job)) {
      current_interval_.clval += value;
    }
    // Definition 6: the interval ends at the first completion of a regular
    // job while Qedf is empty.
    if (qedf_.empty()) close_interval(engine.now());
  }
  completion_or_failure(engine);
}

void VDoverScheduler::on_expire(sim::Engine& engine, JobId job,
                                bool was_running) {
  // The job is dead: whatever 0cl timer handle it still carries can never
  // legitimately fire again. Cancel-and-clear unconditionally — including
  // when the timer fires at the very instant of the expiry (expiry sorts
  // first, so the timer event is still pending here and would otherwise
  // leave ocl_timer_ pointing at a fired id once the engine swallows it).
  // Cancelling an already-dead id is a generation-checked no-op.
  sim::TimerId& timer = engine.job_state().ocl_timer(job);
  engine.cancel_timer(timer);
  timer = sim::kNoTimer;
  if (was_running) {
    completion_or_failure(engine);
    // [reconstruction] With individual admissibility a regular job never
    // fails, so intervals always close via completions. Without it, a
    // failure can leave the interval dangling with no regular job running —
    // close it at the failure instant so the instrumentation stays sane.
    if (interval_open_ && flag_ != Flag::kReg) close_interval(engine.now());
    return;
  }
  // A queued job silently expired: purge it from whichever queue holds it
  // (erasing from the queues it is not in is a no-op).
  qother_.erase(job);
  qedf_.erase(job);
  qsupp_.erase(job);
}

void VDoverScheduler::on_timer(sim::Engine& engine, JobId job, int tag) {
  if (tag != 0) return;
  engine.job_state().ocl_timer(job) = sim::kNoTimer;
  ++stats_.zero_laxity_interrupts;
  zero_laxity(engine, job);
}

void VDoverScheduler::on_capacity_change(sim::Engine& engine) {
  if (!adaptive_estimate_) return;
  const double observed = engine.current_rate();
  c_est_ = std::clamp(ewma_alpha_ * observed + (1.0 - ewma_alpha_) * c_est_,
                      engine.c_lo(), engine.c_hi());
  // The 0cl instants of queued regular jobs depend on the estimate: re-arm
  // every Qother timer at the new d − p_rem/c_est (immediately when already
  // overdue). for_each_ordered walks a snapshot — an overdue timer fires
  // after this handler and mutates qother_ — and its (deadline, id) order
  // keeps timer arming order, hence the digest, stable.
  qother_.for_each_ordered([&](const ReadyQueue::Entry& e) {
    sim::TimerId& timer = engine.job_state().ocl_timer(e.id);
    engine.cancel_timer(timer);
    const double t_0cl = e.key - engine.remaining(e.id) / c_est_;
    timer = engine.set_timer(std::max(engine.now(), t_0cl), e.id, /*tag=*/0);
  });
}

}  // namespace sjs::sched
