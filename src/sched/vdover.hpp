// V-Dover (paper Sec. III-D) and, via policy knobs, Koren–Shasha's Dover.
//
// V-Dover is an EDF/LLF hybrid for overloaded systems under time-varying
// capacity. It differs from Dover in exactly two ways (paper, end of
// Sec. III-D):
//   (i)  laxities use a *conservative* constant estimate of future capacity —
//        the band minimum c_lo (Dover, built for constant capacity, uses the
//        known rate; under varying capacity we give it an estimate ĉ);
//   (ii) a job that loses the zero-laxity value test is kept in a *supplement
//        queue* instead of being abandoned — capacity may later rise above
//        c_lo and leave slack to finish it (Dover abandons it).
//
// State (Sec. III-D):
//   Qedf   — recently-EDF-scheduled regular jobs, earliest deadline first;
//            entries carry (t_insert, cSlack_insert) for cSlack accounting.
//   Qother — other regular jobs, earliest deadline first. Each member has a
//            pending zero-conservative-laxity (0cl) timer at d − p_rem/c_est.
//   Qsupp  — supplement jobs, LATEST deadline first (when only supplements
//            remain, the most postponable one runs first).
//   cSlack — slack devotable to new jobs without endangering the running
//            regular job or Qedf, under the conservative capacity estimate.
//   flag   — reg / supp / idle.
//
// Memory: the queues reserve, from engine.job_capacity_hint(), capacity that
// is touched only as they fill, and the per-job lanes live in the engine's
// job window; the Lemma-1 interval log holds every interval of a batch run
// but only the last kLiveIntervals of a live session, whatever its
// --max-in-flight pre-size.
//
// The pseudocode in the available paper text is OCR-damaged in places; where
// it is ambiguous we reconstruct from the prose (noted inline as
// [reconstruction]).
#pragma once

#include <cstdint>
#include <limits>
#include <vector>

#include "sched/ready_queue.hpp"
#include "sim/engine.hpp"
#include "sim/scheduler.hpp"

namespace sjs::sched {

struct VDoverOptions {
  /// Constant estimate of future capacity used in laxity computations.
  /// <= 0 selects the band minimum c_lo at start (V-Dover's choice).
  double capacity_estimate = 0.0;

  /// Keep zero-laxity losers in Qsupp (V-Dover) or abandon them (Dover).
  bool use_supplement_queue = true;

  /// The 0cl value-test threshold. <= 0 selects the theoretical optimum:
  /// β* = 1 + √(k/f(k,δ)) for V-Dover, 1 + √k for Dover (set `beta`
  /// explicitly for the β-sweep ablation).
  double beta = 0.0;

  /// Importance-ratio bound k used when deriving β (paper simulation: 7).
  double k = 7.0;

  /// Adaptive capacity estimation: instead of a fixed estimate, track an
  /// EWMA of the observed rate (updated at every capacity change). This
  /// deliberately abandons V-Dover's conservative guarantee — it exists to
  /// test design choice (i) against the "obvious" smarter alternative
  /// (ablation A2 in bench_ablation). The estimate is clamped to the band.
  bool adaptive_estimate = false;
  double ewma_alpha = 0.3;  ///< weight of the newest observation

  /// Display name; empty derives "V-Dover" or "Dover(ĉ=…)".
  std::string display_name;
};

/// Counters exposed for the ablation benches.
struct VDoverStats {
  std::uint64_t zero_laxity_interrupts = 0;
  std::uint64_t ocl_scheduled = 0;        ///< urgent jobs that won the value test
  std::uint64_t labeled_supplement = 0;   ///< urgent jobs that lost it
  std::uint64_t abandoned = 0;            ///< losers dropped (Dover mode)
  std::uint64_t supplement_dispatched = 0;
  std::uint64_t supplement_completed = 0;
  double supplement_value = 0.0;          ///< the analysis' "suppval"
};

/// A regular interval (Definition 6): a maximal stretch during which the
/// processor continuously executes regular jobs, opened when a regular job
/// is scheduled with Qedf empty and closed by the first completion with Qedf
/// empty. `regval`/`clval` are the analysis quantities of Sec. III-E: value
/// completed inside the interval, total and by 0cl-scheduled jobs. Lemma 1
/// bounds the interval's workload: ∫ c <= regval + clval/(β−1) — verified
/// empirically in tests/lemma_test.cpp.
struct RegularInterval {
  double start = 0.0;
  double end = 0.0;
  double regval = 0.0;
  double clval = 0.0;
};

class VDoverScheduler : public sim::Scheduler {
 public:
  explicit VDoverScheduler(const VDoverOptions& options = {});
  ~VDoverScheduler() override;

  void on_start(sim::Engine& engine) override;
  void on_release(sim::Engine& engine, JobId job) override;
  void on_complete(sim::Engine& engine, JobId job) override;
  void on_expire(sim::Engine& engine, JobId job, bool was_running) override;
  void on_timer(sim::Engine& engine, JobId job, int tag) override;
  void on_capacity_change(sim::Engine& engine) override;
  bool wants_capacity_events() const override { return adaptive_estimate_; }
  QueueStats queue_stats() const override {
    return {qedf_.peak() + qother_.peak() + qsupp_.peak(),
            qedf_.slots() + qother_.slots() + qsupp_.slots()};
  }
  std::string name() const override;

  const VDoverStats& stats() const { return stats_; }
  double beta() const { return beta_; }
  double capacity_estimate() const { return c_est_; }

  /// Closed regular intervals in chronological order (Sec. III-E analysis
  /// instrumentation). An interval left open at the end of a run (possible
  /// only when individual admissibility is violated — an admissible regular
  /// job never fails, so every interval closes with a completion) is not
  /// included; `interval_open()` reports that condition. A batch run keeps
  /// every interval; a live session keeps at least the most recent
  /// kLiveIntervals / 2, so the log grows neither with the session nor with
  /// its --max-in-flight pre-size.
  const std::vector<RegularInterval>& regular_intervals() const {
    return intervals_;
  }
  bool interval_open() const { return interval_open_; }

  /// The live session's interval log bound (2 KiB).
  static constexpr std::size_t kLiveIntervals = 64;

 private:
  enum class Flag : std::uint8_t { kIdle, kReg, kSupp };

  static constexpr double kInf = std::numeric_limits<double>::infinity();

  /// Conservative remaining processing time t_c(T, c_est) = p_rem / c_est.
  double tc(const sim::Engine& engine, JobId job) const {
    return engine.remaining(job) / c_est_;
  }
  /// Conservative laxity (Definition 5).
  double claxity(const sim::Engine& engine, JobId job) const {
    return engine.claxity(job, c_est_);
  }

  /// Inserts a regular job into Qother and arms its 0cl timer at
  /// d − p_rem/c_est (fires immediately when already non-positive).
  void insert_other(sim::Engine& engine, JobId job);
  /// Removes a job from Qother, cancelling its 0cl timer.
  void remove_other(sim::Engine& engine, JobId job);

  void insert_supp(sim::Engine& engine, JobId job);

  /// Sum of values of the running regular job and all Qedf members — the
  /// privileged value the 0cl test compares against.
  double privileged_value(const sim::Engine& engine) const;

  /// Procedure C — job completion-or-failure handler.
  void completion_or_failure(sim::Engine& engine);
  /// Procedure D — zero conservative laxity handler.
  void zero_laxity(sim::Engine& engine, JobId job);

  /// Opens a regular interval at `now` if none is open (called whenever a
  /// regular job is dispatched).
  void maybe_open_interval(double now);
  void close_interval(double now);

  // --- configuration ---
  double c_est_;
  bool use_supplement_queue_;
  double beta_;
  double k_;
  bool adaptive_estimate_;
  double ewma_alpha_;
  std::string display_name_;

  // --- algorithm state ---
  Flag flag_ = Flag::kIdle;
  double cslack_ = kInf;
  /// Keyed by (deadline, id): earliest deadline first.
  ReadyQueue qedf_;
  ReadyQueue qother_;
  /// Keyed by (deadline, id), max-first: latest deadline first.
  ReadyQueue qsupp_{QueueOrder::kMaxFirst};
  // Per-job lanes (Qedf metadata, 0cl timer handles, abandoned/0cl-scheduled
  // flags) live in the engine's job window (sim::JobTable), not here: it
  // is owned by the engine and survives warmed across runs, so a fresh
  // scheduler performs no per-job table allocation — part of the
  // zero-allocation steady state (tests/hotpath_test.cpp).

  // Regular-interval instrumentation (Sec. III-E). The buffer is adopted
  // from / donated to a thread-local recycler (the ReadyQueue idiom), so
  // per-cell scheduler churn reuses interval storage allocation-free.
  std::vector<RegularInterval> intervals_;
  std::size_t interval_cap_ = 2;  ///< log bound, set in on_start
  bool interval_open_ = false;
  RegularInterval current_interval_;

  VDoverStats stats_;
};

}  // namespace sjs::sched
