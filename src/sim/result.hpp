// Per-run simulation outcome: value accounting, per-job outcomes, the
// cumulative value-vs-time trace (paper Fig. 1), and engine counters.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "jobs/job.hpp"
#include "stats/timeseries.hpp"

namespace sjs::sim {

enum class JobOutcome : std::uint8_t {
  kPending = 0,   ///< not yet released / still live at end of run
  kCompleted,     ///< finished by its deadline; value collected
  kExpired,       ///< deadline passed uncompleted
};

// Completion tolerances shared by sim::Engine and cloud::MultiEngine.
//
// Completion instants are exact inversions of the cumulative-work function,
// but deadlines are computed independently (r + p/c_lo in the generators), so
// the two can disagree by a few ulps. A completion that lands within
// deadline_eps(d) past its deadline d is clamped to d — but only when the
// work it would leave undone at d is below completion_residue_bound, the same
// bound the completion handler checks. At large virtual times deadline_eps
// spans real work; such a job does not complete, it expires at d.

/// Relative tolerance for "completed by deadline" decisions (defined with
/// the job model, jobs/job.hpp, so obs/ and offline/ share it).
using ::sjs::deadline_eps;

/// Work left at a completion event below this is floating-point dust.
inline double completion_residue_bound(double workload) {
  return 1e-6 * std::max(1.0, workload);
}

/// Whether a job dispatched with exact completion instant `completion` gets a
/// completion event (at min(completion, deadline)). `undone_at_deadline()`
/// returns the work the job would still have left at its deadline; it is
/// called only for a completion inside the tolerance window past it.
template <typename UndoneAtDeadline>
bool completes_by_deadline(double completion, const Job& job,
                           UndoneAtDeadline undone_at_deadline) {
  if (completion <= job.deadline) return true;
  return completion <= job.deadline + deadline_eps(job.deadline) &&
         undone_at_deadline() < completion_residue_bound(job.workload);
}

/// One maximal stretch of uninterrupted execution of one job.
struct ExecutionSlice {
  double start = 0.0;
  double end = 0.0;
  JobId job = kNoJob;
};

struct SimResult {
  std::string scheduler_name;

  double completed_value = 0.0;   ///< Σ v_i over completed jobs
  double generated_value = 0.0;   ///< Σ v_i over all jobs in the instance
  std::uint64_t completed_count = 0;
  std::uint64_t expired_count = 0;

  /// completed_value / generated_value — the paper's Table-I metric.
  double value_fraction() const {
    return generated_value > 0.0 ? completed_value / generated_value : 0.0;
  }

  // Per-job tables, indexed by JobId. A batch run fills them for every job;
  // a live run that retired jobs (sim::Engine::retire) leaves them empty and
  // reports the aggregates above and below only.
  std::vector<JobOutcome> outcomes;       ///< indexed by JobId
  std::vector<double> executed_work;      ///< work done per job (<= p_i)
  /// Completion instant per job; NaN for jobs that expired.
  std::vector<double> completion_times;
  /// Release instant per job (copied from the instance for convenience).
  std::vector<double> release_times;
  /// Response times (completion − release) of completed jobs, in JobId
  /// order. Empty when nothing completed.
  std::vector<double> response_times() const;
  /// Mean response time of completed jobs (0 when none).
  double mean_response_time() const;
  /// Cumulative completed value v. time (batch runs only).
  StepFunction value_trace;
  /// Full execution timeline (only populated when Engine::record_schedule()
  /// was enabled): non-overlapping slices in chronological order.
  std::vector<ExecutionSlice> schedule;

  // Engine counters (useful for ablations and performance sanity checks).
  std::uint64_t dispatches = 0;    ///< Engine::run() calls that changed the job
  std::uint64_t preemptions = 0;   ///< dispatches that displaced an unfinished job
  std::uint64_t events_processed = 0;
  double busy_time = 0.0;          ///< total time a job occupied the processor
  double executed_total = 0.0;     ///< Σ executed work (capacity-seconds)

  // Hot-path occupancy stats (timer slab and event heap; the bounded-memory
  // regression test and the engine.* metrics gauges read these).
  std::uint64_t timers_armed = 0;       ///< set_timer() calls over the run
  std::uint64_t timer_slab_peak = 0;    ///< peak simultaneously-live timers
  std::uint64_t timer_slab_slots = 0;   ///< distinct slots ever allocated
  std::uint64_t event_heap_peak = 0;    ///< peak pending events in the heap
  std::uint64_t event_heap_dead_peak = 0;  ///< peak dead (stale) heap events
  std::uint64_t heap_compactions = 0;   ///< lazy dead-event purges performed

  // Scheduler ready-queue occupancy (Scheduler::queue_stats, harvested at
  // the end of the run; zeros for schedulers that keep no priority queue).
  std::uint64_t queue_peak = 0;    ///< summed per-queue occupancy high-water
  std::uint64_t queue_slots = 0;   ///< entry storage reserved across queues

  // Job-window occupancy (sim::JobTable — same shape as the timer-slab pair).
  std::uint64_t job_slab_peak = 0;   ///< peak span of unretired job ids
  std::uint64_t job_slab_slots = 0;  ///< ring slots of the job window

  /// Rewinds every field to its default while keeping the capacity of every
  /// vector and the value trace — the engine-reuse path: `result_.clear()`
  /// instead of `result_ = SimResult{}` is what makes a warmed engine's
  /// replay allocation-free (tests/hotpath_test.cpp ratchets it to zero).
  void clear();

  std::string to_string() const;
};

/// Writes per-job outcomes as CSV ("id,outcome,completion,value_collected",
/// %.17g doubles, outcome ∈ {pending,completed,expired}, completion empty for
/// jobs that never finished). One canonical format shared by sjs_sim
/// --outcomes-csv and the serving daemon's journal (which streams the rows
/// with format_outcome_row as its jobs retire), so live-vs-replay fidelity
/// can be checked with a byte diff (scripts/serve_smoke.sh).
void save_outcomes_csv(const SimResult& result,
                       const std::vector<Job>& jobs,
                       const std::string& path);

/// The loop behind every outcomes CSV written at once (both engines'
/// results): one row per entry of `outcomes`, completion instants and job
/// values read where present.
void save_outcomes_csv(std::span<const JobOutcome> outcomes,
                       std::span<const double> completion_times,
                       const std::vector<Job>& jobs, const std::string& path);

/// The header line of an outcomes CSV, '\n' included.
inline constexpr char kOutcomesCsvHeader[] =
    "id,outcome,completion,value_collected\n";

/// Room one outcomes row needs.
inline constexpr std::size_t kOutcomeRowMax = 96;

/// Formats job `id`'s outcomes row into [first, first + kOutcomeRowMax)
/// without allocating: `completion` is written only for a completed job,
/// and `value` is the job's value (collected only when it completed).
/// Returns the end of the text.
char* format_outcome_row(char* first, JobId id, JobOutcome outcome,
                         double completion, double value);

}  // namespace sjs::sim
