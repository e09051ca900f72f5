// Coupled multi-server engine with migration — the full "cloud-wise"
// extension (paper Sec. I), beyond the dispatch-only model in dispatch.hpp.
//
// K servers, each with its own piecewise-constant capacity path, execute one
// shared secondary-job stream under a *global* scheduler that may place,
// preempt, and migrate any live job onto any server at any interrupt. A
// migrated job resumes from its point of preemption (preemption and
// migration are free, consistent with the single-server model's free
// preemption; real VM-migration costs can be modelled by the workload).
// A job occupies at most one server at a time (no intra-job parallelism —
// these are VMs).
//
// Completion instants are exact per server (cumulative-work inversion over
// each server's own monotone capacity cursor), events order deterministically
// (Completion < Expiry < Release, FIFO within class), and stale completions
// are invalidated lazily through per-server dispatch epochs. A job's server is
// read off the K running slots. Live mode, the event queue and the job window
// come from the live-mode driver (sim/live_driver.hpp) that sim::Engine
// derives from too.
#pragma once

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "capacity/capacity_profile.hpp"
#include "jobs/job.hpp"
#include "obs/trace_sink.hpp"
#include "sim/job_table.hpp"
#include "sim/live_driver.hpp"
#include "sim/result.hpp"
#include "util/fp.hpp"

namespace sjs::cloud {

inline constexpr std::size_t kNoServer = static_cast<std::size_t>(-1);

class MultiEngine;

/// Global scheduler interface: sees every server, may run any live job on
/// any server inside a callback.
class GlobalScheduler {
 public:
  virtual ~GlobalScheduler() = default;
  virtual void on_start(MultiEngine& /*engine*/) {}
  virtual void on_release(MultiEngine& engine, JobId job) = 0;
  virtual void on_complete(MultiEngine& engine, JobId job,
                           std::size_t server) = 0;
  /// `server` is kNoServer when the job expired while not running.
  virtual void on_expire(MultiEngine& engine, JobId job,
                         std::size_t server) = 0;
  virtual std::string name() const = 0;
};

struct MultiSimResult {
  std::string scheduler_name;
  double completed_value = 0.0;
  double generated_value = 0.0;
  std::uint64_t completed_count = 0;
  std::uint64_t expired_count = 0;
  std::uint64_t dispatches = 0;
  std::uint64_t preemptions = 0;
  std::uint64_t migrations = 0;  ///< dispatches onto a different server
  double executed_total = 0.0;     ///< work executed, summed over all servers
  // Per job; empty when the run retired jobs.
  std::vector<sim::JobOutcome> outcomes;
  std::vector<double> executed_work;
  std::vector<double> completion_times;  ///< NaN while pending/expired
  std::vector<double> busy_time_per_server;

  // Fleet-rental accounting (filled by cluster::Dispatcher-driven runs;
  // zero for plain MultiEngine runs).
  double rental_cost = 0.0;          ///< integral of cost_rate over rented time
  double rented_machine_time = 0.0;  ///< integral of rented-machine count
  std::uint64_t rent_events = 0;
  std::uint64_t release_events = 0;
  std::uint64_t rented_peak = 0;  ///< max machines rented at once

  double value_fraction() const {
    return generated_value > 0.0 ? completed_value / generated_value : 0.0;
  }
};

/// Writes the per-job outcome table through sim::save_outcomes_csv's row
/// formatter, the one a serving session streams its rows with, so a live
/// cluster session and its replay can be diffed byte-for-byte.
void save_multi_outcomes_csv(const MultiSimResult& result,
                             const std::vector<Job>& jobs,
                             const std::string& path);

enum class MultiEventType : std::uint8_t {
  kCompletion = 0,
  kExpiry = 1,
  kRelease = 2,
};

/// One queued MultiEngine event (engine-internal; at namespace scope so that
/// the live-mode driver's queue can be declared before the engine).
struct MultiEvent {
  double time;
  MultiEventType type;
  std::uint64_t seq;
  JobId job;
  std::size_t server = kNoServer;
  std::uint64_t epoch = 0;

  bool operator>(const MultiEvent& other) const {
    if (fp::exact_ne(time, other.time)) return time > other.time;
    if (type != other.type) return type > other.type;
    return seq > other.seq;
  }
};

class MultiEngine
    : public sim::LiveDriver<MultiEngine, MultiEvent, MultiSimResult> {
  friend class sim::LiveDriver<MultiEngine, MultiEvent, MultiSimResult>;

 public:
  /// Jobs must be release-sorted with ids equal to their positions (the
  /// Instance canonical form); servers must be non-empty. The job window is
  /// bound to `jobs` here; the vector is read again only by
  /// admit_live(JobId). Neither the jobs nor the scheduler are owned.
  MultiEngine(const std::vector<Job>& jobs,
              std::vector<cap::CapacityProfile> servers,
              GlobalScheduler& scheduler);
  // The capacity cursors point into servers_.
  MultiEngine(const MultiEngine&) = delete;
  MultiEngine& operator=(const MultiEngine&) = delete;

  MultiSimResult run_to_completion();

  // Live mode (begin_live ... finish_live) and the job queries (now, job,
  // job_count, job_state, job_capacity_hint, remaining, is_live,
  // is_released) come from the live-mode driver (sim/live_driver.hpp).

  /// Attaches a trace sink (src/obs/); events carry the server index in
  /// TraceEvent::server and migrations are recorded as kMigrate. Same
  /// contract as sim::Engine::attach_trace.
  void attach_trace(obs::TraceSink* sink) { sink_ = sink; }
  bool trace_enabled() const { return sink_ != nullptr; }

  // --- query surface (online-observable) ---
  std::size_t server_count() const { return servers_.size(); }
  double server_rate(std::size_t server) const;
  /// Server currently executing `id`, or kNoServer (a scan of the K
  /// running slots).
  std::size_t server_of(JobId id) const;
  bool is_running(JobId id) const { return server_of(id) != kNoServer; }
  /// Job running on `server`, or kNoJob.
  JobId running_on(std::size_t server) const;

  // --- commands (valid inside callbacks only) ---
  /// Places `id` on `server`, preempting whatever runs there. If `id` is
  /// running elsewhere it is migrated (stopped there first). No-op if it
  /// already runs on `server`.
  void run_on(std::size_t server, JobId id);
  /// Idles `server`.
  void idle(std::size_t server);
  /// Stops `id` wherever it runs (no-op if queued).
  void stop(JobId id);

 private:
  using EventType = MultiEventType;
  using Event = MultiEvent;

  /// Records one trace event at `now_` (null check only when disabled).
  void trace(obs::TraceKind kind, JobId job, std::size_t server,
             double a = 0.0, double b = 0.0) {
    if (sink_) {
      sink_->record(obs::TraceEvent{
          now_, kind, job,
          server == kNoServer ? -1 : static_cast<std::int32_t>(server), a, b});
    }
  }

  void push_event(double time, EventType type, JobId job, std::size_t server,
                  std::uint64_t epoch);

  // Live-mode driver hooks (sim/live_driver.hpp).
  /// Whether `event` will pop as a no-op: a completion whose server has
  /// been re-dispatched since (a preemption or a migration), or an expiry
  /// of a job that already has an outcome or was retired.
  bool event_dead(const Event& event) const;
  /// Counts job `id`'s value and queues its release and expiry.
  void schedule_job(JobId id);
  void step_event() { process_event(queue_.pop()); }
  void expire_now(JobId id);
  /// Copies the per-job lanes into result_ (when nothing retired) and closes
  /// the trace stream.
  const MultiSimResult& harvest_result();
  /// The start of every run, batch or live, on an empty queue: the result,
  /// the bound jobs' events, the seal, on_start.
  void start_run();
  /// A release and an expiry per in-flight job, plus one completion per
  /// server.
  void reserve_live_events(std::size_t max_in_flight) {
    queue_.reserve(0, 2 * max_in_flight + servers_.size());
  }
  const std::vector<Job>& appended_jobs() const { return *source_; }

  /// Accounts execution on every busy server up to time t.
  void advance_all(double t);
  /// Bookkeeping stop of the job on `server` (no callback).
  void halt_server(std::size_t server);
  void schedule_completion(std::size_t server);
  /// Handles one event (shared by replay and live mode).
  void process_event(const Event& event);

  const std::vector<Job>* source_;  // read by admit_live(JobId) only
  std::vector<cap::CapacityProfile> servers_;
  /// One monotone cursor per server path: amortized O(1) rate/work/invert
  /// (mutable: server_rate() is a const query).
  mutable std::vector<cap::CapacityProfile::Cursor> cursors_;
  GlobalScheduler* scheduler_;

  double last_advance_ = 0.0;
  std::vector<JobId> running_;         // per server
  std::vector<std::uint64_t> epochs_;  // per server
  obs::TraceSink* sink_ = nullptr;
  MultiSimResult result_;
};

}  // namespace sjs::cloud
