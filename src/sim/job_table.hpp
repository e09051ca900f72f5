// Structure-of-arrays job slab — the engine's ground-truth per-job state.
//
// Every per-job table that used to live scattered across the engine
// (remaining workload, outcome, released flag) and the schedulers (V-Dover's
// Qedf metadata, 0cl timer handles, abandonment flags; EDF-AC's trial-schedule
// scratch) is one contiguous lane here, indexed by the slot half of a JobId.
// Centralising them buys three things:
//
//   1. Zero-allocation steady state: the slab is pre-sized once (reserve()
//      from --max-in-flight in live mode, bind_dense() per replay) and every
//      handler afterwards is pure lane indexing — no per-job push_back left
//      anywhere on the hot path.
//   2. Cache locality: the completion/expiry handlers touch remaining +
//      outcome for the same slot back-to-back; parallel arrays keep those
//      loads on adjacent cache lines instead of chasing map nodes.
//   3. Generation-stamped handles (the timer-slab idiom, Engine::set_timer):
//      allocate()/release_slot() reuse slots through a free list and bump a
//      per-slot generation, so a stale JobId held across a release decodes to
//      a mismatched generation and valid() rejects it in O(1).
//
// Two id regimes share the one structure:
//
//   * Dense mode (replay and live admission): ids are slot indices with
//     generation 0, assigned in admission order — numerically identical to
//     the pre-slab 32-bit ids, which is what keeps the obs digest, the event
//     tie-breaks, and the journal byte-stable. bind_dense()/append_dense()
//     serve this regime; no slot is ever reused, so generations stay 0.
//   * Slab mode (allocate/release_slot): free-list reuse with generation
//     bumps. Nothing engine-side uses it yet — it exists for callers that
//     manage job populations with churn (exercised directly by
//     tests/job_table_test.cpp) and as the forward path for bounded-memory
//     unbounded-session serving.
//
// Hot accessors index by job_slot(id) without re-checking the generation:
// the engine only passes ids it minted itself (dense regime), so the check
// would be dead weight on the hottest loads. valid() is the checked gate for
// ids of unknown provenance.
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
/// the pre-sized slab (V-Dover's old per-scheduler vectors grew on first
/// contact inside on_release — an allocation in the hot path).
struct QedfMeta {
  double t_insert = 0.0;
  double cslack_insert = 0.0;
};

class JobTable {
 public:
  // --- Dense regime (replay + live admission; generation 0) ----------------

  /// Rebinds the slab to a sealed instance: slot i holds job i's initial
  /// state, ids are dense (== slots, generation 0). Keeps lane capacity
  /// across calls — the Monte-Carlo driver rebinds one engine per cell.
  /// Invalidates the free list and resets all generations (a rebind
  /// repopulates every slot, so handles from before it are void by contract,
  /// exactly as with the old per-run vectors).
  void bind_dense(const std::vector<Job>& jobs);

  /// Appends one dense slot (live admission): id == slot == previous size,
  /// generation 0. Must not be mixed with slab-regime reuse (the free list
  /// must be empty) — live replay fidelity depends on dense admission-order
  /// ids (journal local ids, outcome CSV rows).
  JobId append_dense(double workload);

  // --- Slab regime (free-list reuse, generation stamps) --------------------

  /// Takes a slot (reusing a freed one when available), initialises its
  /// lanes, and returns a generation-stamped handle.
  JobId allocate(double workload);

  /// Frees the slot behind `id` and bumps its generation, invalidating every
  /// outstanding handle to it. Stale or foreign ids are a harmless no-op
  /// (returns false), matching Engine::cancel_timer's contract.
  bool release_slot(JobId id);

  /// True iff `id` names a currently-occupied slot at its current generation.
  bool valid(JobId id) const {
    const std::uint32_t slot = job_slot(id);
    return id >= 0 && slot < gen_.size() && !freed_[slot] &&
           gen_[slot] == job_generation(id);
  }

  // --- Shared lifecycle -----------------------------------------------------

  /// Releases every occupied slot (reuse across Monte-Carlo cells): each
  /// occupied slot's generation is bumped — so handles from before the clear
  /// are rejected by valid() even after the slot is reallocated — and every
  /// slot joins the free list. Lanes keep their high-water length and
  /// capacity; no memory is returned.
  void clear();

  /// Pre-sizes every lane for `n` slots (live boot: --max-in-flight
  /// admissions fit without reallocation).
  void reserve(std::size_t n);

  std::size_t size() const { return remaining_.size(); }
  /// Slots currently occupied (dense slots count until clear/rebind).
  std::size_t live_count() const { return live_; }
  /// Peak simultaneous occupancy since the last clear()/bind_dense().
  std::size_t peak() const { return peak_; }
  /// Distinct slots ever populated (lane length; survives clear()).
  std::size_t slots() const { return remaining_.size(); }

  // --- Lanes (hot accessors: unchecked slot indexing, see header note) ------

  double remaining(JobId id) const { return remaining_[job_slot(id)]; }
  double& remaining(JobId id) { return remaining_[job_slot(id)]; }

  JobOutcome outcome(JobId id) const { return outcome_[job_slot(id)]; }
  void set_outcome(JobId id, JobOutcome o) { outcome_[job_slot(id)] = o; }

  bool released(JobId id) const { return released_[job_slot(id)] != 0; }
  void set_released(JobId id) { released_[job_slot(id)] = 1; }

  /// Bounds-checked released query for ids that may not be in the table yet
  /// (live mode: a ticket can reference a job not yet admitted).
  bool released_checked(JobId id) const {
    const std::uint32_t slot = job_slot(id);
    return id >= 0 && slot < released_.size() && released_[slot] != 0;
  }

  QedfMeta& qedf_meta(JobId id) { return qedf_meta_[job_slot(id)]; }
  const QedfMeta& qedf_meta(JobId id) const { return qedf_meta_[job_slot(id)]; }

  TimerId& ocl_timer(JobId id) { return ocl_timer_[job_slot(id)]; }
  TimerId ocl_timer(JobId id) const { return ocl_timer_[job_slot(id)]; }

  bool abandoned(JobId id) const { return abandoned_[job_slot(id)] != 0; }
  void set_abandoned(JobId id, bool v) { abandoned_[job_slot(id)] = v ? 1 : 0; }

  bool ocl_scheduled(JobId id) const { return ocl_scheduled_[job_slot(id)] != 0; }
  void set_ocl_scheduled(JobId id, bool v) {
    ocl_scheduled_[job_slot(id)] = v ? 1 : 0;
  }

  const std::vector<double>& remaining_lane() const { return remaining_; }
  const std::vector<JobOutcome>& outcome_lane() const { return outcome_; }

  /// EDF-AC's trial-schedule scratch (deadline, remaining) — a slab-owned
  /// buffer so the admission test reuses one allocation across calls. Exposed
  /// const-callable (mutable member) because the admission test is a const
  /// query; contents are meaningless between calls.
  std::vector<std::pair<double, double>>& admission_scratch() const {
    return admission_scratch_;
  }

 private:
  /// Resets one slot's lanes to a fresh job's state.
  void init_slot(std::uint32_t slot, double workload);

  std::vector<double> remaining_;
  std::vector<JobOutcome> outcome_;
  std::vector<std::uint8_t> released_;
  std::vector<QedfMeta> qedf_meta_;
  std::vector<TimerId> ocl_timer_;
  std::vector<std::uint8_t> abandoned_;
  std::vector<std::uint8_t> ocl_scheduled_;

  std::vector<std::uint32_t> gen_;
  std::vector<std::uint8_t> freed_;     // slot currently on the free list
  std::vector<std::uint32_t> free_;     // reusable slots, LIFO
  std::size_t live_ = 0;
  std::size_t peak_ = 0;

  mutable std::vector<std::pair<double, double>> admission_scratch_;
};

}  // namespace sjs::sim
