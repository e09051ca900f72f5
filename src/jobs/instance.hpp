// Instance — the paper's "input instance I": a job collection plus the
// capacity sample path and the admissible band [c_lo, c_hi].
//
// The band is carried separately from the sample path because online
// algorithms are parameterised by the *band* (V-Dover's conservative estimate
// is c_lo), while the sample path is what the engine executes; the path must
// lie inside the band.
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "capacity/capacity_profile.hpp"
#include "jobs/job.hpp"

namespace sjs {

class Instance {
 public:
  Instance(std::vector<Job> jobs, cap::CapacityProfile capacity, double c_lo,
           double c_hi);

  /// Convenience: band taken from the profile's own min/max rates.
  Instance(std::vector<Job> jobs, cap::CapacityProfile capacity);

  const std::vector<Job>& jobs() const { return jobs_; }
  const cap::CapacityProfile& capacity() const { return capacity_; }
  double c_lo() const { return c_lo_; }
  double c_hi() const { return c_hi_; }
  /// δ = c_hi / c_lo.
  double delta() const { return c_hi_ / c_lo_; }
  std::size_t size() const { return jobs_.size(); }

  const Job& job(JobId id) const { return jobs_.at(static_cast<std::size_t>(id)); }

  /// Importance ratio k_I (Definition 3): max value density / min density.
  /// Returns 1 for empty instances.
  double importance_ratio() const;

  /// Σ v_i — the normaliser the paper uses for Table I / Fig. 1.
  double total_value() const;

  /// Σ p_i.
  double total_workload() const;

  /// max_i d_i (0 for empty instances) — the natural simulation end time.
  double max_deadline() const;

  /// True iff every job satisfies Definition 4 w.r.t. c_lo.
  bool all_individually_admissible() const;

  /// Ids of jobs violating Definition 4.
  std::vector<JobId> inadmissible_jobs() const;

  /// Returns a copy with inadmissible jobs removed (the paper notes they can
  /// be deleted without affecting the constant-capacity competitive ratio).
  Instance drop_inadmissible() const;

  /// Returns a copy with every value scaled by 1/min(value density) so the
  /// smallest density becomes exactly 1 — the paper's normalisation
  /// convention (Definition 3), which Lemma 1 assumes. No-op for empty
  /// instances; scaling is value-order preserving, so schedules and ratios
  /// are unchanged up to the common factor.
  Instance normalized() const;

  /// Appends one job to an instance an engine replays live, job by job
  /// (sim::Engine::admit_live(JobId); the serving daemon admits jobs into
  /// the engine directly instead). Releases must be non-decreasing so the
  /// canonical sorted-by-release form is preserved without re-sorting; the
  /// job's id is assigned to its position and returned. An engine bound to
  /// this instance may be mid-run in live mode — append only between engine
  /// callbacks.
  JobId append_job(Job job);

  /// Pre-sizes the job vector for `n` appends.
  void reserve_jobs(std::size_t n) { jobs_.reserve(n); }

  /// Serializes jobs to CSV ("id,release,workload,deadline,value").
  void save_jobs(const std::string& path) const;

  /// Loads a job list saved by save_jobs. Throws on malformed input.
  static std::vector<Job> load_jobs(const std::string& path);

 private:
  void validate() const;

  std::vector<Job> jobs_;  // sorted by release time, ids = positions
  cap::CapacityProfile capacity_;
  double c_lo_;
  double c_hi_;
};

}  // namespace sjs
