// Job model (paper Sec. II-A): each secondary job T_i carries a release time
// r_i, a workload p_i (capacity-seconds), a firm deadline d_i, and a value v_i
// collected only when the job completes by d_i.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <string>

namespace sjs {

// A JobId is the dense admission index of a job: its position in a sealed
// instance, or its admission order in a live session. The engine's per-job
// state is a window over these ids (sim::JobTable), so ids are never reused
// and every tie-break, trace payload and digest fold sees the same numbers
// in replay and live runs.
using JobId = std::int64_t;
inline constexpr JobId kNoJob = -1;

struct Job {
  JobId id = kNoJob;
  double release = 0.0;   ///< r_i
  double workload = 0.0;  ///< p_i, in units of capacity × time
  double deadline = 0.0;  ///< d_i (absolute, firm)
  double value = 0.0;     ///< v_i

  /// v_i / p_i, the paper's value density (Definition 3).
  double value_density() const { return value / workload; }

  /// Relative deadline d_i - r_i.
  double window() const { return deadline - release; }

  /// Individual admissibility (Definition 4): the job can always complete on
  /// its own regardless of capacity variation, i.e. d - r >= p / c_lo.
  /// A relative tolerance absorbs round-off: the paper's own simulation sets
  /// d = r + p/c_lo exactly, which floating point reproduces only to an ulp.
  bool individually_admissible(double c_lo) const {
    const double needed = workload / c_lo;
    return window() >= needed * (1.0 - 1e-12) - 1e-12;
  }

  /// Laxity under a constant capacity estimate c_est with remaining workload
  /// p_rem at time t (Definition 5 when c_est = c_lo: conservative laxity).
  double laxity(double t, double p_rem, double c_est) const {
    return deadline - t - p_rem / c_est;
  }

  /// Basic validity: finite, positive workload, deadline after release,
  /// non-negative value.
  bool valid() const;

  std::string to_string() const;
};

bool operator==(const Job& a, const Job& b);

/// Relative tolerance for "completed by deadline" decisions — the one
/// tolerance contract shared by both engines (sim::completes_by_deadline),
/// the invariant checker (obs/invariants.cpp) and the feasibility oracle
/// (offline/feasibility.cpp), so a change to it cannot split them. It lives
/// here, below all three, because obs/ cannot include sim/.
inline double deadline_eps(double deadline) {
  return 1e-9 * std::max(1.0, std::abs(deadline));
}

}  // namespace sjs
