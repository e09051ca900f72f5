// Open-loop Poisson load generator for the admission service (tools/sjs_load).
//
// Open-loop means submissions are paced by the arrival process alone — a
// slow or shedding server does not slow the generator down — which is the
// regime where backpressure behaviour (SHED replies, write-budget drops) is
// actually exercised. Job shapes follow the paper's workload model: i.i.d.
// workloads, deadlines set to a uniform multiple of the minimum feasible
// window p/c_lo, value densities uniform in [1, k] (Sec. V).
//
// Single-threaded and clock-injected like everything in serve/: pacing and
// latency measurement use the provided Clock, never a direct time syscall.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "serve/clock.hpp"
#include "stats/summary.hpp"

namespace sjs::serve {

struct LoadGenConfig {
  int port = 0;
  double duration_s = 2.0;       ///< wall seconds of submission activity
  double linger_s = 2.0;         ///< extra wall seconds to collect notifications
  double arrival_rate = 200.0;   ///< submissions per wall second (Poisson)
  double mean_workload = 0.02;   ///< virtual capacity-seconds (exponential)
  double c_lo = 1.0;             ///< band floor assumed for deadline windows
  double slack_min = 1.05;       ///< window = slack * p / c_lo, slack ~ U[min,max]
  double slack_max = 4.0;
  double k = 7.0;                ///< value density ~ U[1, k]
  std::uint64_t seed = 1;
  bool send_drain = false;       ///< send DRAIN after the last submission
  int connections = 1;           ///< sockets; submissions round-robin over them
};

/// Per-connection slice of a load run (LoadReport::connections).
struct ConnReport {
  std::uint64_t submitted = 0;
  std::uint64_t accepted = 0;
  std::uint64_t rejected = 0;
  std::uint64_t shed = 0;
  std::uint64_t completed = 0;
  std::uint64_t expired = 0;
  Summary ack_latency;
  Summary completion_latency;
};

struct LoadReport {
  std::uint64_t submitted = 0;
  std::uint64_t accepted = 0;
  std::uint64_t rejected = 0;
  std::uint64_t shed = 0;
  std::uint64_t completed = 0;
  std::uint64_t expired = 0;
  double submitted_value = 0.0;
  double admitted_value = 0.0;
  double completed_value = 0.0;
  bool drain_acked = false;

  /// completed / admitted value — the live analogue of Table I's metric.
  double captured_fraction() const {
    return admitted_value > 0.0 ? completed_value / admitted_value : 0.0;
  }

  Summary ack_latency;         ///< wall s, SUBMIT → ACCEPTED/REJECTED/SHED
  Summary completion_latency;  ///< wall s, SUBMIT → COMPLETED
  /// wall s, how long after the server's clock reached a job's completion
  /// instant its COMPLETED arrived (notification_lags below).
  Summary notify_lag;
  /// Per-connection breakdown, index = connection number (round-robin
  /// position). Size = LoadGenConfig::connections.
  std::vector<ConnReport> connections;

  std::string to_string() const;
};

/// Merges per-connection latency samples into the pooled Summary the merged
/// report carries: quantiles are recomputed over the union of the raw
/// samples, never averaged across per-connection summaries — averaging a
/// fast connection's p99 with a slow one's understates the tail exactly when
/// the skew matters. Exposed so the pooling rule is testable on its own.
Summary merge_latency_samples(const std::vector<std::vector<double>>& per_conn);

/// One ACCEPTED as the client saw it: when the SUBMIT was sent and the
/// reply received (client clock, s), and the release it stamps (virtual s).
struct AcceptStamp {
  double sent_at = 0.0;
  double received_at = 0.0;
  double release = 0.0;
};

/// One COMPLETED: when it was received (client clock, s) and the completion
/// instant it reports (virtual s).
struct CompletionStamp {
  double received_at = 0.0;
  double completed_at = 0.0;
};

/// Notification lag of each completion, wall s: its receipt time minus the
/// wall instant the server's clock reached the reported completion time.
/// The server maps wall to virtual time as virtual = (wall − epoch)·accel,
/// and the client knows neither. accel is the slope between two anchor
/// stamps, the ACCEPTED with the shortest round trip in the first and in
/// the last quarter of `accepted`, each placed at its round trip's midpoint.
/// The epoch is the tightest bound the ACCEPTEDs give: the server stamped r
/// no later than the reply arrived, so epoch ≤ received_at − r/accel for
/// every one (perfbench/README.md, "Notify-lag epoch"). The lags are
/// therefore biased low by at most the shortest stamp-to-receipt delay.
/// Empty when fewer than two ACCEPTEDs with distinct stamps exist.
std::vector<double> notification_lags(
    const std::vector<AcceptStamp>& accepted,
    const std::vector<CompletionStamp>& completions);

/// Opens `config.connections` sockets to 127.0.0.1:port and runs the
/// configured load round-robin over them (still single-threaded: one poll
/// set, so extra connections stress the server, not the client). Throws
/// std::runtime_error when a connection cannot be established.
LoadReport run_load(const LoadGenConfig& config, Clock& clock);

}  // namespace sjs::serve
