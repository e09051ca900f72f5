// Append-only cluster admission journal, laid out as a loadable cluster
// bundle — the fleet analogue of serve::Journal.
//
// Directory layout (all %.17g doubles, so every stamp round-trips exactly):
//   fleet.csv      server,c_lo,c_hi,speed,cost_rate — the machine set
//   server<k>.csv  time,rate — server k's capacity path (written once)
//   band.csv       c_lo,c_hi — the fleet admission band (info)
//   meta.csv       key,value — scheduler key, rental policy, budget, accel...
//   jobs.csv       one write(2) per admitted job (id,release,workload,
//                  deadline,value — the Instance row layout)
//   cancels.csv    time,ticket (a session with cancels is not replayable)
//   outcomes.csv   one row per admitted job, streamed as the session
//                  retires its jobs (serve::Journal::record_outcome)
//
// Replay:  sjs_sim --cluster-bundle=<dir>  rebuilds the fleet, dispatcher,
// and job stream and must reproduce outcomes.csv byte-for-byte
// (tests/cluster_serve_test.cpp; gated in CI by scripts/serve_smoke.sh).
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "capacity/capacity_profile.hpp"
#include "cluster/fleet.hpp"
#include "jobs/job.hpp"
#include "serve/journal.hpp"

namespace sjs::cluster {

class ClusterJournal final : public serve::Journal {
 public:
  struct Meta {
    std::string scheduler;       ///< dispatcher name ("Cluster-EDF/threshold")
    std::string key = "deadline";///< "deadline" | "density"
    std::string rental = "static";
    double budget = 0.0;
    std::size_t min_rented = 1;
    double accel = 1.0;
    bool admission_check = true;
  };

  /// Creates the directory, writes fleet/server<k>/band/meta headers, opens
  /// jobs.csv, cancels.csv and outcomes.csv for appending
  /// (serve::Journal's append-only half: same row layout, durability
  /// contract and close()). Throws on I/O failure.
  ClusterJournal(const std::string& dir, const Fleet& fleet,
                 const std::vector<cap::CapacityProfile>& paths,
                 const Meta& meta);
};

/// Everything needed to replay a cluster session.
struct ClusterBundle {
  std::vector<Job> jobs;
  Fleet fleet;
  std::vector<cap::CapacityProfile> paths;  ///< one per fleet machine
  std::map<std::string, std::string> meta;
  std::vector<std::pair<double, JobId>> cancels;
};

/// Loads a cluster journal directory. Throws on missing/malformed files.
ClusterBundle load_cluster_bundle(const std::string& dir);

}  // namespace sjs::cluster
