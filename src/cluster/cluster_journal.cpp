#include "cluster/cluster_journal.hpp"

#include <filesystem>
#include <stdexcept>

#include "capacity/trace_io.hpp"
#include "jobs/instance.hpp"
#include "util/csv.hpp"
#include "util/logging.hpp"

namespace sjs::cluster {

namespace fs = std::filesystem;

namespace {

std::string server_trace_name(std::size_t k) {
  return "server" + std::to_string(k) + ".csv";
}

}  // namespace

ClusterJournal::ClusterJournal(const std::string& dir, const Fleet& fleet,
                               const std::vector<cap::CapacityProfile>& paths,
                               const Meta& meta)
    : serve::Journal(dir) {
  SJS_CHECK(fleet.size() > 0);
  SJS_CHECK(paths.size() == fleet.size());
  save_fleet_csv(fleet, (fs::path(dir) / "fleet.csv").string());
  for (std::size_t k = 0; k < paths.size(); ++k) {
    cap::save_trace(paths[k], (fs::path(dir) / server_trace_name(k)).string());
  }
  write_band(fleet.admission_c_lo(), fleet.max_hi());
  write_meta({{"scheduler", meta.scheduler},
              {"cluster", std::to_string(fleet.size())},
              {"sched_key", meta.key},
              {"rental", meta.rental},
              {"budget", format_double(meta.budget)},
              {"min_rented", std::to_string(meta.min_rented)},
              {"accel", format_double(meta.accel)},
              {"admission_check", meta.admission_check ? "1" : "0"}});
}

ClusterBundle load_cluster_bundle(const std::string& dir) {
  ClusterBundle bundle;
  bundle.fleet = load_fleet_csv((fs::path(dir) / "fleet.csv").string());
  if (bundle.fleet.size() == 0) {
    throw std::runtime_error("cluster bundle has an empty fleet: " + dir);
  }
  bundle.paths.reserve(bundle.fleet.size());
  for (std::size_t k = 0; k < bundle.fleet.size(); ++k) {
    bundle.paths.push_back(
        cap::load_trace((fs::path(dir) / server_trace_name(k)).string()));
  }

  bundle.meta = serve::read_journal_meta(dir);

  bundle.jobs = Instance::load_jobs((fs::path(dir) / "jobs.csv").string());
  for (std::size_t i = 0; i < bundle.jobs.size(); ++i) {
    if (bundle.jobs[i].id != static_cast<JobId>(i)) {
      throw std::runtime_error("non-dense job ids in cluster bundle " + dir);
    }
  }
  bundle.cancels = serve::read_journal_cancels(dir);
  return bundle;
}

}  // namespace sjs::cluster
