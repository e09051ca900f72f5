#include "cluster/fleet.hpp"

#include <algorithm>
#include <stdexcept>

#include "util/csv.hpp"
#include "util/logging.hpp"

namespace sjs::cluster {

ServerSpec small_spec() { return ServerSpec{1.0, 35.0, 0.5, 0.45}; }
ServerSpec standard_spec() { return ServerSpec{1.0, 35.0, 1.0, 1.0}; }
ServerSpec large_spec() { return ServerSpec{1.0, 35.0, 2.0, 2.2}; }

Fleet Fleet::uniform(std::size_t k, const ServerSpec& spec) {
  SJS_CHECK_MSG(k > 0, "fleet needs at least one machine");
  Fleet fleet;
  for (std::size_t i = 0; i < k; ++i) fleet.add(spec);
  return fleet;
}

Fleet Fleet::heterogeneous(std::size_t k) {
  SJS_CHECK_MSG(k > 0, "fleet needs at least one machine");
  const ServerSpec cycle[3] = {large_spec(), standard_spec(), small_spec()};
  Fleet fleet;
  for (std::size_t i = 0; i < k; ++i) fleet.add(cycle[i % 3]);
  return fleet;
}

double Fleet::admission_c_lo() const {
  SJS_CHECK_MSG(!specs_.empty(), "empty fleet");
  double best = specs_[0].lo();
  for (const ServerSpec& s : specs_) best = std::max(best, s.lo());
  return best;
}

double Fleet::max_hi() const {
  SJS_CHECK_MSG(!specs_.empty(), "empty fleet");
  double best = specs_[0].hi();
  for (const ServerSpec& s : specs_) best = std::max(best, s.hi());
  return best;
}

double Fleet::total_cost_rate() const {
  double total = 0.0;
  for (const ServerSpec& s : specs_) total += s.cost_rate;
  return total;
}

std::vector<cap::CapacityProfile> Fleet::constant_paths() const {
  std::vector<cap::CapacityProfile> paths;
  paths.reserve(specs_.size());
  for (const ServerSpec& s : specs_) {
    paths.push_back(cap::CapacityProfile(s.hi()));
  }
  return paths;
}

std::vector<cap::TwoStateMarkovParams> Fleet::ctmc_bases(
    const ScenarioConfig& config) const {
  std::vector<cap::TwoStateMarkovParams> bases;
  bases.reserve(specs_.size());
  for (const ServerSpec& s : specs_) {
    cap::TwoStateMarkovParams b;
    b.c_lo = s.lo();
    b.c_hi = s.hi();
    b.mean_sojourn_lo = config.mean_sojourn_lo;
    b.mean_sojourn_hi = config.mean_sojourn_hi;
    b.p_start_hi = config.p_start_hi;
    bases.push_back(b);
  }
  return bases;
}

std::vector<cap::CapacityProfile> Fleet::sample_paths(
    const ScenarioConfig& config, double horizon, Rng& rng,
    cap::FleetEventInfo* info) const {
  SJS_CHECK_MSG(!specs_.empty(), "empty fleet");
  const auto bases = ctmc_bases(config);
  if (info) *info = cap::FleetEventInfo{};
  switch (config.kind) {
    case cap::ScenarioKind::kSteady: {
      std::vector<cap::CapacityProfile> paths;
      paths.reserve(bases.size());
      for (const auto& b : bases) {
        paths.push_back(cap::sample_two_state_markov(b, horizon, rng));
      }
      return paths;
    }
    case cap::ScenarioKind::kDiurnal: {
      std::vector<cap::CapacityProfile> paths;
      paths.reserve(bases.size());
      for (const auto& b : bases) {
        paths.push_back(
            cap::sample_diurnal_ctmc(b, config.diurnal, horizon, rng));
      }
      return paths;
    }
    case cap::ScenarioKind::kFlashCrowd:
      return cap::sample_flash_crowd_fleet(bases, config.flash, horizon, rng,
                                           info);
    case cap::ScenarioKind::kCorrelatedOutage: {
      cap::CorrelatedOutageParams outage = config.outage;
      outage.failures = std::min(outage.failures, bases.size());
      return cap::sample_correlated_outage_fleet(bases, outage, horizon, rng,
                                                 info);
    }
  }
  SJS_CHECK_MSG(false, "unknown scenario kind");
  return {};
}

void save_fleet_csv(const Fleet& fleet, const std::string& path) {
  CsvWriter w(path);
  w.write_row({"server", "c_lo", "c_hi", "speed", "cost_rate"});
  for (std::size_t k = 0; k < fleet.size(); ++k) {
    const ServerSpec& s = fleet.spec(k);
    w.write_row({std::to_string(k), format_double(s.c_lo),
                 format_double(s.c_hi), format_double(s.speed),
                 format_double(s.cost_rate)});
  }
}

Fleet load_fleet_csv(const std::string& path) {
  const auto rows = read_csv(path);
  if (rows.size() < 2) {
    throw std::runtime_error("fleet.csv has no machines: " + path);
  }
  Fleet fleet;
  for (std::size_t i = 1; i < rows.size(); ++i) {
    if (rows[i].size() != 5) {
      throw std::runtime_error("malformed fleet.csv row in " + path);
    }
    ServerSpec s;
    try {
      s.c_lo = parse_double(rows[i][1]);
      s.c_hi = parse_double(rows[i][2]);
      s.speed = parse_double(rows[i][3]);
      s.cost_rate = parse_double(rows[i][4]);
    } catch (const std::exception&) {
      throw std::runtime_error("non-numeric fleet.csv row in " + path);
    }
    fleet.add(s);
  }
  return fleet;
}

}  // namespace sjs::cluster
