// Global (migrating) schedulers for the multi-server engine: at every
// interrupt, the K highest-priority live jobs run, one per server — the
// multiprocessor analogues of EDF ("global EDF") and highest-value-density.
//
// Live jobs sit in a cloud::RankedLiveSet (sorted flat head of the best K,
// ReadyQueue tail), so the top-K winners are read straight off its head and
// no interrupt of a batch run allocates after on_start.
//
// Placement policy (place_ranked, shared with cluster::Dispatcher): a chosen
// job already executing stays put (no gratuitous migration); newly chosen
// jobs are matched to freed servers in priority order, fastest-current-rate
// server first — with heterogeneous capacity the most urgent job gets the
// fastest machine.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "cloud/multi_engine.hpp"
#include "cloud/ranked_live_set.hpp"

namespace sjs::cloud {

enum class GlobalKey {
  kDeadline,      ///< global EDF
  kValueDensity,  ///< global HVDF (highest v/p first)
};

/// Rank key of `job` under `key` — lower is better (density is negated so
/// the densest job ranks first).
inline double global_key(GlobalKey key, const Job& job) {
  return key == GlobalKey::kDeadline ? job.deadline : -job.value_density();
}

/// Top-R placement: runs `winners` (in rank order) on the servers whose
/// `available` flag is set on entry. Each winner takes the fastest
/// still-available server, staying put when its current server ties the
/// maximum; run_on places, preempts, or migrates as needed. Every server
/// still flagged afterwards that executes a non-winner goes idle. Requires
/// winners.size() <= the number of flagged servers; `available` is scratch
/// (one flag per server) and is consumed.
void place_ranked(MultiEngine& engine,
                  std::span<const RankedLiveSet::Entry> winners,
                  std::span<std::uint8_t> available);

class GlobalKeyScheduler : public GlobalScheduler {
 public:
  explicit GlobalKeyScheduler(GlobalKey key) : key_(key) {}

  void on_start(MultiEngine& engine) override;
  void on_release(MultiEngine& engine, JobId job) override;
  void on_complete(MultiEngine& engine, JobId job,
                   std::size_t server) override;
  void on_expire(MultiEngine& engine, JobId job, std::size_t server) override;
  std::string name() const override {
    return key_ == GlobalKey::kDeadline ? "Global-EDF" : "Global-HVDF";
  }

 private:
  /// Places the top-K live jobs on all K servers.
  void reschedule(MultiEngine& engine);

  GlobalKey key_;
  RankedLiveSet live_;
  /// place_ranked() scratch, sized to the server count in on_start (uint8_t,
  /// not the bit-packed vector<bool>).
  std::vector<std::uint8_t> available_;
};

}  // namespace sjs::cloud
