// Global (migrating) schedulers for the multi-server engine: at every
// interrupt, the K highest-priority live jobs run, one per server — the
// multiprocessor analogues of EDF ("global EDF") and highest-value-density.
//
// Placement policy: a chosen job already executing stays put (no gratuitous
// migration); newly chosen jobs are matched to freed servers in priority
// order, fastest-current-rate server first — with heterogeneous capacity the
// most urgent job gets the fastest machine.
#pragma once

#include <cstdint>
#include <set>
#include <utility>
#include <vector>

#include "cloud/multi_engine.hpp"

namespace sjs::cloud {

enum class GlobalKey {
  kDeadline,      ///< global EDF
  kValueDensity,  ///< global HVDF (highest v/p first)
};

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
  double priority(const MultiEngine& engine, JobId job) const;
  /// Recomputes the top-K assignment (stable for already-placed winners).
  void reschedule(MultiEngine& engine);

  GlobalKey key_;
  /// Live jobs ordered by (priority, id) — lower is better.
  std::set<std::pair<double, JobId>> live_;
  /// reschedule() scratch, sized to the server count in on_start so an
  /// interrupt allocates nothing: the top-K winners, and which servers are
  /// still unassigned (uint8_t, not the bit-packed vector<bool>).
  std::vector<JobId> chosen_;
  std::vector<std::uint8_t> available_;
};

}  // namespace sjs::cloud
