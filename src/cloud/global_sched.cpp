#include "cloud/global_sched.hpp"

#include <algorithm>

namespace sjs::cloud {

void place_ranked(MultiEngine& engine,
                  std::span<const RankedLiveSet::Entry> winners,
                  std::span<std::uint8_t> available) {
  const std::size_t servers = available.size();
  // Assign in priority order: each winner takes the fastest still-available
  // server, *staying put when its current server ties the maximum* (no
  // gratuitous migration among equal machines). run_on handles everything:
  // placing a queued job, preempting a lower-priority incumbent, and
  // migrating a running winner onto a faster machine.
  for (const RankedLiveSet::Entry& winner : winners) {
    std::size_t best = kNoServer;
    for (std::size_t s = 0; s < servers; ++s) {
      if (!available[s]) continue;
      if (best == kNoServer ||
          engine.server_rate(s) > engine.server_rate(best)) {
        best = s;
      }
    }
    const std::size_t current = engine.server_of(winner.id);
    std::size_t target = best;
    if (current != kNoServer && available[current] &&
        engine.server_rate(current) >= engine.server_rate(best)) {
      target = current;
    }
    available[target] = 0;
    if (current != target) engine.run_on(target, winner.id);
  }
  // Any remaining server still executing a non-winner goes idle.
  for (std::size_t s = 0; s < servers; ++s) {
    if (available[s] && engine.running_on(s) != kNoJob) engine.idle(s);
  }
}

void GlobalKeyScheduler::on_start(MultiEngine& engine) {
  live_.begin_run(engine.server_count(), engine.job_capacity_hint());
  available_.assign(engine.server_count(), 0);
}

void GlobalKeyScheduler::reschedule(MultiEngine& engine) {
  std::fill(available_.begin(), available_.end(), 1);
  place_ranked(engine, live_.head(), available_);
}

void GlobalKeyScheduler::on_release(MultiEngine& engine, JobId job) {
  live_.insert(global_key(key_, engine.job(job)), job);
  reschedule(engine);
}

void GlobalKeyScheduler::on_complete(MultiEngine& engine, JobId job,
                                     std::size_t /*server*/) {
  live_.erase(job);
  reschedule(engine);
}

void GlobalKeyScheduler::on_expire(MultiEngine& engine, JobId job,
                                   std::size_t /*server*/) {
  live_.erase(job);
  reschedule(engine);
}

}  // namespace sjs::cloud
