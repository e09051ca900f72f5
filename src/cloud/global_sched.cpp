#include "cloud/global_sched.hpp"

#include <algorithm>

namespace sjs::cloud {

double GlobalKeyScheduler::priority(const MultiEngine& engine,
                                    JobId job) const {
  const Job& j = engine.job(job);
  // Lower is better; negate density so higher density sorts first.
  return key_ == GlobalKey::kDeadline ? j.deadline : -j.value_density();
}

void GlobalKeyScheduler::on_start(MultiEngine& engine) {
  chosen_.assign(engine.server_count(), kNoJob);
  available_.assign(engine.server_count(), 0);
}

void GlobalKeyScheduler::reschedule(MultiEngine& engine) {
  const std::size_t k = engine.server_count();

  // The top-K live jobs by priority.
  std::size_t n = 0;
  for (const auto& [prio, job] : live_) {
    if (n == k) break;
    chosen_[n++] = job;
  }

  // Assign in priority order: each winner takes the fastest still-available
  // server, *staying put when its current server ties the maximum* (no
  // gratuitous migration among equal machines). run_on handles everything:
  // placing a queued job, preempting a lower-priority incumbent, and
  // migrating a running winner onto a faster machine.
  std::fill(available_.begin(), available_.end(), 1);
  for (std::size_t i = 0; i < n; ++i) {
    const JobId job = chosen_[i];
    std::size_t best = kNoServer;
    for (std::size_t s = 0; s < k; ++s) {
      if (!available_[s]) continue;
      if (best == kNoServer ||
          engine.server_rate(s) > engine.server_rate(best)) {
        best = s;
      }
    }
    const std::size_t current = engine.server_of(job);
    std::size_t target = best;
    if (current != kNoServer && available_[current] &&
        engine.server_rate(current) >= engine.server_rate(best)) {
      target = current;
    }
    available_[target] = 0;
    if (current != target) engine.run_on(target, job);
  }
  // Any remaining server still executing a non-winner goes idle.
  for (std::size_t s = 0; s < k; ++s) {
    if (available_[s] && engine.running_on(s) != kNoJob) {
      engine.idle(s);
    }
  }
}

void GlobalKeyScheduler::on_release(MultiEngine& engine, JobId job) {
  live_.emplace(priority(engine, job), job);
  reschedule(engine);
}

void GlobalKeyScheduler::on_complete(MultiEngine& engine, JobId job,
                                     std::size_t /*server*/) {
  live_.erase({priority(engine, job), job});
  reschedule(engine);
}

void GlobalKeyScheduler::on_expire(MultiEngine& engine, JobId job,
                                   std::size_t /*server*/) {
  live_.erase({priority(engine, job), job});
  reschedule(engine);
}

}  // namespace sjs::cloud
