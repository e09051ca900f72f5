#include "offline/feasibility.hpp"

#include <algorithm>
#include <cmath>
#include <queue>
#include "util/fp.hpp"

namespace sjs::offline {

namespace {

struct LiveJob {
  double deadline;
  double remaining;
  std::size_t index;  // tie-break for determinism

  bool operator>(const LiveJob& other) const {
    if (fp::exact_ne(deadline, other.deadline)) {
      return deadline > other.deadline;
    }
    return index > other.index;
  }
};

}  // namespace

bool edf_feasible(const std::vector<Job>& jobs,
                  const cap::CapacityProfile& profile) {
  if (jobs.empty()) return true;

  std::vector<std::size_t> order(jobs.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    return jobs[a].release < jobs[b].release;
  });

  std::priority_queue<LiveJob, std::vector<LiveJob>, std::greater<LiveJob>>
      live;
  std::size_t next = 0;
  double t = 0.0;

  auto admit_released = [&](double now) {
    while (next < order.size() && jobs[order[next]].release <= now) {
      const Job& j = jobs[order[next]];
      live.push(LiveJob{j.deadline, j.workload, order[next]});
      ++next;
    }
  };

  while (next < order.size() || !live.empty()) {
    if (live.empty()) {
      t = std::max(t, jobs[order[next]].release);
      admit_released(t);
      continue;
    }
    LiveJob top = live.top();
    const double finish = profile.invert(t, top.remaining);
    const double next_release =
        next < order.size() ? jobs[order[next]].release
                            : cap::CapacityProfile::kInfinity;
    if (finish <= next_release) {
      // Runs uninterrupted to completion — feasible iff it makes the
      // deadline (EDF is feasibility-optimal, so a miss here is a proof of
      // infeasibility, not a scheduling artefact).
      if (finish > top.deadline + deadline_eps(top.deadline)) return false;
      live.pop();
      t = finish;
    } else {
      // An arrival interrupts first. A miss before that arrival is still
      // final: no queued job has an earlier deadline than the running one.
      if (next_release > top.deadline + deadline_eps(top.deadline)) {
        return false;
      }
      live.pop();
      top.remaining -= profile.work(t, next_release);
      live.push(top);
      t = next_release;
      admit_released(t);
    }
  }
  return true;
}

}  // namespace sjs::offline
