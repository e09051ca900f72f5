#include "sched/edf_ac.hpp"

#include <algorithm>
#include <utility>
#include <vector>

#include "util/vec.hpp"

namespace sjs::sched {

void EdfAcScheduler::on_start(sim::Engine& engine) {
  if (c_est_ <= 0.0) c_est_ = engine.c_lo();
  admitted_.reserve(engine.job_capacity_hint());
  engine.job_state().admission_scratch().reserve(engine.job_capacity_hint() + 2);
}

bool EdfAcScheduler::admissible_with(const sim::Engine& engine,
                                     JobId candidate) const {
  // Gather (deadline, remaining work) of the admitted set + candidate and
  // sweep in EDF order at constant rate c_est: feasible iff cumulative
  // remaining work never overtakes c_est * (deadline − now). All admitted
  // jobs are already released, so release times play no role. Visitation
  // order does not matter: the entries are sorted before the sweep. The
  // scratch is the job window's admission buffer — pre-sized in on_start and
  // reused across calls, so the trial schedule is allocation-free.
  std::vector<std::pair<double, double>>& load =
      engine.job_state().admission_scratch();
  load.clear();
  admitted_.for_each_unordered([&](const ReadyQueue::Entry& e) {
    util::append_emplace(load, e.key, engine.remaining(e.id));
  });
  if (engine.running() != kNoJob) {
    util::append_emplace(load, engine.job(engine.running()).deadline,
                         engine.remaining(engine.running()));
  }
  util::append_emplace(load, engine.job(candidate).deadline,
                       engine.remaining(candidate));
  std::sort(load.begin(), load.end());

  const double now = engine.now();
  double cumulative = 0.0;
  for (const auto& [deadline, remaining] : load) {
    cumulative += remaining;
    if (cumulative > c_est_ * (deadline - now) + 1e-9) return false;
  }
  return true;
}

void EdfAcScheduler::dispatch(sim::Engine& engine) {
  if (admitted_.empty()) return;
  const double best_deadline = admitted_.top().key;
  const JobId current = engine.running();
  if (current != kNoJob && engine.job(current).deadline <= best_deadline) {
    return;
  }
  const JobId best = admitted_.pop().id;
  if (current != kNoJob) {
    admitted_.push(engine.job(current).deadline, current);
  }
  engine.run(best);
}

void EdfAcScheduler::on_release(sim::Engine& engine, JobId job) {
  if (!admissible_with(engine, job)) {
    ++rejected_;  // never scheduled; expires on its own
    return;
  }
  admitted_.push(engine.job(job).deadline, job);
  dispatch(engine);
}

void EdfAcScheduler::on_complete(sim::Engine& engine, JobId /*job*/) {
  dispatch(engine);
}

void EdfAcScheduler::on_expire(sim::Engine& engine, JobId job,
                               bool /*was_running*/) {
  admitted_.erase(job);
  dispatch(engine);
}

}  // namespace sjs::sched
