#include "sim/result.hpp"

#include <cmath>
#include <sstream>

#include "util/csv.hpp"

namespace sjs::sim {

std::vector<double> SimResult::response_times() const {
  std::vector<double> out;
  for (std::size_t i = 0;
       i < completion_times.size() && i < release_times.size(); ++i) {
    if (!std::isnan(completion_times[i])) {
      out.push_back(completion_times[i] - release_times[i]);
    }
  }
  return out;
}

void SimResult::clear() {
  scheduler_name.clear();
  completed_value = 0.0;
  generated_value = 0.0;
  completed_count = 0;
  expired_count = 0;
  outcomes.clear();
  executed_work.clear();
  completion_times.clear();
  release_times.clear();
  value_trace.clear();
  schedule.clear();
  dispatches = 0;
  preemptions = 0;
  events_processed = 0;
  busy_time = 0.0;
  executed_total = 0.0;
  timers_armed = 0;
  timer_slab_peak = 0;
  timer_slab_slots = 0;
  event_heap_peak = 0;
  event_heap_dead_peak = 0;
  heap_compactions = 0;
  queue_peak = 0;
  queue_slots = 0;
  job_slab_peak = 0;
  job_slab_slots = 0;
}

double SimResult::mean_response_time() const {
  const auto responses = response_times();
  if (responses.empty()) return 0.0;
  double total = 0.0;
  for (double r : responses) total += r;
  return total / static_cast<double>(responses.size());
}

std::string SimResult::to_string() const {
  std::ostringstream os;
  os << scheduler_name << ": value " << completed_value << "/"
     << generated_value << " (" << value_fraction() * 100.0 << "%), "
     << completed_count << " completed, " << expired_count << " expired, "
     << preemptions << " preemptions, " << events_processed << " events";
  return os.str();
}

void save_outcomes_csv(const SimResult& result, const std::vector<Job>& jobs,
                       const std::string& path) {
  CsvWriter w(path);
  w.write_row({"id", "outcome", "completion", "value_collected"});
  for (std::size_t i = 0; i < result.outcomes.size(); ++i) {
    const char* outcome = "pending";
    double collected = 0.0;
    std::string completion;
    if (result.outcomes[i] == JobOutcome::kCompleted) {
      outcome = "completed";
      collected = i < jobs.size() ? jobs[i].value : 0.0;
      if (i < result.completion_times.size() &&
          !std::isnan(result.completion_times[i])) {
        completion = format_double(result.completion_times[i]);
      }
    } else if (result.outcomes[i] == JobOutcome::kExpired) {
      outcome = "expired";
    }
    w.write_row({std::to_string(i), outcome, completion,
                 format_double(collected)});
  }
}

}  // namespace sjs::sim
