#include "sim/result.hpp"

#include <charconv>
#include <cmath>
#include <fstream>
#include <limits>
#include <sstream>
#include <stdexcept>

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

char* format_outcome_row(char* first, JobId id, JobOutcome outcome,
                         double completion, double value) {
  char* const last = first + kOutcomeRowMax;
  first = std::to_chars(first, last, id).ptr;
  const char* label = outcome == JobOutcome::kCompleted ? ",completed,"
                      : outcome == JobOutcome::kExpired ? ",expired,"
                                                        : ",pending,";
  while (*label) *first++ = *label++;
  const bool completed = outcome == JobOutcome::kCompleted;
  if (completed && !std::isnan(completion)) {
    first = format_double_to(first, last, completion);
  }
  *first++ = ',';
  first = format_double_to(first, last, completed ? value : 0.0);
  *first++ = '\n';
  return first;
}

void save_outcomes_csv(const SimResult& result, const std::vector<Job>& jobs,
                       const std::string& path) {
  save_outcomes_csv(result.outcomes, result.completion_times, jobs, path);
}

void save_outcomes_csv(std::span<const JobOutcome> outcomes,
                       std::span<const double> completion_times,
                       const std::vector<Job>& jobs, const std::string& path) {
  std::ofstream out(path, std::ios::binary);
  if (!out) throw std::runtime_error("cannot open for writing: " + path);
  out << kOutcomesCsvHeader;
  char row[kOutcomeRowMax];
  for (std::size_t i = 0; i < outcomes.size(); ++i) {
    const double completion = i < completion_times.size()
                                  ? completion_times[i]
                                  : std::numeric_limits<double>::quiet_NaN();
    const double value = i < jobs.size() ? jobs[i].value : 0.0;
    const char* end = format_outcome_row(row, static_cast<JobId>(i),
                                         outcomes[i], completion, value);
    out.write(row, end - row);
  }
  if (!out) throw std::runtime_error("write failed: " + path);
}

}  // namespace sjs::sim
