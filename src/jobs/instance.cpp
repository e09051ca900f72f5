#include "jobs/instance.hpp"

#include <algorithm>
#include <stdexcept>

#include "util/csv.hpp"
#include "util/logging.hpp"

namespace sjs {

Instance::Instance(std::vector<Job> jobs, cap::CapacityProfile capacity,
                   double c_lo, double c_hi)
    : jobs_(std::move(jobs)),
      capacity_(std::move(capacity)),
      c_lo_(c_lo),
      c_hi_(c_hi) {
  // Canonical form: jobs sorted by (release, original order), ids reassigned
  // to positions so the engine can index arrays by JobId.
  std::stable_sort(jobs_.begin(), jobs_.end(),
                   [](const Job& a, const Job& b) {
                     return a.release < b.release;
                   });
  for (std::size_t i = 0; i < jobs_.size(); ++i) {
    jobs_[i].id = static_cast<JobId>(i);
  }
  validate();
}

Instance::Instance(std::vector<Job> jobs, cap::CapacityProfile capacity)
    : Instance(std::move(jobs), capacity, capacity.min_rate(),
               capacity.max_rate()) {}

void Instance::validate() const {
  SJS_CHECK_MSG(c_lo_ > 0.0, "band lower bound must be positive");
  SJS_CHECK_MSG(c_hi_ >= c_lo_, "band upper bound below lower bound");
  SJS_CHECK_MSG(capacity_.min_rate() >= c_lo_ - 1e-12,
                "capacity path dips below the declared band: "
                    << capacity_.min_rate() << " < " << c_lo_);
  SJS_CHECK_MSG(capacity_.max_rate() <= c_hi_ + 1e-12,
                "capacity path exceeds the declared band: "
                    << capacity_.max_rate() << " > " << c_hi_);
  for (const Job& j : jobs_) {
    SJS_CHECK_MSG(j.valid(), "invalid job: " << j.to_string());
  }
}

double Instance::importance_ratio() const {
  if (jobs_.empty()) return 1.0;
  double lo = jobs_[0].value_density();
  double hi = lo;
  for (const Job& j : jobs_) {
    lo = std::min(lo, j.value_density());
    hi = std::max(hi, j.value_density());
  }
  return hi / lo;
}

double Instance::total_value() const {
  double v = 0.0;
  for (const Job& j : jobs_) v += j.value;
  return v;
}

double Instance::total_workload() const {
  double p = 0.0;
  for (const Job& j : jobs_) p += j.workload;
  return p;
}

double Instance::max_deadline() const {
  double d = 0.0;
  for (const Job& j : jobs_) d = std::max(d, j.deadline);
  return d;
}

bool Instance::all_individually_admissible() const {
  return inadmissible_jobs().empty();
}

std::vector<JobId> Instance::inadmissible_jobs() const {
  std::vector<JobId> out;
  for (const Job& j : jobs_) {
    if (!j.individually_admissible(c_lo_)) out.push_back(j.id);
  }
  return out;
}

Instance Instance::drop_inadmissible() const {
  std::vector<Job> kept;
  kept.reserve(jobs_.size());
  for (const Job& j : jobs_) {
    if (j.individually_admissible(c_lo_)) kept.push_back(j);
  }
  return Instance(std::move(kept), capacity_, c_lo_, c_hi_);
}

Instance Instance::normalized() const {
  if (jobs_.empty()) return *this;
  double min_density = jobs_[0].value_density();
  for (const Job& j : jobs_) {
    min_density = std::min(min_density, j.value_density());
  }
  std::vector<Job> scaled = jobs_;
  if (min_density > 0.0) {
    for (Job& j : scaled) j.value /= min_density;
  }
  return Instance(std::move(scaled), capacity_, c_lo_, c_hi_);
}

JobId Instance::append_job(Job job) {
  SJS_CHECK_MSG(jobs_.empty() || job.release >= jobs_.back().release,
                "live append must be release-monotone: "
                    << job.release << " < " << jobs_.back().release);
  job.id = static_cast<JobId>(jobs_.size());
  SJS_CHECK_MSG(job.valid(), "invalid job: " << job.to_string());
  jobs_.push_back(job);
  return job.id;
}

void Instance::save_jobs(const std::string& path) const {
  CsvWriter writer(path);
  writer.write_row({"id", "release", "workload", "deadline", "value"});
  for (const Job& j : jobs_) {
    writer.write_row_numeric({static_cast<double>(j.id), j.release,
                              j.workload, j.deadline, j.value});
  }
}

std::vector<Job> Instance::load_jobs(const std::string& path) {
  auto rows = read_csv(path);
  std::vector<Job> jobs;
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const auto& row = rows[i];
    if (i == 0 && !row.empty() && row[0] == "id") continue;
    if (row.size() != 5) {
      throw std::runtime_error("job row " + std::to_string(i) +
                               " must have 5 fields");
    }
    Job j;
    try {
      j.id = static_cast<JobId>(std::stol(row[0]));
      j.release = parse_double(row[1]);
      j.workload = parse_double(row[2]);
      j.deadline = parse_double(row[3]);
      j.value = parse_double(row[4]);
    } catch (const std::exception&) {
      throw std::runtime_error("job row " + std::to_string(i) +
                               " is not numeric");
    }
    if (!j.valid()) {
      throw std::runtime_error("job row " + std::to_string(i) +
                               " fails validity checks");
    }
    jobs.push_back(j);
  }
  return jobs;
}

}  // namespace sjs
