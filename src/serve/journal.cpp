#include "serve/journal.hpp"

#include <filesystem>
#include <stdexcept>

#include "capacity/trace_io.hpp"

namespace sjs::serve {

namespace fs = std::filesystem;

Journal::Journal(const std::string& dir) : dir_(dir) {
  std::error_code ec;
  fs::create_directories(dir, ec);
  if (ec) {
    throw std::runtime_error("cannot create journal directory " + dir + ": " +
                             ec.message());
  }
  jobs_csv_ = std::make_unique<CsvWriter>((fs::path(dir) / "jobs.csv").string());
  jobs_csv_->write_row({"id", "release", "workload", "deadline", "value"});
  jobs_csv_->flush();
  cancels_csv_ =
      std::make_unique<CsvWriter>((fs::path(dir) / "cancels.csv").string());
  cancels_csv_->write_row({"time", "ticket"});
  cancels_csv_->flush();
  if (!jobs_csv_->ok() || !cancels_csv_->ok()) {
    throw std::runtime_error("journal header write failed in " + dir);
  }
}

Journal::Journal(const std::string& dir, const cap::CapacityProfile& capacity,
                 double c_lo, double c_hi, const Meta& meta)
    : Journal(dir) {
  cap::save_trace(capacity, (fs::path(dir) / "capacity.csv").string());
  write_band(c_lo, c_hi);
  write_meta({{"scheduler", meta.scheduler},
              {"accel", format_double(meta.accel)},
              {"admission_check", meta.admission_check ? "1" : "0"}});
}

void Journal::write_band(double c_lo, double c_hi) const {
  CsvWriter band((fs::path(dir_) / "band.csv").string());
  band.write_row({"c_lo", "c_hi"});
  band.write_row_numeric({c_lo, c_hi});
}

void Journal::write_meta(
    const std::vector<std::pair<std::string, std::string>>& rows) const {
  CsvWriter m((fs::path(dir_) / "meta.csv").string());
  m.write_row({"key", "value"});
  for (const auto& [key, value] : rows) m.write_row({key, value});
}

void Journal::record_admit(const Job& job) {
  // Same row layout and %.17g formatting as Instance::save_jobs, so the
  // bundle loader reconstructs the admitted stream bit-exactly.
  const double row[] = {static_cast<double>(job.id), job.release, job.workload,
                        job.deadline, job.value};
  jobs_csv_->write_row_numeric(row, 5);
  jobs_csv_->flush();
  // An ofstream swallows short writes and ENOSPC into its failbit; a row the
  // client was promised durable must not vanish silently, so surface the
  // stream state as the append's result.
  if (!jobs_csv_->ok()) {
    throw std::runtime_error("journal append failed (jobs.csv in " + dir_ +
                             "): disk full or I/O error");
  }
  ++admit_rows_;
}

void Journal::record_cancel(double time, JobId job) {
  const double row[] = {time, static_cast<double>(job)};
  cancels_csv_->write_row_numeric(row, 2);
  cancels_csv_->flush();
  if (!cancels_csv_->ok()) {
    throw std::runtime_error("journal append failed (cancels.csv in " + dir_ +
                             "): disk full or I/O error");
  }
  ++cancel_rows_;
}

void Journal::close() {
  if (jobs_csv_) jobs_csv_->flush();
  if (cancels_csv_) cancels_csv_->flush();
  const bool failed = (jobs_csv_ && !jobs_csv_->ok()) ||
                      (cancels_csv_ && !cancels_csv_->ok());
  jobs_csv_.reset();
  cancels_csv_.reset();
  if (failed) {
    throw std::runtime_error("journal close failed in " + dir_ +
                             ": disk full or I/O error");
  }
}

std::map<std::string, std::string> read_journal_meta(const std::string& dir) {
  const auto rows = read_csv((fs::path(dir) / "meta.csv").string());
  std::map<std::string, std::string> out;
  for (std::size_t i = 1; i < rows.size(); ++i) {
    if (rows[i].size() != 2) {
      throw std::runtime_error("malformed meta.csv row in " + dir);
    }
    out[rows[i][0]] = rows[i][1];
  }
  return out;
}

std::vector<std::pair<double, JobId>> read_journal_cancels(
    const std::string& dir) {
  const auto path = (fs::path(dir) / "cancels.csv").string();
  std::vector<std::pair<double, JobId>> out;
  if (!fs::exists(path)) return out;
  const auto rows = read_csv(path);
  for (std::size_t i = 1; i < rows.size(); ++i) {
    if (rows[i].size() != 2) {
      throw std::runtime_error("malformed cancels.csv row in " + dir);
    }
    out.emplace_back(std::stod(rows[i][0]),
                     static_cast<JobId>(std::stol(rows[i][1])));
  }
  return out;
}

}  // namespace sjs::serve
