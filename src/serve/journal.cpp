#include "serve/journal.hpp"

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <bit>
#include <cerrno>
#include <cstring>
#include <filesystem>
#include <stdexcept>
#include <string_view>

#include "capacity/trace_io.hpp"
#include "util/csv.hpp"
#include "util/logging.hpp"
#include "util/vec.hpp"

namespace sjs::serve {

namespace fs = std::filesystem;

namespace {

/// One write(2) of [data, data + size) on an O_APPEND descriptor, retried
/// only on EINTR. Returns the byte count written, or -1 with errno set.
ssize_t write_once(int fd, const char* data, std::size_t size) {
  ssize_t n;
  do {
    n = ::write(fd, data, size);
  } while (n < 0 && errno == EINTR);
  return n;
}

/// Creates `dir`/`file` (truncating), opened for appending, with `header`
/// as its first line.
int open_append(const std::string& dir, const char* file,
                std::string_view header) {
  const std::string path = (fs::path(dir) / file).string();
  const int fd =
      ::open(path.c_str(), O_WRONLY | O_CREAT | O_TRUNC | O_APPEND | O_CLOEXEC,
             0644);
  if (fd < 0) {
    throw std::runtime_error("cannot open for writing: " + path + ": " +
                             std::strerror(errno));
  }
  if (write_once(fd, header.data(), header.size()) !=
      static_cast<ssize_t>(header.size())) {
    ::close(fd);
    throw std::runtime_error("journal header write failed in " + dir);
  }
  return fd;
}

/// Outcome rows buffered per write(2): one page, about 60 rows.
constexpr std::size_t kOutcomeBuffer = 4096;

/// The held-row ring a journal starts with.
constexpr std::size_t kFirstHeldSlots = 64;

}  // namespace

Journal::Journal(const std::string& dir)
    : dir_(dir), outcome_buf_(util::alloc_uninit<char>(kOutcomeBuffer)) {
  std::error_code ec;
  fs::create_directories(dir, ec);
  if (ec) {
    throw std::runtime_error("cannot create journal directory " + dir + ": " +
                             ec.message());
  }
  jobs_fd_ =
      open_append(dir, "jobs.csv", "id,release,workload,deadline,value\n");
  try {
    cancels_fd_ = open_append(dir, "cancels.csv", "time,ticket\n");
    outcomes_fd_ = open_append(dir, "outcomes.csv", sim::kOutcomesCsvHeader);
  } catch (...) {
    for (int fd : {jobs_fd_, cancels_fd_}) {
      if (fd >= 0) ::close(fd);
    }
    throw;
  }
  util::grow(held_, kFirstHeldSlots);
}

Journal::~Journal() {
  for (int fd : {jobs_fd_, cancels_fd_, outcomes_fd_}) {
    if (fd >= 0) ::close(fd);
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
  append_row(jobs_fd_, "jobs.csv", row, 5);
  ++admit_rows_;
}

void Journal::record_cancel(double time, JobId job) {
  const double row[] = {time, static_cast<double>(job)};
  append_row(cancels_fd_, "cancels.csv", row, 2);
  ++cancel_rows_;
}

void Journal::record_outcome(JobId id, sim::JobOutcome outcome,
                             double completion, double value) {
  SJS_CHECK_MSG(outcomes_fd_ >= 0, "record_outcome on a closed journal");
  SJS_CHECK_MSG(id >= next_row_, "outcome row of job " << id << " twice");
  if (id > next_row_) {
    hold_outcome(id, outcome, completion, value);
    return;
  }
  // The next row is in: write it and every held row it was holding back.
  // next_row_ moves first, so a failed write never repeats a row.
  ++next_row_;
  write_outcome(id, outcome, completion, value);
  while (next_row_ < held_end_ && held(next_row_).outcome !=
                                      sim::JobOutcome::kPending) {
    const HeldRow row = held(next_row_);
    --held_count_;
    write_outcome(next_row_++, row.outcome, row.completion, row.value);
  }
  held_end_ = std::max(held_end_, next_row_);
}

void Journal::hold_outcome(JobId id, sim::JobOutcome outcome,
                           double completion, double value) {
  const auto span = static_cast<std::size_t>(id + 1 - next_row_);
  while (span > held_.size()) {
    // Growth to the held span's high-water: double the ring in place, within
    // its reservation (past it, util::grow reallocates with the rows kept).
    const std::size_t old = held_.size();
    util::grow(held_, 2 * old);
    util::ring_widen(held_.data(), old, static_cast<std::uint64_t>(next_row_),
                     static_cast<std::size_t>(held_end_ - next_row_));
  }
  // Ids between the held ones are stragglers still unresolved: no row yet.
  for (; held_end_ < id; ++held_end_) {
    held(held_end_).outcome = sim::JobOutcome::kPending;
  }
  held_end_ = std::max(held_end_, id + 1);
  held(id) = HeldRow{completion, value, outcome};
  held_peak_ = std::max(held_peak_, ++held_count_);
}

void Journal::reserve_held_rows(std::size_t n) {
  // Capacity only: a page of it is written once the ring widens into it.
  held_.reserve(std::bit_ceil(n));
}

void Journal::write_outcome(JobId id, sim::JobOutcome outcome,
                            double completion, double value) {
  if (outcome_len_ + sim::kOutcomeRowMax > kOutcomeBuffer) flush_outcomes();
  char* const row = outcome_buf_.get() + outcome_len_;
  outcome_len_ = static_cast<std::size_t>(
      sim::format_outcome_row(row, id, outcome, completion, value) -
      outcome_buf_.get());
}

void Journal::flush_outcomes() {
  std::size_t done = 0;
  while (done < outcome_len_) {
    const ssize_t n = write_once(outcomes_fd_, outcome_buf_.get() + done,
                                 outcome_len_ - done);
    if (n <= 0) {
      const std::string why =
          n < 0 ? std::string(std::strerror(errno)) : "no progress";
      outcome_len_ = 0;
      throw std::runtime_error("outcomes write failed (outcomes.csv in " +
                               dir_ + "): " + why);
    }
    done += static_cast<std::size_t>(n);
  }
  outcome_len_ = 0;
}

void Journal::append_row(int fd, const char* file, const double* fields,
                         std::size_t count) {
  SJS_CHECK(count <= 5);
  char text[5 * kNumericFieldMax];
  const auto size = static_cast<std::size_t>(
      format_numeric_row(text, text + sizeof(text), fields, count) - text);
  const ssize_t n = write_once(fd, text, size);
  if (n == static_cast<ssize_t>(size)) return;
  // A row the client was promised durable must not vanish silently. A short
  // write (the file size limit, a full disk) left a torn row: cut it off so
  // the file still holds whole rows, then fail.
  const int err = errno;
  if (n > 0) {
    // Best effort: the append fails below whether or not the cut succeeds.
    const off_t end = ::lseek(fd, 0, SEEK_END);
    [[maybe_unused]] const int cut = end >= n ? ::ftruncate(fd, end - n) : -1;
  }
  const std::string why =
      n < 0 ? std::string(std::strerror(err))
            : "short write, " + std::to_string(n) + " of " +
                  std::to_string(size) + " bytes";
  throw std::runtime_error("journal append failed (" + std::string(file) +
                           " in " + dir_ + "): " + why);
}

void Journal::close() {
  std::string flush_error;
  if (outcome_len_ > 0) {
    try {
      flush_outcomes();
    } catch (const std::runtime_error& e) {
      flush_error = e.what();  // reported once every file is closed
    }
  }
  int err = 0;
  for (int* fd : {&jobs_fd_, &cancels_fd_, &outcomes_fd_}) {
    if (*fd >= 0 && ::close(*fd) != 0) err = errno;
    *fd = -1;
  }
  if (!flush_error.empty()) throw std::runtime_error(flush_error);
  if (err != 0) {
    throw std::runtime_error("journal close failed in " + dir_ + ": " +
                             std::strerror(err));
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
    out.emplace_back(parse_double(rows[i][0]),
                     static_cast<JobId>(std::stol(rows[i][1])));
  }
  return out;
}

}  // namespace sjs::serve
