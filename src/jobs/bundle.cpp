#include "jobs/bundle.hpp"

#include <filesystem>
#include <stdexcept>

#include "capacity/trace_io.hpp"
#include "util/csv.hpp"
#include "util/logging.hpp"

namespace sjs {

namespace fs = std::filesystem;

void save_instance_bundle(const Instance& instance, const std::string& dir) {
  std::error_code ec;
  fs::create_directories(dir, ec);
  if (ec) {
    throw std::runtime_error("cannot create bundle directory " + dir + ": " +
                             ec.message());
  }
  instance.save_jobs((fs::path(dir) / "jobs.csv").string());
  cap::save_trace(instance.capacity(),
                  (fs::path(dir) / "capacity.csv").string());
  CsvWriter band((fs::path(dir) / "band.csv").string());
  band.write_row({"c_lo", "c_hi"});
  band.write_row_numeric({instance.c_lo(), instance.c_hi()});
}

Instance load_instance_bundle(const std::string& dir) {
  const auto jobs_path = (fs::path(dir) / "jobs.csv").string();
  const auto capacity_path = (fs::path(dir) / "capacity.csv").string();
  const auto band_path = (fs::path(dir) / "band.csv").string();

  auto jobs = Instance::load_jobs(jobs_path);
  auto capacity = cap::load_trace(capacity_path);

  auto band_rows = read_csv(band_path);
  // Header row plus one data row.
  if (band_rows.size() != 2 || band_rows[1].size() != 2) {
    throw std::runtime_error("malformed band.csv in " + dir);
  }
  double c_lo = 0.0, c_hi = 0.0;
  try {
    c_lo = parse_double(band_rows[1][0]);
    c_hi = parse_double(band_rows[1][1]);
  } catch (const std::exception&) {
    throw std::runtime_error("non-numeric band in " + dir);
  }
  try {
    return Instance(std::move(jobs), std::move(capacity), c_lo, c_hi);
  } catch (const CheckError& e) {
    throw std::runtime_error(std::string("inconsistent bundle: ") + e.what());
  }
}

}  // namespace sjs
