#include "capacity/trace_io.hpp"

#include <stdexcept>

#include "util/csv.hpp"
#include "util/logging.hpp"

namespace sjs::cap {

void save_trace(const CapacityProfile& profile, const std::string& path) {
  CsvWriter writer(path);
  writer.write_row({"time", "rate"});
  const auto& times = profile.breakpoints();
  const auto& rates = profile.rates();
  for (std::size_t i = 0; i < times.size(); ++i) {
    writer.write_row_numeric({times[i], rates[i]});
  }
}

CapacityProfile load_trace(const std::string& path) {
  auto rows = read_csv(path);
  std::vector<double> times;
  std::vector<double> rates;
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const auto& row = rows[i];
    if (row.size() != 2) {
      throw std::runtime_error("trace row " + std::to_string(i) +
                               " must have 2 fields");
    }
    if (i == 0 && row[0] == "time") continue;  // optional header
    try {
      times.push_back(parse_double(row[0]));
      rates.push_back(parse_double(row[1]));
    } catch (const std::exception&) {
      throw std::runtime_error("trace row " + std::to_string(i) +
                               " is not numeric");
    }
  }
  if (times.empty()) throw std::runtime_error("empty capacity trace: " + path);
  try {
    return CapacityProfile(std::move(times), std::move(rates));
  } catch (const CheckError& e) {
    throw std::runtime_error(std::string("invalid capacity trace: ") +
                             e.what());
  }
}

}  // namespace sjs::cap
