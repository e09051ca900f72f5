#include "stats/histogram.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <cstdio>
#include <sstream>

#include "util/logging.hpp"

namespace sjs {

Histogram::Histogram(double lo, double hi, std::size_t bins)
    : lo_(lo), hi_(hi), counts_(bins, 0) {
  SJS_CHECK_MSG(hi > lo, "histogram range must be non-empty");
  SJS_CHECK_MSG(bins > 0, "histogram needs at least one bin");
}

void Histogram::add(double x) {
  ++total_;
  if (x < lo_) {
    ++underflow_;
    return;
  }
  if (x >= hi_) {
    ++overflow_;
    return;
  }
  auto bin = static_cast<std::size_t>((x - lo_) / (hi_ - lo_) *
                                      static_cast<double>(counts_.size()));
  bin = std::min(bin, counts_.size() - 1);
  ++counts_[bin];
}

void Histogram::merge(const Histogram& other) {
  SJS_CHECK_MSG(other.lo_ == lo_ && other.hi_ == hi_ &&
                    other.counts_.size() == counts_.size(),
                "histogram merge requires identical binning");
  for (std::size_t i = 0; i < counts_.size(); ++i) {
    counts_[i] += other.counts_[i];
  }
  underflow_ += other.underflow_;
  overflow_ += other.overflow_;
  total_ += other.total_;
}

double Histogram::quantile(double q) const {
  if (total_ == 0) return std::numeric_limits<double>::quiet_NaN();
  const auto rank = std::max<std::uint64_t>(
      1, static_cast<std::uint64_t>(
             std::ceil(q * static_cast<double>(total_))));
  std::uint64_t seen = underflow_;
  if (seen >= rank) return lo_;
  for (std::size_t i = 0; i < counts_.size(); ++i) {
    seen += counts_[i];
    if (seen >= rank) return bin_hi(i);
  }
  return hi_;
}

double Histogram::bin_lo(std::size_t bin) const {
  return lo_ + (hi_ - lo_) * static_cast<double>(bin) /
                   static_cast<double>(counts_.size());
}

double Histogram::bin_hi(std::size_t bin) const { return bin_lo(bin + 1); }

std::string Histogram::render(int max_width) const {
  std::uint64_t peak = 1;
  for (auto c : counts_) peak = std::max(peak, c);
  std::ostringstream os;
  char buf[64];
  for (std::size_t i = 0; i < counts_.size(); ++i) {
    std::snprintf(buf, sizeof(buf), "[%8.3g, %8.3g) %8llu |", bin_lo(i),
                  bin_hi(i), static_cast<unsigned long long>(counts_[i]));
    os << buf;
    const int bar = static_cast<int>(
        static_cast<double>(counts_[i]) / static_cast<double>(peak) *
        max_width);
    os << std::string(static_cast<std::size_t>(bar), '#') << "\n";
  }
  if (underflow_) os << "underflow: " << underflow_ << "\n";
  if (overflow_) os << "overflow: " << overflow_ << "\n";
  return os.str();
}

}  // namespace sjs
