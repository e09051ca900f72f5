// Fixed-bin histogram with under/overflow buckets, used by benches to report
// distributions (e.g. per-run captured-value fractions) beyond the mean.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace sjs {

class Histogram {
 public:
  /// Bins [lo, hi) divided uniformly into `bins` buckets; samples outside the
  /// range are counted in dedicated underflow/overflow buckets.
  Histogram(double lo, double hi, std::size_t bins);

  void add(double x);

  /// Adds another histogram's counts bin-wise. Requires identical binning
  /// (same lo/hi/bins) — used to merge per-thread metric shards.
  void merge(const Histogram& other);

  std::size_t bins() const { return counts_.size(); }
  std::uint64_t count(std::size_t bin) const { return counts_.at(bin); }
  std::uint64_t underflow() const { return underflow_; }
  std::uint64_t overflow() const { return overflow_; }
  std::uint64_t total() const { return total_; }
  double bin_lo(std::size_t bin) const;
  double bin_hi(std::size_t bin) const;

  /// The upper edge of the bin holding the ceil(q * total())-th smallest
  /// sample (q in (0, 1]): lo for an underflow sample, hi for an overflow
  /// one, NaN when empty.
  double quantile(double q) const;

  /// Renders a horizontal bar chart, one line per bin.
  std::string render(int max_width = 50) const;

 private:
  double lo_;
  double hi_;
  std::vector<std::uint64_t> counts_;
  std::uint64_t underflow_ = 0;
  std::uint64_t overflow_ = 0;
  std::uint64_t total_ = 0;
};

}  // namespace sjs
