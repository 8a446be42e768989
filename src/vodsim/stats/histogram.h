#pragma once

/// \file histogram.h
/// \brief Fixed-bin histogram with overflow/underflow tracking.
///
/// Used to study distributions of per-request quantities (buffer occupancy
/// at migration time, transmission speed-up factors, migration counts).

#include <cstdint>
#include <string>
#include <vector>

namespace vodsim {

class Histogram {
 public:
  /// \param lo lower edge of first bin, \param hi upper edge of last bin,
  /// \param bins number of equal-width bins (>= 1). Requires lo < hi.
  Histogram(double lo, double hi, std::size_t bins);

  void add(double value, std::uint64_t weight = 1);

  std::uint64_t total_count() const { return total_; }
  std::uint64_t underflow() const { return underflow_; }
  std::uint64_t overflow() const { return overflow_; }
  std::uint64_t bin(std::size_t i) const { return counts_[i]; }
  double bin_lo(std::size_t i) const;
  double bin_hi(std::size_t i) const;

  /// Approximate quantile from bin midpoints; q in [0, 1].
  double quantile(double q) const;

  /// Multi-line ASCII rendering (one row per non-empty bin).
  std::string to_string(std::size_t max_bar_width = 40) const;

 private:
  double lo_;
  double hi_;
  double width_;
  std::vector<std::uint64_t> counts_;
  std::uint64_t underflow_ = 0;
  std::uint64_t overflow_ = 0;
  std::uint64_t total_ = 0;
};

}  // namespace vodsim
