#pragma once

/// \file accumulator.h
/// \brief Online mean/variance accumulation and multi-trial summaries.
///
/// Every figure data point in the paper is the mean of 5 independent trials;
/// we report mean ± a Student-t 95% confidence half-width over trials.

#include <cstdint>
#include <limits>
#include <string>
#include <vector>

namespace vodsim {

/// Welford online accumulator: numerically stable mean/variance in one pass.
class Accumulator {
 public:
  void add(double value);

  std::uint64_t count() const { return count_; }
  double mean() const { return count_ ? mean_ : 0.0; }

  /// Unbiased sample variance; 0 for fewer than two samples.
  double variance() const;
  double stddev() const;
  double min() const { return count_ ? min_ : 0.0; }
  double max() const { return count_ ? max_ : 0.0; }

  /// Half-width of the two-sided confidence interval at the given level
  /// using the Student-t distribution with count-1 degrees of freedom.
  /// Returns 0 for fewer than two samples. \p level in (0, 1), e.g. 0.95.
  double ci_half_width(double level = 0.95) const;

 private:
  std::uint64_t count_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double min_ = std::numeric_limits<double>::infinity();
  double max_ = -std::numeric_limits<double>::infinity();
};

/// Value ± 95% CI formatted for tables, e.g. "0.8732 ±0.0051".
std::string format_mean_ci(const Accumulator& acc, int precision = 4);

}  // namespace vodsim
