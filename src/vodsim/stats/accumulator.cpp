#include "vodsim/stats/accumulator.h"

#include <algorithm>
#include <cmath>
#include <cstdio>

#include "vodsim/stats/student_t.h"

namespace vodsim {

void Accumulator::add(double value) {
  ++count_;
  const double delta = value - mean_;
  mean_ += delta / static_cast<double>(count_);
  m2_ += delta * (value - mean_);
  min_ = std::min(min_, value);
  max_ = std::max(max_, value);
}

double Accumulator::variance() const {
  if (count_ < 2) return 0.0;
  return m2_ / static_cast<double>(count_ - 1);
}

double Accumulator::stddev() const { return std::sqrt(variance()); }

double Accumulator::ci_half_width(double level) const {
  if (count_ < 2) return 0.0;
  const double t = student_t_quantile(static_cast<int>(count_ - 1),
                                      0.5 + level / 2.0);
  return t * stddev() / std::sqrt(static_cast<double>(count_));
}

std::string format_mean_ci(const Accumulator& acc, int precision) {
  char buf[96];
  std::snprintf(buf, sizeof(buf), "%.*f ±%.*f", precision, acc.mean(), precision,
                acc.ci_half_width());
  return buf;
}

}  // namespace vodsim
