#include "vodsim/workload/zipf.h"

#include <algorithm>
#include <cassert>
#include <cmath>

namespace vodsim {

ZipfDistribution::ZipfDistribution(std::size_t n, double theta) : theta_(theta) {
  assert(n >= 1);
  pmf_.resize(n);
  const double exponent = 1.0 - theta;
  double norm = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    pmf_[i] = std::pow(static_cast<double>(i + 1), -exponent);
    norm += pmf_[i];
  }
  cdf_.resize(n);
  double cumulative = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    pmf_[i] /= norm;
    cumulative += pmf_[i];
    cdf_[i] = cumulative;
  }
  cdf_.back() = 1.0;  // guard against rounding
}

std::size_t ZipfDistribution::sample(Rng& rng) const {
  const double u = rng.uniform();
  const auto it = std::lower_bound(cdf_.begin(), cdf_.end(), u);
  return static_cast<std::size_t>(std::distance(cdf_.begin(), it));
}

}  // namespace vodsim
