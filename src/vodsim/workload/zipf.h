#pragma once

/// \file zipf.h
/// \brief Zipf-like popularity distribution, paper parameterization.
///
/// The paper (following Dan & Sitaram) draws video popularity from a
/// Zipf-like law over N items with skew parameter theta:
///
///     p_i = c / i^(1 - theta),   c = 1 / sum_{i=1..N} i^-(1 - theta)
///
/// theta = 1 is the uniform distribution; theta = 0 is the classical Zipf
/// (exponent 1); negative theta is *more* skewed than Zipf (the paper sweeps
/// theta from -1.5 to 1). Larger N also increases effective skew at fixed
/// theta.

#include <cstddef>
#include <vector>

#include "vodsim/util/rng.h"

namespace vodsim {

class ZipfDistribution {
 public:
  /// \param n number of items (>= 1); item ranks are 1..n, indices 0..n-1.
  /// \param theta skew; 1 = uniform, 0 = Zipf, < 0 = super-Zipf skew.
  ZipfDistribution(std::size_t n, double theta);

  std::size_t size() const { return pmf_.size(); }
  double theta() const { return theta_; }

  /// Probability of the item with rank index \p i (0-based; rank i+1).
  double pmf(std::size_t i) const { return pmf_[i]; }

  /// Full probability vector (rank order, most popular first).
  const std::vector<double>& probabilities() const { return pmf_; }

  /// Samples a 0-based rank index: O(log n) via CDF binary search.
  std::size_t sample(Rng& rng) const;

 private:
  double theta_;
  std::vector<double> pmf_;
  std::vector<double> cdf_;
};

}  // namespace vodsim
