#pragma once

/// \file drift.h
/// \brief Popularity models: which video does the next request ask for?
///
/// The base model is the static Zipf-like law of the paper. The drifting
/// model rotates which titles occupy the popular ranks on a fixed epoch,
/// supporting the paper's claim that even allocation is oblivious to demand
/// shifts (a predictive placement computed at t=0 decays as demand drifts;
/// an even placement does not care).

#include <memory>
#include <vector>

#include "vodsim/cluster/video.h"
#include "vodsim/util/rng.h"
#include "vodsim/util/units.h"
#include "vodsim/workload/zipf.h"

namespace vodsim {

/// Maps simulation time to a probability distribution over video ids.
class PopularityModel {
 public:
  virtual ~PopularityModel() = default;

  /// Draws the video id requested at time \p now.
  virtual VideoId sample(Seconds now, Rng& rng) const = 0;

  /// Probability vector over video ids at time \p now (sums to 1).
  virtual std::vector<double> probabilities(Seconds now) const = 0;
};

/// Static Zipf: video id i permanently holds popularity rank i.
class StaticZipfPopularity final : public PopularityModel {
 public:
  StaticZipfPopularity(std::size_t num_videos, double theta);

  VideoId sample(Seconds now, Rng& rng) const override;
  std::vector<double> probabilities(Seconds now) const override;

 private:
  ZipfDistribution zipf_;
};

/// Rotating Zipf: at epoch e (epoch length `period`), popularity rank r is
/// held by video (r + e * step) mod N. With step > 0 the popular head of
/// the catalog moves over time while the shape of the law is unchanged.
class DriftingZipfPopularity final : public PopularityModel {
 public:
  /// \param period epoch length in seconds (> 0).
  /// \param step how many positions the ranking rotates per epoch (>= 0;
  ///        0 degenerates to the static model).
  DriftingZipfPopularity(std::size_t num_videos, double theta, Seconds period,
                         std::size_t step);

  VideoId sample(Seconds now, Rng& rng) const override;
  std::vector<double> probabilities(Seconds now) const override;

  /// Video holding rank \p rank at time \p now.
  VideoId video_at_rank(Seconds now, std::size_t rank) const;

  /// Epoch index at time \p now.
  std::size_t epoch(Seconds now) const;

 private:
  ZipfDistribution zipf_;
  Seconds period_;
  std::size_t step_;
};

}  // namespace vodsim
