#pragma once

/// \file video.h
/// \brief Video objects and the catalog of titles offered by the cluster.

#include <cstdint>
#include <vector>

#include "vodsim/util/units.h"

namespace vodsim {

using VideoId = std::int32_t;

/// A single title. Videos play at a constant `view_bandwidth`, so the stored
/// size is duration x view bandwidth (the paper's CBR model).
struct Video {
  VideoId id = -1;
  Seconds duration = 0.0;        ///< playback length, seconds
  Mbps view_bandwidth = 3.0;     ///< playback (and minimum-flow) rate

  /// Total object size in megabits.
  Megabits size() const { return duration * view_bandwidth; }
};

/// Immutable list of titles, indexed by VideoId (ids are dense 0..n-1).
class VideoCatalog {
 public:
  VideoCatalog() = default;
  explicit VideoCatalog(std::vector<Video> videos);

  std::size_t size() const { return videos_.size(); }
  bool empty() const { return videos_.empty(); }
  const Video& operator[](VideoId id) const { return videos_[static_cast<std::size_t>(id)]; }
  const std::vector<Video>& videos() const { return videos_; }

  /// Mean object size across the catalog (megabits).
  Megabits mean_size() const { return mean_size_; }

 private:
  std::vector<Video> videos_;
  Megabits mean_size_ = 0.0;
};

}  // namespace vodsim
