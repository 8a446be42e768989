#include "vodsim/cluster/video.h"

#include <cassert>

namespace vodsim {

VideoCatalog::VideoCatalog(std::vector<Video> videos) : videos_(std::move(videos)) {
  double total_size = 0.0;
  for (std::size_t i = 0; i < videos_.size(); ++i) {
    assert(videos_[i].id == static_cast<VideoId>(i) && "catalog ids must be dense");
    total_size += videos_[i].size();
  }
  if (!videos_.empty()) {
    mean_size_ = total_size / static_cast<double>(videos_.size());
  }
}

}  // namespace vodsim
