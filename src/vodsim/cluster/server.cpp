#include "vodsim/cluster/server.h"

#include <cassert>

namespace vodsim {

namespace {
// Bandwidth comparisons tolerate fluid-model rounding: one part in 1e9 of a
// megabit per second.
constexpr Mbps kBandwidthTolerance = 1e-9;
}  // namespace

Server::Server(ServerId id, Mbps bandwidth, Megabits storage)
    : id_(id), bandwidth_(bandwidth), storage_capacity_(storage) {
  assert(bandwidth > 0.0);
  assert(storage >= 0.0);
}

bool Server::add_replica(const Video& video) {
  if (holds(video.id)) return false;
  if (video.size() > storage_free() + kBandwidthTolerance) return false;
  if (replica_bitmap_.size() <= static_cast<std::size_t>(video.id)) {
    replica_bitmap_.resize(static_cast<std::size_t>(video.id) + 1, false);
  }
  replica_bitmap_[static_cast<std::size_t>(video.id)] = true;
  replicas_.push_back(video.id);
  storage_used_ += video.size();
  return true;
}

bool Server::holds(VideoId video) const {
  const auto index = static_cast<std::size_t>(video);
  return index < replica_bitmap_.size() && replica_bitmap_[index];
}

bool Server::can_admit(Mbps view_bandwidth) const {
  return serviceable() && committed_ + reserved_ + view_bandwidth <=
                              effective_bandwidth() + kBandwidthTolerance;
}

void Server::reserve_bandwidth(Mbps amount) {
  assert(amount >= 0.0);
  assert(committed_ + reserved_ + amount <=
         effective_bandwidth() + kBandwidthTolerance);
  reserved_ += amount;
  ++terms_version_;
}

void Server::release_reservation(Mbps amount) {
  assert(amount >= 0.0);
  reserved_ -= amount;
  if (reserved_ < 0.0) reserved_ = 0.0;  // fp slop
  ++terms_version_;
}

void Server::attach(Request& request, bool enforce_capacity) {
  assert(request.state() == RequestState::kStreaming);
  assert(!enforce_capacity || can_admit(request.view_bandwidth()));
  (void)enforce_capacity;
  lane_.append(request);
  committed_ += request.view_bandwidth();
  ++terms_version_;
}

void Server::detach(Request& request) {
  const std::size_t index = request.active_index;
  assert(index < lane_.size());
  assert(lane_.requests()[index] == &request);
  // The engine clears a stream's predictions before it detaches it.
  assert(!lane_.earliest_prediction(index).live());
  lane_.remove(index);
  committed_ -= request.view_bandwidth();
  if (committed_ < 0.0) committed_ = 0.0;  // fp slop after many detaches
  ++terms_version_;
}

}  // namespace vodsim
