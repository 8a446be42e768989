#include "vodsim/cluster/request.h"

#include <algorithm>
#include <cassert>

namespace vodsim {

Request::Request(RequestId id, const Video& video, Seconds arrival,
                 const ClientProfile& client)
    : id_(id),
      video_id_(video.id),
      arrival_(arrival),
      playback_end_(arrival + video.duration),
      view_bandwidth_(video.view_bandwidth),
      receive_bandwidth_(client.receive_bandwidth),
      total_size_(video.size()),
      remaining_(video.size()),
      last_update_(arrival),
      buffer_capacity_(client.buffer_capacity) {}

Megabits Request::advance(Seconds now) {
  assert(now >= last_update() - kTimeSyncTolerance);
  if (lane_ != nullptr) {
    return lane_->advance_one(active_index, now);
  }
  // Detached path: same single-stream formulas (fluid_detail) on the home
  // scalars; the buffer keeps draining while a stream migrates or coasts
  // after transmission completes.
  return fluid_detail::advance_stream(
      now, last_update_, remaining_, buffer_level_, buffer_capacity_,
      allocation_, viewing_paused_, arrival_, playback_end_, view_bandwidth_);
}

Mbps Request::drain_rate(Seconds now) const {
  if (viewing_paused_) return 0.0;
  return (now >= arrival_ && now < playback_end_) ? view_bandwidth_ : 0.0;
}

Mbps Request::minimum_rate() const {
  if (viewing_paused_ && buffer_full()) return 0.0;
  return view_bandwidth_;
}

void Request::pause_viewing(Seconds now) {
  assert(!viewing_paused_);
  assert(std::abs(now - last_update()) < kTimeSyncTolerance &&
         "advance() before pause");
  viewing_paused_ = true;
  pause_started_ = now;
  if (lane_ != nullptr) lane_->set_paused(active_index, true);
}

void Request::resume_viewing(Seconds now) {
  assert(viewing_paused_);
  assert(std::abs(now - last_update()) < kTimeSyncTolerance &&
         "advance() before resume");
  viewing_paused_ = false;
  playback_end_ += now - pause_started_;
  if (lane_ != nullptr) {
    lane_->set_paused(active_index, false);
    lane_->set_playback_end(active_index, playback_end_);
  }
}

void Request::set_allocation(Seconds now, Mbps rate) {
  assert(std::abs(now - last_update()) < kTimeSyncTolerance &&
         "advance() before set_allocation()");
  (void)now;
  if (lane_ != nullptr) {
    lane_->set_allocation(active_index, rate);
  } else {
    allocation_ = fluid_detail::checked_rate(rate, receive_bandwidth_);
  }
}

void Request::begin_streaming(Seconds now, ServerId server) {
  assert(state_ == RequestState::kStreaming || state_ == RequestState::kMigrating);
  assert(lane_ == nullptr && "attach_lane follows begin_streaming");
  state_ = RequestState::kStreaming;
  server_ = server;
  last_server = server;
  last_update_ = std::max(last_update_, now);
}

void Request::begin_migration(Seconds now) {
  assert(state_ == RequestState::kStreaming);
  assert(lane_ == nullptr && "detach before begin_migration");
  (void)now;
  state_ = RequestState::kMigrating;
  server_ = kNoServer;
  allocation_ = 0.0;
  ++hops_;
}

void Request::complete_migration(Seconds now, ServerId new_server) {
  assert(state_ == RequestState::kMigrating);
  state_ = RequestState::kStreaming;
  server_ = new_server;
  last_server = new_server;
  last_update_ = std::max(last_update_, now);
}

void Request::mark_tx_complete(Seconds now) {
  assert(state_ == RequestState::kStreaming);
  assert(lane_ == nullptr && "detach before mark_tx_complete");
  (void)now;
  assert(finished());
  state_ = RequestState::kTxComplete;
  server_ = kNoServer;
  allocation_ = 0.0;
  remaining_ = 0.0;
}

void Request::mark_done(Seconds now) {
  assert(lane_ == nullptr && "detach before mark_done");
  (void)now;
  assert(state_ == RequestState::kTxComplete || state_ == RequestState::kStreaming ||
         state_ == RequestState::kMigrating);
  state_ = RequestState::kDone;
  server_ = kNoServer;
  allocation_ = 0.0;
}

void Request::mark_rejected() {
  assert(state_ == RequestState::kStreaming && server_ == kNoServer);
  state_ = RequestState::kRejected;
}

void Request::attach_lane(FluidLane* lane) {
  assert(lane_ == nullptr);
  assert(lane != nullptr);
  assert(lane->size() == active_index + 1 && "append precedes attach_lane");
  lane_ = lane;
}

void Request::detach_lane() {
  assert(lane_ != nullptr);
  remaining_ = lane_->remaining(active_index);
  last_update_ = lane_->last_update(active_index);
  buffer_level_ = lane_->buffer_level(active_index);
  allocation_ = lane_->allocation(active_index);
  workahead_urgent_ = lane_->urgent(active_index);
  lane_ = nullptr;
}

}  // namespace vodsim
