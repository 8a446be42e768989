#include "vodsim/replication/replication.h"

#include <algorithm>
#include <cassert>

namespace vodsim {

ReplicationManager::ReplicationManager(ReplicationConfig config)
    : config_(config) {
  assert(config_.rejection_threshold >= 1);
  assert(config_.window > 0.0);
  assert(config_.transfer_bandwidth > 0.0);
  assert(config_.max_concurrent >= 1);
}

int ReplicationManager::prune_and_count(VideoId video, Seconds now) {
  while (!recent_.empty() && recent_.front().time < now - config_.window) {
    recent_.pop_front();
  }
  int count = 0;
  for (const Rejection& rejection : recent_) {
    if (rejection.video == video) ++count;
  }
  return count;
}

std::optional<ReplicationJob> ReplicationManager::on_rejection(
    VideoId video, Seconds now, const VideoCatalog& catalog,
    const std::vector<Server>& servers, const ReplicaDirectory& directory) {
  if (!config_.enabled) return std::nullopt;

  recent_.push_back(Rejection{now, video});
  const int count = prune_and_count(video, now);

  if (count < config_.rejection_threshold) return std::nullopt;
  return plan_copy(video, catalog, servers, directory);
}

std::optional<ReplicationJob> ReplicationManager::plan_repair(
    VideoId video, const VideoCatalog& catalog,
    const std::vector<Server>& servers, const ReplicaDirectory& directory) {
  return plan_copy(video, catalog, servers, directory);
}

std::optional<ReplicationJob> ReplicationManager::plan_copy(
    VideoId video, const VideoCatalog& catalog,
    const std::vector<Server>& servers, const ReplicaDirectory& directory) {
  if (in_flight_ >= config_.max_concurrent) return std::nullopt;
  if (std::find(copying_.begin(), copying_.end(), video) != copying_.end()) {
    return std::nullopt;  // copy already in flight for this title
  }

  const Video& object = catalog[video];

  // Source: the holder with the most slack (available, and able to spare
  // the transfer bandwidth without displacing committed streams). If none
  // qualifies — typical, since the title is hot exactly because its holders
  // are saturated — fall back to tertiary storage.
  ServerId source = kNoServer;
  for (ServerId holder : directory.holders(video)) {
    const Server& s = servers[static_cast<std::size_t>(holder)];
    if (!s.serviceable()) continue;
    if (s.slack() < config_.transfer_bandwidth) continue;
    if (source == kNoServer ||
        s.slack() > servers[static_cast<std::size_t>(source)].slack()) {
      source = holder;
    }
  }

  // Destination: best non-holder with storage for the object. Without a
  // topology the sole criterion is slack; with one, domain spread comes
  // first — fewest existing *serviceable* copies in the candidate's zone,
  // then rack, then slack — so a repair copy lands in a surviving domain
  // instead of refilling the damaged one.
  const bool spread = topology_ != nullptr && topology_->enabled();
  ServerId destination = kNoServer;
  int dest_zone_copies = 0;
  int dest_rack_copies = 0;
  for (const Server& s : servers) {
    if (!s.serviceable() || s.holds(video)) continue;
    if (s.storage_free() < object.size()) continue;
    if (s.slack() < config_.transfer_bandwidth) continue;
    int zone_copies = 0;
    int rack_copies = 0;
    if (spread) {
      for (ServerId holder : directory.holders(video)) {
        const Server& h = servers[static_cast<std::size_t>(holder)];
        if (!h.serviceable()) continue;
        if (topology_->zone_of(holder) == topology_->zone_of(s.id())) {
          ++zone_copies;
        }
        if (topology_->rack_of(holder) == topology_->rack_of(s.id())) {
          ++rack_copies;
        }
      }
    }
    bool better;
    if (destination == kNoServer) {
      better = true;
    } else if (spread && zone_copies != dest_zone_copies) {
      better = zone_copies < dest_zone_copies;
    } else if (spread && rack_copies != dest_rack_copies) {
      better = rack_copies < dest_rack_copies;
    } else {
      better = s.slack() > servers[static_cast<std::size_t>(destination)].slack();
    }
    if (better) {
      destination = s.id();
      dest_zone_copies = zone_copies;
      dest_rack_copies = rack_copies;
    }
  }
  if (destination == kNoServer) return std::nullopt;

  ReplicationJob job;
  job.video = video;
  job.source = source;
  job.destination = destination;
  job.transfer_time = object.size() / config_.transfer_bandwidth;
  copying_.push_back(video);
  return job;
}

void ReplicationManager::on_job_started() { ++in_flight_; }

void ReplicationManager::on_job_finished(VideoId video) {
  assert(in_flight_ > 0);
  --in_flight_;
  // The title is no longer "copying": it gained a replica, and a future
  // trigger may legitimately copy it again elsewhere.
  const auto it = std::find(copying_.begin(), copying_.end(), video);
  if (it != copying_.end()) copying_.erase(it);
}

}  // namespace vodsim
