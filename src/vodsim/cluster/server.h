#pragma once

/// \file server.h
/// \brief A data source in the cluster: link bandwidth + disk storage +
/// replica set + the active requests it is currently streaming.
///
/// Servers are independent (non-shared storage, §2 of the paper); a request
/// can only be served by a server that holds a replica of its video, and it
/// consumes that server's link bandwidth while unfinished.

#include <algorithm>
#include <cassert>
#include <cstdint>
#include <vector>

#include "vodsim/cluster/fluid_lane.h"
#include "vodsim/cluster/request.h"
#include "vodsim/cluster/video.h"
#include "vodsim/util/units.h"

namespace vodsim {

class Server {
 public:
  /// \param id dense index within the cluster.
  /// \param bandwidth link capacity, Mb/s.
  /// \param storage disk capacity, megabits.
  Server(ServerId id, Mbps bandwidth, Megabits storage);

  ServerId id() const { return id_; }
  Mbps bandwidth() const { return bandwidth_; }

  /// Link capacity currently usable: nominal bandwidth scaled by the
  /// brownout capacity factor. Exactly equal to bandwidth() when healthy
  /// (factor 1.0 — multiplying by 1.0 is bit-exact in IEEE arithmetic).
  Mbps effective_bandwidth() const { return bandwidth_ * capacity_factor_; }
  Megabits storage_capacity() const { return storage_capacity_; }
  Megabits storage_used() const { return storage_used_; }
  Megabits storage_free() const { return storage_capacity_ - storage_used_; }

  // --- replica management (placement time) ----------------------------
  /// Adds a replica if storage allows; returns false when it does not fit
  /// or is already present.
  bool add_replica(const Video& video);
  bool holds(VideoId video) const;
  const std::vector<VideoId>& replicas() const { return replicas_; }

  // --- admission arithmetic (minimum-flow decision procedure) ---------
  /// Sum of view bandwidths of unfinished requests assigned here.
  Mbps committed_bandwidth() const { return committed_; }

  /// Bandwidth held for in-flight migrations (reserved at detach from the
  /// source, converted to a commitment when the stream attaches here).
  Mbps reserved_bandwidth() const { return reserved_; }
  void reserve_bandwidth(Mbps amount);
  void release_reservation(Mbps amount);

  /// Capacity usable by the bandwidth scheduler right now. Clamped at
  /// zero because a brownout can shrink the link below outstanding
  /// migration reservations. std::max(x, 0.0) returns x bit-exactly for
  /// the legacy (factor-1.0, reserved <= bandwidth) regime.
  Mbps schedulable_bandwidth() const {
    return std::max(effective_bandwidth() - reserved_, 0.0);
  }

  /// Unused capacity under the minimum-flow commitment. Negative while a
  /// brownout leaves the server over-committed (the shedding loop drains
  /// it back to non-negative).
  Mbps slack() const { return effective_bandwidth() - committed_ - reserved_; }

  /// True iff an additional stream at \p view_bandwidth fits: the paper's
  /// admission rule `sum(b_view) + b_view <= capacity`.
  bool can_admit(Mbps view_bandwidth) const;

  /// Number of unfinished requests streaming from this server.
  std::size_t active_count() const { return active_.size(); }
  const std::vector<Request*>& active_requests() const { return active_; }

  /// Struct-of-arrays fluid state of the active streams, maintained by
  /// attach/detach in lock-step with the active list: slot i holds the
  /// fluid fields of active_requests()[i]. The engine advances streams
  /// through the lane (cluster/fluid_lane.h).
  FluidLane& lane() { return lane_; }
  const FluidLane& lane() const { return lane_; }

  // --- active-set maintenance (engine-driven) --------------------------
  /// Attaches an unfinished request; maintains Request::active_index.
  /// \param enforce_capacity when false (buffer-aware admission), nominal
  ///        commitments may exceed the link; the intermittent scheduler is
  ///        then responsible for rationing actual flow.
  void attach(Request& request, bool enforce_capacity = true);

  /// Detaches a request in O(1) via swap-with-last.
  void detach(Request& request);

  // --- availability (failure injection) --------------------------------
  bool available() const { return available_; }
  void set_available(bool available) { available_ = available; }

  /// Network reachability from the controller (partition injection,
  /// cluster/topology.h). A partitioned server is up — its hardware and
  /// link are healthy — but the controller cannot place, migrate, or
  /// deliver anything through it. Defaults true; only kPartitionBegin/
  /// kPartitionEnd transitions flip it, so topology-free runs never
  /// branch differently.
  bool reachable() const { return reachable_; }
  void set_reachable(bool reachable) { reachable_ = reachable; }

  /// The one predicate every placement/admission/migration/replication
  /// decision must gate on: the server is up *and* the controller can
  /// reach it. Liveness alone is not enough under partitions.
  bool serviceable() const { return available_ && reachable_; }

  /// Brownout state: fraction of nominal bandwidth currently usable.
  /// 1.0 = healthy. Set by the engine when executing fault transitions.
  double capacity_factor() const { return capacity_factor_; }
  void set_capacity_factor(double factor) {
    assert(factor > 0.0 && factor <= 1.0);
    capacity_factor_ = factor;
  }

  // --- diagnostics ------------------------------------------------------
  std::uint64_t total_attached() const { return total_attached_; }

 private:
  ServerId id_;
  Mbps bandwidth_;
  Megabits storage_capacity_;
  Megabits storage_used_ = 0.0;
  Mbps committed_ = 0.0;
  Mbps reserved_ = 0.0;
  bool available_ = true;
  bool reachable_ = true;
  double capacity_factor_ = 1.0;
  std::vector<VideoId> replicas_;
  std::vector<bool> replica_bitmap_;
  std::vector<Request*> active_;
  FluidLane lane_;
  std::uint64_t total_attached_ = 0;
};

}  // namespace vodsim
