#pragma once

/// \file topology.h
/// \brief Failure-domain topology: the server → rack → zone tree.
///
/// Real clusters fail along physical topology — a rack loses power, a
/// zone's uplink browns out, a switch partitions a rack away from the
/// controller. The Topology gives every layer that needs domain awareness
/// (fault schedule generation, domain-spread placement, repair
/// re-replication, shard layout, per-domain metrics) one shared, immutable
/// answer to "which rack/zone is server s in?".
///
/// Mapping is deterministic and contiguous: rack r covers servers
/// [r*N/racks, (r+1)*N/racks) and zone z covers racks [z*R/zones,
/// (z+1)*R/zones) — the same near-even block formula the sharded engine
/// uses for its server blocks, so a rack-aligned shard layout falls out
/// naturally (engine/vod_simulation.cpp build_world). A
/// default-constructed (or disabled) Topology is the trivial one-rack,
/// one-zone tree; every consumer treats it as "no topology".

#include <vector>

#include "vodsim/cluster/request.h"

namespace vodsim {

/// Configuration of the failure-domain tree (SimulationConfig::topology).
struct TopologyConfig {
  bool enabled = false;
  int racks = 1;  ///< must satisfy 1 <= racks <= num_servers
  int zones = 1;  ///< must satisfy 1 <= zones <= racks
};

class Topology {
 public:
  /// Trivial topology: one rack, one zone, zero servers. enabled() is false.
  Topology() = default;

  /// Builds the tree for \p num_servers servers. A disabled config yields
  /// the trivial single-rack, single-zone tree over the same servers.
  Topology(const TopologyConfig& config, int num_servers);

  bool enabled() const { return enabled_; }
  int num_servers() const { return num_servers_; }
  int racks() const { return racks_; }
  int zones() const { return zones_; }

  int rack_of(ServerId server) const {
    return rack_of_server_[static_cast<std::size_t>(server)];
  }
  int zone_of(ServerId server) const { return zone_of_rack(rack_of(server)); }
  int zone_of_rack(int rack) const {
    return zone_of_rack_[static_cast<std::size_t>(rack)];
  }

  /// First server of \p rack (racks cover contiguous server blocks).
  ServerId rack_first(int rack) const {
    return rack_first_[static_cast<std::size_t>(rack)];
  }
  /// One past the last server of \p rack.
  ServerId rack_end(int rack) const {
    return rack_first_[static_cast<std::size_t>(rack) + 1];
  }
  int rack_size(int rack) const { return rack_end(rack) - rack_first(rack); }

  /// First server of \p zone (zones cover contiguous rack blocks, hence
  /// contiguous server blocks).
  ServerId zone_first(int zone) const {
    return zone_first_[static_cast<std::size_t>(zone)];
  }
  /// One past the last server of \p zone.
  ServerId zone_end(int zone) const {
    return zone_first_[static_cast<std::size_t>(zone) + 1];
  }

  /// Dense per-server rack ids (size num_servers); handy for bulk wiring
  /// (Metrics::set_topology) without per-server virtual calls.
  const std::vector<int>& rack_of_server() const { return rack_of_server_; }

 private:
  bool enabled_ = false;
  int num_servers_ = 0;
  int racks_ = 1;
  int zones_ = 1;
  std::vector<int> rack_of_server_;
  std::vector<int> zone_of_rack_;
  std::vector<ServerId> rack_first_;  ///< size racks+1, rack_first_[racks]=N
  std::vector<ServerId> zone_first_;  ///< size zones+1, zone_first_[zones]=N
};

}  // namespace vodsim
