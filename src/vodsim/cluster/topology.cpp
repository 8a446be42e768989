#include "vodsim/cluster/topology.h"

#include <cassert>

namespace vodsim {

Topology::Topology(const TopologyConfig& config, int num_servers)
    : enabled_(config.enabled),
      num_servers_(num_servers),
      racks_(config.enabled ? config.racks : 1),
      zones_(config.enabled ? config.zones : 1) {
  assert(num_servers >= 0);
  assert(racks_ >= 1 && zones_ >= 1 && zones_ <= racks_);
  rack_of_server_.resize(static_cast<std::size_t>(num_servers));
  for (int s = 0; s < num_servers; ++s) {
    // Same contiguous near-even block formula as the shard layout: integer
    // arithmetic, no rounding surprises, blocks differ by at most one.
    rack_of_server_[static_cast<std::size_t>(s)] =
        static_cast<int>(static_cast<long long>(s) * racks_ / num_servers);
  }
  rack_first_.assign(static_cast<std::size_t>(racks_) + 1, num_servers);
  for (int r = 0; r < racks_; ++r) {
    // Exact inverse of rack_of: the smallest s with s*racks/num_servers == r
    // is ceil(r*num_servers/racks). Floor division would hand the boundary
    // server of a non-divisible split to the wrong rack's episode range.
    rack_first_[static_cast<std::size_t>(r)] = static_cast<ServerId>(
        (static_cast<long long>(r) * num_servers + racks_ - 1) / racks_);
  }
  zone_of_rack_.resize(static_cast<std::size_t>(racks_));
  for (int r = 0; r < racks_; ++r) {
    zone_of_rack_[static_cast<std::size_t>(r)] =
        static_cast<int>(static_cast<long long>(r) * zones_ / racks_);
  }
  zone_first_.assign(static_cast<std::size_t>(zones_) + 1, num_servers);
  for (int z = 0; z < zones_; ++z) {
    // First rack of zone z, by the same ceiling inverse as rack_first_.
    const auto rack = static_cast<std::size_t>(
        (static_cast<long long>(z) * racks_ + zones_ - 1) / zones_);
    zone_first_[static_cast<std::size_t>(z)] = rack_first_[rack];
  }
}

}  // namespace vodsim
