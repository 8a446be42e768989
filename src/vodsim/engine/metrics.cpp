#include "vodsim/engine/metrics.h"

#include <algorithm>
#include <cassert>

namespace vodsim {

Metrics::Metrics(Seconds window_start, Seconds window_end, Mbps total_bandwidth)
    : window_start_(window_start),
      window_end_(window_end),
      total_bandwidth_(total_bandwidth) {
  assert(window_end > window_start);
  assert(total_bandwidth > 0.0);
}

void Metrics::record_transmission(Seconds t0, Seconds t1, Mbps rate) {
  if (rate <= 0.0) return;
  const Seconds lo = std::max(t0, window_start_);
  const Seconds hi = std::min(t1, window_end_);
  if (hi <= lo) return;
  transmitted_ += rate * (hi - lo);
}

void Metrics::record_arrival(Seconds t) {
  if (in_window(t)) ++arrivals_;
}

void Metrics::record_acceptance(Seconds t, bool via_migration) {
  if (!in_window(t)) return;
  ++accepts_;
  if (via_migration) ++accepts_via_migration_;
}

void Metrics::record_rejection(Seconds t) {
  if (in_window(t)) ++rejects_;
}

void Metrics::record_migration_chain(Seconds t, std::size_t steps) {
  if (in_window(t)) migration_steps_ += steps;
}

void Metrics::record_underflow(Seconds t, Megabits megabits) {
  if (!in_window(t)) return;
  ++underflow_events_;
  underflow_megabits_ += megabits;
}

void Metrics::record_completion(Seconds t) {
  if (in_window(t)) ++completions_;
}

void Metrics::record_drop(Seconds t) {
  if (in_window(t)) ++drops_;
}

void Metrics::record_replication(Seconds t0, Seconds t1, Mbps rate) {
  if (rate <= 0.0) return;
  const Seconds lo = std::max(t0, window_start_);
  const Seconds hi = std::min(t1, window_end_);
  if (hi > lo) replication_megabits_ += rate * (hi - lo);
  // Copies are infrastructure events, not a rate metric: count them even
  // when they complete during warmup (the replicas they created shape the
  // whole measured window).
  ++replications_;
}

void Metrics::record_server_recovery(Seconds downtime) {
  ++server_recoveries_;
  recovery_time_.add(downtime);
}

void Metrics::set_topology(const Topology* topology,
                           const std::vector<Mbps>& server_bandwidth) {
  topology_ = topology;
  if (topology == nullptr) return;
  rack_bandwidth_.assign(static_cast<std::size_t>(topology->racks()), 0.0);
  zone_bandwidth_.assign(static_cast<std::size_t>(topology->zones()), 0.0);
  rack_capacity_lost_.assign(rack_bandwidth_.size(), 0.0);
  zone_capacity_lost_.assign(zone_bandwidth_.size(), 0.0);
  rack_glitch_seconds_.assign(rack_bandwidth_.size(), 0.0);
  zone_glitch_seconds_.assign(zone_bandwidth_.size(), 0.0);
  for (std::size_t s = 0; s < server_bandwidth.size(); ++s) {
    const auto id = static_cast<ServerId>(s);
    rack_bandwidth_[static_cast<std::size_t>(topology->rack_of(id))] +=
        server_bandwidth[s];
    zone_bandwidth_[static_cast<std::size_t>(topology->zone_of(id))] +=
        server_bandwidth[s];
  }
}

void Metrics::record_capacity_loss(Seconds t0, Seconds t1, Mbps lost_mbps,
                                   ServerId server) {
  if (lost_mbps <= 0.0) return;
  const Seconds lo = std::max(t0, window_start_);
  const Seconds hi = std::min(t1, window_end_);
  if (hi <= lo) return;
  capacity_lost_ += lost_mbps * (hi - lo);
  if (topology_ != nullptr && server != kNoServer) {
    const Megabits loss = lost_mbps * (hi - lo);
    rack_capacity_lost_[static_cast<std::size_t>(topology_->rack_of(server))] +=
        loss;
    zone_capacity_lost_[static_cast<std::size_t>(topology_->zone_of(server))] +=
        loss;
  }
}

void Metrics::record_shed(bool migrated) {
  ++sheds_;
  if (migrated) ++sheds_migrated_;
}

void Metrics::record_glitch(Seconds t, Seconds seconds, ServerId server) {
  if (!in_window(t)) return;
  ++interruptions_;
  glitch_seconds_ += seconds;
  if (topology_ != nullptr && server != kNoServer) {
    rack_glitch_seconds_[static_cast<std::size_t>(topology_->rack_of(server))] +=
        seconds;
    zone_glitch_seconds_[static_cast<std::size_t>(topology_->zone_of(server))] +=
        seconds;
  }
}

void Metrics::record_glitch_seconds(Seconds t, Seconds seconds, ServerId server) {
  if (!in_window(t)) return;
  glitch_seconds_ += seconds;
  if (topology_ != nullptr && server != kNoServer) {
    rack_glitch_seconds_[static_cast<std::size_t>(topology_->rack_of(server))] +=
        seconds;
    zone_glitch_seconds_[static_cast<std::size_t>(topology_->zone_of(server))] +=
        seconds;
  }
}

void Metrics::record_partition_heal(Seconds duration) {
  ++partition_heals_;
  partition_time_.add(duration);
}

void Metrics::merge_shard(const Metrics& shard) {
  transmitted_ += shard.transmitted_;
  underflow_events_ += shard.underflow_events_;
  underflow_megabits_ += shard.underflow_megabits_;
  interruptions_ += shard.interruptions_;
  glitch_seconds_ += shard.glitch_seconds_;
  // Per-domain glitch attribution follows the cluster-wide sum (shards
  // record client starvation; capacity loss stays coordinator-only).
  for (std::size_t r = 0;
       r < rack_glitch_seconds_.size() && r < shard.rack_glitch_seconds_.size();
       ++r) {
    rack_glitch_seconds_[r] += shard.rack_glitch_seconds_[r];
  }
  for (std::size_t z = 0;
       z < zone_glitch_seconds_.size() && z < shard.zone_glitch_seconds_.size();
       ++z) {
    zone_glitch_seconds_[z] += shard.zone_glitch_seconds_[z];
  }
}

void Metrics::set_bounds(double utilization_upper, double rejection_lower) {
  has_bounds_ = true;
  bound_utilization_ = utilization_upper;
  bound_rejection_ = rejection_lower;
}

double Metrics::availability() const {
  return 1.0 - capacity_lost_ / (total_bandwidth_ * window());
}

double Metrics::utilization() const {
  return transmitted_ / (total_bandwidth_ * window());
}

double Metrics::rejection_ratio() const {
  if (arrivals_ == 0) return 0.0;
  return static_cast<double>(rejects_) / static_cast<double>(arrivals_);
}

double Metrics::migrations_per_arrival() const {
  if (arrivals_ == 0) return 0.0;
  return static_cast<double>(migration_steps_) / static_cast<double>(arrivals_);
}

}  // namespace vodsim
