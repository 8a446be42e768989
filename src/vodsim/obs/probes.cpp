#include "vodsim/obs/probes.h"

#include <cassert>

namespace vodsim {

ProbeSet::ProbeSet(const ProbeConfig& config)
    : period_(config.period),
      next_(config.period) {  // t = 0 is the empty cluster; skip it
  assert(period_ > 0.0);
}

void ProbeSet::on_event(Seconds now, const std::vector<Server>& servers,
                        std::size_t pending_events, std::size_t retry_depth) {
  while (next_ <= now) {
    sample(next_, servers, pending_events, retry_depth);
    next_ += period_;
  }
}

void ProbeSet::finalize(Seconds horizon, const std::vector<Server>& servers,
                        std::size_t pending_events, std::size_t retry_depth) {
  while (next_ <= horizon) {
    sample(next_, servers, pending_events, retry_depth);
    next_ += period_;
  }
}

void ProbeSet::sample(Seconds grid_time, const std::vector<Server>& servers,
                      std::size_t pending_events, std::size_t retry_depth) {
  double total_committed = 0.0;
  double total_reserved = 0.0;
  double total_active = 0.0;
  double total_factor = 0.0;
  double total_fill = 0.0;
  double total_reachable = 0.0;
  std::uint64_t total_streams = 0;

  for (const Server& server : servers) {
    ProbeRow row;
    row.time = grid_time;
    row.server = server.id();
    row.committed_mbps = server.committed_bandwidth();
    row.reserved_mbps = server.reserved_bandwidth();
    row.active_streams = static_cast<double>(server.active_count());
    row.capacity_factor = server.capacity_factor();
    row.reachable = server.reachable() ? 1.0 : 0.0;

    double fill_sum = 0.0;
    std::uint64_t with_buffer = 0;
    for (const Request* request : server.active_requests()) {
      const Megabits capacity = request->buffer_capacity();
      if (capacity <= 0.0) continue;
      const double fill = request->buffer_level() / capacity;
      fill_sum += fill;
      ++with_buffer;
    }
    row.mean_buffer_fill =
        with_buffer > 0 ? fill_sum / static_cast<double>(with_buffer) : 0.0;
    rows_.push_back(row);

    total_committed += row.committed_mbps;
    total_reserved += row.reserved_mbps;
    total_active += row.active_streams;
    total_factor += row.capacity_factor;
    total_fill += fill_sum;
    total_reachable += row.reachable;
    total_streams += with_buffer;
  }

  ProbeRow aggregate;
  aggregate.time = grid_time;
  aggregate.server = kNoServer;
  aggregate.committed_mbps = total_committed;
  aggregate.reserved_mbps = total_reserved;
  aggregate.active_streams = total_active;
  aggregate.mean_buffer_fill =
      total_streams > 0 ? total_fill / static_cast<double>(total_streams) : 0.0;
  aggregate.pending_events = static_cast<double>(pending_events);
  aggregate.capacity_factor =
      servers.empty() ? 1.0 : total_factor / static_cast<double>(servers.size());
  aggregate.retry_queue = static_cast<double>(retry_depth);
  aggregate.reachable = servers.empty()
                            ? 1.0
                            : total_reachable / static_cast<double>(servers.size());
  rows_.push_back(aggregate);
}

}  // namespace vodsim
