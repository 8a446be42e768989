#include "vodsim/fault/schedule.h"

#include <algorithm>

namespace vodsim {

void sort_fault_schedule(std::vector<FaultTransition>& schedule) {
  std::sort(schedule.begin(), schedule.end(),
            [](const FaultTransition& a, const FaultTransition& b) {
              if (a.time != b.time) return a.time < b.time;
              if (a.server != b.server) return a.server < b.server;
              return static_cast<int>(a.kind) < static_cast<int>(b.kind);
            });
}

namespace {

/// Phase 1: per-server alternating crash/repair. The flap guard rewrites a
/// gap only after the draw, never skips or adds one, so min_dwell leaves
/// the draw sequence unchanged.
void generate_binary(const FailureConfig& config, int num_servers,
                     Seconds horizon, Rng& rng,
                     std::vector<FaultTransition>& out) {
  for (int s = 0; s < num_servers; ++s) {
    Seconds t = 0.0;
    bool up = true;
    for (;;) {
      Seconds gap = up ? rng.exponential(1.0 / config.mean_time_between_failures)
                       : rng.exponential(1.0 / config.mean_time_to_repair);
      if (config.min_dwell > 0.0 && gap < config.min_dwell) {
        gap = config.min_dwell;  // flap guard: stretch, never redraw
      }
      t += gap;
      if (t >= horizon) break;
      up = !up;
      out.push_back(FaultTransition{
          t, static_cast<ServerId>(s),
          up ? FaultTransitionKind::kUp : FaultTransitionKind::kDown, 1.0});
    }
  }
}

/// Draws one episode sequence for the server range [first, last) (gap →
/// duration, min_dwell stretches applied to both; the next gap starts at
/// the previous episode's end, so episodes never overlap) and emits a
/// begin/end transition pair for each member. Every phase but the binary
/// one is a set of such sequences.
void generate_domain_episodes(const FailureConfig& config, Seconds horizon,
                              Rng& rng, ServerId first, ServerId last,
                              Seconds mean_time_between, Seconds mean_duration,
                              FaultTransitionKind begin_kind,
                              FaultTransitionKind end_kind, double begin_factor,
                              std::vector<FaultTransition>& out) {
  Seconds t = 0.0;
  for (;;) {
    Seconds gap = rng.exponential(1.0 / mean_time_between);
    if (config.min_dwell > 0.0 && gap < config.min_dwell) gap = config.min_dwell;
    const Seconds begin = t + gap;
    if (begin >= horizon) break;
    Seconds duration = rng.exponential(1.0 / mean_duration);
    if (config.min_dwell > 0.0 && duration < config.min_dwell) {
      duration = config.min_dwell;
    }
    const Seconds end = begin + duration;
    for (ServerId s = first; s < last; ++s) {
      out.push_back(FaultTransition{begin, s, begin_kind, begin_factor});
      if (end < horizon) {
        out.push_back(FaultTransition{end, s, end_kind, 1.0});
      }
    }
    t = end;
  }
}

/// Phase 2: per-server brownout episodes.
void generate_brownouts(const FailureConfig& config, int num_servers,
                        Seconds horizon, Rng& rng,
                        std::vector<FaultTransition>& out) {
  const BrownoutConfig& b = config.brownout;
  for (ServerId s = 0; s < num_servers; ++s) {
    generate_domain_episodes(config, horizon, rng, s, s + 1, b.mean_time_between,
                             b.mean_duration, FaultTransitionKind::kBrownoutBegin,
                             FaultTransitionKind::kBrownoutEnd, b.capacity_factor,
                             out);
  }
}

/// Phase 3: correlated outages over consecutive server groups. Each group
/// draws its own episode sequence; every member gets the same down/up pair
/// (same times), modelling a shared rack or switch.
void generate_correlated(const FailureConfig& config, int num_servers,
                         Seconds horizon, Rng& rng,
                         std::vector<FaultTransition>& out) {
  const CorrelatedFailureConfig& c = config.correlated;
  const int group_size = std::min(c.group_size, num_servers);
  for (ServerId first = 0; first < num_servers; first += group_size) {
    generate_domain_episodes(config, horizon, rng, first,
                             std::min(first + group_size, num_servers),
                             c.mean_time_between, c.mean_duration,
                             FaultTransitionKind::kDown, FaultTransitionKind::kUp,
                             1.0, out);
  }
}

/// Phase 4: whole-rack outages — every member of a rack crashes and repairs
/// together, one episode process per rack.
void generate_rack_outages(const FailureConfig& config, const Topology& topology,
                           Seconds horizon, Rng& rng,
                           std::vector<FaultTransition>& out) {
  const RackOutageConfig& r = config.domains.rack_outage;
  for (int rack = 0; rack < topology.racks(); ++rack) {
    generate_domain_episodes(config, horizon, rng, topology.rack_first(rack),
                             topology.rack_end(rack), r.mean_time_between,
                             r.mean_duration, FaultTransitionKind::kDown,
                             FaultTransitionKind::kUp, 1.0, out);
  }
}

/// Phase 5: zone-wide brownouts — every server in a zone degrades to the
/// zone capacity factor together, one episode process per zone.
void generate_zone_brownouts(const FailureConfig& config,
                             const Topology& topology, Seconds horizon, Rng& rng,
                             std::vector<FaultTransition>& out) {
  const ZoneBrownoutConfig& z = config.domains.zone_brownout;
  for (int zone = 0; zone < topology.zones(); ++zone) {
    // A zone covers a contiguous rack range, hence a contiguous server
    // range: [first server of its first rack, end of its last rack).
    ServerId first = static_cast<ServerId>(topology.num_servers());
    ServerId last = 0;
    for (int rack = 0; rack < topology.racks(); ++rack) {
      if (topology.zone_of_rack(rack) != zone) continue;
      first = std::min(first, topology.rack_first(rack));
      last = std::max(last, topology.rack_end(rack));
    }
    if (first >= last) continue;
    generate_domain_episodes(config, horizon, rng, first, last,
                             z.mean_time_between, z.mean_duration,
                             FaultTransitionKind::kBrownoutBegin,
                             FaultTransitionKind::kBrownoutEnd,
                             z.capacity_factor, out);
  }
}

/// Phase 6: per-rack network partitions — every member of a rack becomes
/// unreachable together (shared uplink), one episode process per rack.
void generate_partitions(const FailureConfig& config, const Topology& topology,
                         Seconds horizon, Rng& rng,
                         std::vector<FaultTransition>& out) {
  const PartitionConfig& p = config.domains.partition;
  for (int rack = 0; rack < topology.racks(); ++rack) {
    generate_domain_episodes(config, horizon, rng, topology.rack_first(rack),
                             topology.rack_end(rack), p.mean_time_between,
                             p.mean_duration, FaultTransitionKind::kPartitionBegin,
                             FaultTransitionKind::kPartitionEnd, 1.0, out);
  }
}

}  // namespace

std::vector<FaultTransition> generate_fault_schedule(const FailureConfig& config,
                                                     int num_servers,
                                                     Seconds horizon, Rng& rng) {
  // Legacy entry point: trivial (disabled) topology, so the domain phases
  // never draw and the schedule is exactly the pre-topology one.
  return generate_fault_schedule(config, Topology(TopologyConfig{}, num_servers),
                                 horizon, rng);
}

std::vector<FaultTransition> generate_fault_schedule(const FailureConfig& config,
                                                     const Topology& topology,
                                                     Seconds horizon, Rng& rng) {
  std::vector<FaultTransition> schedule;
  if (!config.enabled) return schedule;
  const int num_servers = topology.num_servers();

  generate_binary(config, num_servers, horizon, rng, schedule);
  if (config.brownout.enabled) {
    generate_brownouts(config, num_servers, horizon, rng, schedule);
  }
  if (config.correlated.enabled) {
    generate_correlated(config, num_servers, horizon, rng, schedule);
  }
  // Domain phases (4-6): draw only when their sub-config is enabled
  // (validate() requires topology.enabled for each), and strictly after
  // every legacy phase — topology-free configs consume the identical RNG
  // prefix they always did.
  if (config.domains.rack_outage.enabled) {
    generate_rack_outages(config, topology, horizon, rng, schedule);
  }
  if (config.domains.zone_brownout.enabled) {
    generate_zone_brownouts(config, topology, horizon, rng, schedule);
  }
  if (config.domains.partition.enabled) {
    generate_partitions(config, topology, horizon, rng, schedule);
  }

  // (time, server) ties are measure-zero within the binary phase, so this
  // order reduces to the legacy (time, server) sort on crash-only configs.
  sort_fault_schedule(schedule);
  return schedule;
}

}  // namespace vodsim
