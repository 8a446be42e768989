#include "vodsim/fault/schedule.h"

#include <algorithm>
#include <type_traits>

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

/// Builds a row from an accessor `[](auto& f) -> auto& { return f.<member>; }`;
/// the PROCESS macro below spells the member once for both. The begin
/// factor and group size come from the process type.
template <typename Access>
constexpr FaultProcessRow row(const char* path, Access, FaultScope scope,
                              FaultTransitionKind begin_kind,
                              FaultTransitionKind end_kind) {
  using P = std::remove_cvref_t<decltype(Access{}(std::declval<FailureConfig&>()))>;
  FaultProcessRow out{
      path, scope, begin_kind, end_kind,
      [](const FailureConfig& f) -> const FaultProcess& { return Access{}(f); },
      [](FailureConfig& f) -> FaultProcess& { return Access{}(f); },
      [](const FailureConfig&) { return 1.0; },
      [](const FailureConfig&) { return 0; }};
  if constexpr (std::is_base_of_v<BrownoutProcess, P>) {
    out.begin_factor = [](const FailureConfig& f) { return Access{}(f).capacity_factor; };
  }
  if constexpr (std::is_base_of_v<GroupOutageProcess, P>) {
    out.group_size = [](const FailureConfig& f) { return Access{}(f).group_size; };
  }
  return out;
}

#define PROCESS(member) "failure." #member, [](auto& f) -> auto& { return f.member; }

using enum FaultScope;
using enum FaultTransitionKind;

// The taxonomy. Its order is the failure RNG's draw order (schedule.h).
constexpr FaultProcessRow kProcesses[] = {
    row(PROCESS(brownout), kServer, kBrownoutBegin, kBrownoutEnd),
    row(PROCESS(correlated), kGroup, kDown, kUp),
    row(PROCESS(domains.rack_outage), kRack, kDown, kUp),
    row(PROCESS(domains.zone_brownout), kZone, kBrownoutBegin, kBrownoutEnd),
    row(PROCESS(domains.partition), kRack, kPartitionBegin, kPartitionEnd),
};

#undef PROCESS

/// Binary crash/repair: per-server alternating gaps. Unlike an episode
/// sequence it stops at the first draw past the horizon, so it stays
/// outside the table. The flap guard rewrites a gap only after the draw,
/// never skips or adds one, so min_dwell leaves the draw sequence unchanged.
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

/// Draws one episode sequence of \p row for the server range [first, last)
/// (gap → duration, min_dwell stretches applied to both; the next gap starts
/// at the previous episode's end, so episodes never overlap) and emits a
/// begin/end transition pair for each member.
void generate_domain_episodes(const FailureConfig& config, const FaultProcessRow& row,
                              Seconds horizon, Rng& rng, ServerId first, ServerId last,
                              std::vector<FaultTransition>& out) {
  const FaultProcess& process = row.process(config);
  const double begin_factor = row.begin_factor(config);
  Seconds t = 0.0;
  for (;;) {
    Seconds gap = rng.exponential(1.0 / process.mean_time_between);
    if (config.min_dwell > 0.0 && gap < config.min_dwell) gap = config.min_dwell;
    const Seconds begin = t + gap;
    if (begin >= horizon) break;
    Seconds duration = rng.exponential(1.0 / process.mean_duration);
    if (config.min_dwell > 0.0 && duration < config.min_dwell) {
      duration = config.min_dwell;
    }
    const Seconds end = begin + duration;
    for (ServerId s = first; s < last; ++s) {
      out.push_back(FaultTransition{begin, s, row.begin_kind, begin_factor});
      if (end < horizon) {
        out.push_back(FaultTransition{end, s, row.end_kind, 1.0});
      }
    }
    t = end;
  }
}

}  // namespace

std::span<const FaultProcessRow> fault_processes() { return kProcesses; }

std::vector<FaultTransition> generate_fault_schedule(const FailureConfig& config,
                                                     const Topology& topology,
                                                     Seconds horizon, Rng& rng) {
  std::vector<FaultTransition> schedule;
  if (!config.enabled) return schedule;
  const int num_servers = topology.num_servers();

  generate_binary(config, num_servers, horizon, rng, schedule);
  for (const FaultProcessRow& row : fault_processes()) {
    if (!row.process(config).enabled) continue;
    const auto episodes = [&](ServerId first, ServerId last) {
      generate_domain_episodes(config, row, horizon, rng, first, last, schedule);
    };
    switch (row.scope) {
      case FaultScope::kServer:
        for (ServerId s = 0; s < num_servers; ++s) episodes(s, s + 1);
        break;
      case FaultScope::kGroup: {
        const int size = row.group_size(config);
        for (ServerId first = 0; first < num_servers; first += size) {
          episodes(first, std::min(first + size, num_servers));
        }
        break;
      }
      case FaultScope::kRack:
        for (int rack = 0; rack < topology.racks(); ++rack) {
          episodes(topology.rack_first(rack), topology.rack_end(rack));
        }
        break;
      case FaultScope::kZone:
        for (int zone = 0; zone < topology.zones(); ++zone) {
          episodes(topology.zone_first(zone), topology.zone_end(zone));
        }
        break;
    }
  }

  // (time, server) ties are measure-zero within the binary phase, so this
  // order reduces to the legacy (time, server) sort on crash-only configs.
  sort_fault_schedule(schedule);
  return schedule;
}

}  // namespace vodsim
