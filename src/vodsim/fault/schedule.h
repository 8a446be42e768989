#pragma once

/// \file schedule.h
/// \brief Deterministic pre-generated fault schedules and the fault-process
/// table.
///
/// A taxonomy of faults the paper's §3.1 fault-tolerance remark motivates:
/// binary crash/repair, then the episode processes fault_processes() lists
/// (per-server brownouts, correlated group outages, and the
/// topology-scoped rack outages, zone brownouts and rack partitions), and
/// flap guards (minimum dwell times). The whole schedule is a pure function
/// of (config, topology, horizon, failure RNG), generated before the first
/// simulation event, so fault behaviour is reproducible and diffable across
/// policies.
///
/// Draw-order contract (load-bearing for the hexfloat goldens): the binary
/// phase draws, per server, alternating Exp(1/MTBF) / Exp(1/MTTR) gaps until
/// the first one past the horizon. Then each enabled row of
/// fault_processes(), in table order, draws one episode sequence per domain
/// of its scope, in domain index order: gap then duration per episode, and
/// a last gap that begins past the horizon, drawn even when the episode
/// before it already ends past it. A disabled row draws nothing, so a
/// crash-only config consumes the same RNG prefix whatever else exists, and
/// enabling a later row never perturbs an earlier one's draws.
/// `ScheduleGoldens.DrawOrderMatchesPinnedHexfloatGoldens` pins the order
/// with every process enabled at once.
///
/// Sharded engine (DESIGN.md §12): fault transitions shed, migrate, or
/// re-park streams across arbitrary servers, so every transition executes
/// on the serial coordinator queue. The schedule being pre-generated means
/// sharding changes nothing about when faults fire — only which queue runs
/// the handler.

#include <span>
#include <vector>

#include "vodsim/engine/config.h"
#include "vodsim/fault/transition.h"
#include "vodsim/util/rng.h"
#include "vodsim/util/units.h"

namespace vodsim {

/// The unit of servers one episode of a fault process hits together.
enum class FaultScope {
  kServer,  ///< each server on its own
  kGroup,   ///< consecutive blocks of the process's group_size servers
  kRack,    ///< each rack of the Topology (needs topology.enabled)
  kZone,    ///< each zone of the Topology (needs topology.enabled)
};

/// One row of the fault taxonomy: a FailureConfig member that is a fault
/// process, and what its episodes do.
struct FaultProcessRow {
  const char* path;  ///< member path below SimulationConfig
  FaultScope scope;
  FaultTransitionKind begin_kind;  ///< emitted for every member at episode start
  FaultTransitionKind end_kind;    ///< ... and at episode end
  const FaultProcess& (*process)(const FailureConfig&);
  FaultProcess& (*mutable_process)(FailureConfig&);
  /// Capacity factor the begin transition leaves (1 unless a brownout).
  double (*begin_factor)(const FailureConfig&);
  /// Servers per domain at group scope; 0 at every other scope.
  int (*group_size)(const FailureConfig&);

  bool needs_topology() const {
    return scope == FaultScope::kRack || scope == FaultScope::kZone;
  }
};

/// Every fault process in FailureConfig, in draw order.
std::span<const FaultProcessRow> fault_processes();

/// Generates the full fault schedule up to \p horizon, sorted by
/// (time, server, kind). Empty when `config.enabled` is false. Rack- and
/// zone-scoped rows range over \p topology's racks and zones; a disabled
/// topology is one rack and one zone (validate() rejects enabling them
/// without a topology).
std::vector<FaultTransition> generate_fault_schedule(const FailureConfig& config,
                                                     const Topology& topology,
                                                     Seconds horizon, Rng& rng);

/// Sorts \p schedule into the canonical (time, server, kind) order used by
/// the engine. Scripted schedules go through this before execution.
void sort_fault_schedule(std::vector<FaultTransition>& schedule);

}  // namespace vodsim
