#pragma once

/// \file schedule.h
/// \brief Deterministic pre-generated fault schedules.
///
/// A taxonomy of faults the paper's §3.1 fault-tolerance remark motivates:
/// crash/repair, brownouts (partial capacity loss), correlated group
/// outages, the topology-scoped rack outages, zone brownouts and rack
/// partitions, and flap guards (minimum dwell times). The whole schedule
/// is a pure function of (config, topology, horizon, failure RNG),
/// generated before the first simulation event, so fault behaviour is
/// reproducible and diffable across policies.
///
/// Draw-order contract (load-bearing for the hexfloat goldens): phase 1
/// draws, per server, alternating Exp(1/MTBF) / Exp(1/MTTR) gaps until the
/// horizon. Every later phase is a set of episode sequences — per server
/// (brownouts), per consecutive group (correlated outages), per rack or
/// zone (the domain phases) — each drawing gap then duration per episode.
/// A phase draws only when its sub-config is enabled, and only *after*
/// every earlier phase, in the order binary, brownout, correlated, rack
/// outage, zone brownout, partition; so a crash-only config consumes the
/// same RNG prefix whatever else exists, and enabling a later phase never
/// perturbs an earlier one's draws.
///
/// Sharded engine (DESIGN.md §12): fault transitions shed, migrate, or
/// re-park streams across arbitrary servers, so every transition executes
/// on the serial coordinator queue. The schedule being pre-generated means
/// sharding changes nothing about when faults fire — only which queue runs
/// the handler.

#include <vector>

#include "vodsim/engine/config.h"
#include "vodsim/fault/transition.h"
#include "vodsim/util/rng.h"
#include "vodsim/util/units.h"

namespace vodsim {

/// Generates the full fault schedule up to \p horizon, sorted by
/// (time, server, kind). Empty when `config.enabled` is false. Delegates to
/// the topology overload with the trivial single-rack tree, so no domain
/// phase ever draws.
std::vector<FaultTransition> generate_fault_schedule(const FailureConfig& config,
                                                     int num_servers,
                                                     Seconds horizon, Rng& rng);

/// As above, with a failure-domain tree: the domain phases (rack outages,
/// zone brownouts, rack partitions) scope their episodes to \p topology's
/// racks and zones. With a disabled topology (or no domain sub-config
/// enabled) the output is bit-identical to the num_servers overload.
std::vector<FaultTransition> generate_fault_schedule(const FailureConfig& config,
                                                     const Topology& topology,
                                                     Seconds horizon, Rng& rng);

/// Sorts \p schedule into the canonical (time, server, kind) order used by
/// the engine. Scripted schedules go through this before execution.
void sort_fault_schedule(std::vector<FaultTransition>& schedule);

}  // namespace vodsim
