#pragma once

/// \file transition.h
/// \brief The atom of the fault model: one server changing health state.
///
/// Lives in its own header (rather than schedule.h) so engine/config.h can
/// carry a scripted fault list without pulling in the schedule generator.

#include "vodsim/cluster/request.h"
#include "vodsim/util/enum_names.h"
#include "vodsim/util/units.h"

namespace vodsim {

/// What happens to a server at a scheduled fault time.
///
/// New kinds append at the end: sort_fault_schedule tie-breaks equal
/// (time, server) pairs by the enum's integer value, so appending keeps
/// every legacy schedule's order bit-identical.
enum class FaultTransitionKind {
  kDown,            ///< Total crash: server unavailable, streams orphaned.
  kUp,              ///< Repair complete: server available at full capacity.
  kBrownoutBegin,   ///< Link degrades to `capacity_factor` of nominal.
  kBrownoutEnd,     ///< Link restored to full capacity.
  kPartitionBegin,  ///< Network partition: server up but unreachable from
                    ///< the controller — no admission, migration,
                    ///< replication, or delivery may touch it.
  kPartitionEnd,    ///< Partition heals: server reachable again.
};

/// One scheduled health transition. Schedules are sorted by
/// (time, server, kind) and are deterministic functions of the failure RNG
/// stream, so the whole fault story of a run is fixed before the first event.
struct FaultTransition {
  Seconds time = 0.0;
  ServerId server = kNoServer;
  FaultTransitionKind kind = FaultTransitionKind::kDown;
  /// Fraction of nominal bandwidth that survives. Only meaningful for
  /// kBrownoutBegin; must be in (0, 1).
  double capacity_factor = 1.0;
};

inline constexpr EnumName kFaultTransitionNames[] = {
    {"down", "vodsim::FaultTransitionKind::kDown"},
    {"up", "vodsim::FaultTransitionKind::kUp"},
    {"brownout_begin", "vodsim::FaultTransitionKind::kBrownoutBegin"},
    {"brownout_end", "vodsim::FaultTransitionKind::kBrownoutEnd"},
    {"partition_begin", "vodsim::FaultTransitionKind::kPartitionBegin"},
    {"partition_end", "vodsim::FaultTransitionKind::kPartitionEnd"},
};

inline const char* to_string(FaultTransitionKind kind) {
  const auto index = static_cast<std::size_t>(kind);
  const auto& names = kFaultTransitionNames;
  return index < std::size(names) ? names[index].cli : "?";
}

}  // namespace vodsim
