#pragma once

/// \file workloads.h
/// \brief The benchmark's four workloads and the inputs it builds for them.
///
/// The benchmark owns its inputs: the benchmark seed drives the request
/// trace, and every cell of a workload shares one system and load, so one
/// trace feeds every cell. The cluster world (catalog, replica placement,
/// fault timeline, decision tie-breaks) is part of the workload definition
/// and uses the fixed kWorldSeed, so run time and results move with the
/// request stream only, not with a redrawn cluster. Each workload is chosen
/// to load a different layer (README.md).

#include <cstdint>
#include <string>
#include <vector>

#include "vodsim/engine/config.h"
#include "vodsim/workload/trace.h"

namespace suite {

/// SimulationConfig::seed of every cell.
inline constexpr std::uint64_t kWorldSeed = 2001;

struct Workload {
  std::string name;
  /// Configurations run one after another on the same trace.
  std::vector<vodsim::SimulationConfig> cells;
  /// Zero switch latency and no faults: a continuity violation is a bug.
  bool expect_continuity = false;
};

/// Builds workload \p name. \p horizon_scale multiplies the
/// simulated horizon and warmup (1 = full size, 0.05 = smoke). \p threads
/// is the drain worker count of the sharded workload; the others ignore it.
/// Throws std::invalid_argument on an unknown name.
Workload make_workload(const std::string& name, double horizon_scale,
                       int threads);

/// Records the arrival stream a cell with `config.seed == seed` would
/// generate for itself: the same Poisson process and popularity law, and
/// the arrival seed SeedPlan derives from \p seed. With `seed ==
/// config.seed` the trace is exactly what `VodSimulation(config)` draws.
vodsim::RequestTrace make_trace(const vodsim::SimulationConfig& config,
                                std::uint64_t seed);

}  // namespace suite
