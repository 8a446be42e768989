#pragma once

/// \file policy_matrix.h
/// \brief The paper's Figure 6 policy matrix, P1..P8.
///
/// {Even, Predictive} placement x {no migration, migration} x {0%, 20%}
/// client staging. Migration, where enabled, uses the paper's settings:
/// chain length 1, at most one hop per request over its lifetime.

#include <string>
#include <vector>

#include "vodsim/engine/config.h"

namespace vodsim {

struct PolicySpec {
  std::string label;            ///< "P1".."P8"
  PlacementKind placement = PlacementKind::kEven;
  bool migration = false;
  double staging_fraction = 0.0;

  std::string description() const;
};

/// P1..P8 in the paper's order (Figure 6).
const std::vector<PolicySpec>& figure6_policies();

/// Applies a policy row onto a base configuration (placement kind,
/// migration settings, staging fraction). Everything else in \p base —
/// system, workload, scheduler, receive cap — is preserved.
SimulationConfig apply_policy(SimulationConfig base, const PolicySpec& policy);

/// One cell of the scheduler x placement x migration-budget tournament:
/// a full cross of the dimensions the bounds (analysis/bounds.h) are blind
/// to. Because the analytic envelope is policy-independent, every cell of a
/// tournament column shares one BoundsReport, and the per-cell gap columns
/// rank the policies by distance from theory.
struct TournamentSpec {
  std::string label;  ///< "<scheduler>/<placement>/m<hops>"
  SchedulerKind scheduler = SchedulerKind::kEftf;
  PlacementKind placement = PlacementKind::kEven;
  int migration_hops = 0;  ///< 0 = migration off; >0 = max hops per request
  double staging_fraction = 0.2;

  std::string description() const;
};

/// Full cross product, schedulers-major, then placement, then budget (the
/// order the tournament prints its rows in).
std::vector<TournamentSpec> tournament_grid(
    const std::vector<SchedulerKind>& schedulers,
    const std::vector<PlacementKind>& placements,
    const std::vector<int>& migration_budgets, double staging_fraction);

/// Applies a tournament cell onto a base configuration. Admission stays
/// whatever \p base says (buffer-aware admission is NOT toggled per cell —
/// the tournament compares schedulers under identical admission rules, and
/// keeping it off leaves the stronger analytic envelope armed for every
/// cell); chain length tracks the hop budget.
SimulationConfig apply_tournament_spec(SimulationConfig base,
                                       const TournamentSpec& spec);

}  // namespace vodsim
