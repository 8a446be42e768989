#pragma once

/// \file migration.h
/// \brief Dynamic request migration (DRM, paper §3.1).
///
/// When every server holding a replica of an incoming request's video is
/// full, DRM looks for an *active* request on such a server that can itself
/// move to a different holder of *its* video with headroom — freeing a slot
/// for the newcomer. The paper caps the migration chain length at 1 (one
/// migration per arrival) and studies hops-per-request of 1 vs unlimited;
/// both are knobs here, and chains longer than 1 are supported via
/// depth-limited search for the ablation bench.

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "vodsim/cluster/request.h"
#include "vodsim/cluster/server.h"
#include "vodsim/util/enum_names.h"
#include "vodsim/util/rng.h"
#include "vodsim/util/units.h"

namespace vodsim {

/// Which active request to move off a full server first.
enum class VictimStrategy {
  kFirstFit,        ///< first eligible in active order (cheapest)
  kLeastRemaining,  ///< closest to finishing (frees the slot soonest anyway)
  kMostRemaining,   ///< farthest from finishing
  kMostBuffered,    ///< largest staged reserve (most jitter headroom)
};

inline constexpr EnumName kVictimNames[] = {
    {"first-fit", "vodsim::VictimStrategy::kFirstFit"},
    {"least-remaining", "vodsim::VictimStrategy::kLeastRemaining"},
    {"most-remaining", "vodsim::VictimStrategy::kMostRemaining"},
    {"most-buffered", "vodsim::VictimStrategy::kMostBuffered"},
};
constexpr std::span<const EnumName> enum_names(VictimStrategy) { return kVictimNames; }

VictimStrategy victim_strategy_from_string(const std::string& name);
std::string to_string(VictimStrategy strategy);

struct MigrationConfig {
  bool enabled = false;

  /// Maximum number of requests migrated to admit one arrival ("migration
  /// chain length"); the paper uses 1 everywhere.
  int max_chain_length = 1;

  /// Maximum times any one request may migrate during its lifetime
  /// ("hops per request"); -1 = unlimited.
  int max_hops_per_request = 1;

  VictimStrategy victim = VictimStrategy::kFirstFit;

  /// Upper bound on (victim, target) pairs examined per holder tried.
  /// Chains longer than 1 explore a tree whose fan-out is the per-server
  /// active count times the replica degree; the budget keeps worst-case
  /// admission latency bounded (a real controller would, too). A chain-1
  /// search examines about (active count × replica degree) pairs per
  /// holder, well under the default; a failing chain-2 search on a
  /// saturated cluster exhausts it. The budget counts pairs as a plain
  /// pair-by-pair walk would, including last-level pairs that the search
  /// replays from its per-call memo instead of re-examining.
  int max_search_nodes = 1024;

  /// Stream pause while switching servers. A victim is only eligible if its
  /// staged data covers the pause (otherwise the viewer would see jitter —
  /// exactly why DRM needs client staging). 0 = instantaneous switch.
  Seconds switch_latency = 0.0;
};

/// One migration step: move \p request from \p from to \p to.
struct MigrationStep {
  Request* request = nullptr;
  ServerId from = kNoServer;
  ServerId to = kNoServer;
};

/// A feasible admission-with-migration plan: execute `steps` in order (each
/// step's destination has headroom once earlier steps have run), then admit
/// the newcomer on `admit_on`.
struct MigrationPlan {
  std::vector<MigrationStep> steps;
  ServerId admit_on = kNoServer;
};

/// Outcome of the last level of the migration search on one server: the
/// walk over its (victim, target) pairs in search order, up to the first
/// pair that frees the requested rate.
struct LeafOutcome {
  std::uint64_t generation = 0;  ///< find_migration_plan call that computed it
  Mbps rate = 0.0;               ///< rate the walk had to free
  int pairs = 0;                 ///< pairs up to and including the success, or all
  Request* victim = nullptr;     ///< the successful victim; nullptr = none
  ServerId target = kNoServer;   ///< where the successful victim moves
};

/// Reusable working buffers for find_migration_plan. The search runs on
/// every congested arrival, so the admission hot path holds one scratch and
/// threads it through; after warmup a search performs no heap allocations
/// (except copying the steps of a *successful* plan into the result).
/// Single-threaded use only.
struct MigrationSearchScratch {
  std::vector<ServerId> holders;            ///< sorted holder working copy
  std::vector<Mbps> delta;                  ///< hypothetical bandwidth deltas
  std::vector<const Request*> used;         ///< victims already in the plan
  std::vector<MigrationStep> steps;         ///< plan under construction
  std::vector<std::vector<Request*>> victims;  ///< one candidate list per depth

  /// Last-level outcomes, one slot per server. A slot is valid only while
  /// its generation equals `generation`, which every find_migration_plan
  /// call bumps, so nothing is cleared between searches.
  std::vector<LeafOutcome> leaves;
  std::uint64_t generation = 0;

  /// While set, find_migration_plan keeps `generation` instead of bumping
  /// it, so last-level outcomes carry over from one search to the next.
  /// Sound only while no server changes between the searches: a walk
  /// depends on its server's state and the rate alone. Set through
  /// hold_memo(); an outcome computed before the hold never survives it.
  bool memo_held = false;

  /// Starts a run of searches over an unchanging cluster: invalidates the
  /// memo once, then keeps it across searches until release_memo().
  void hold_memo() {
    ++generation;
    memo_held = true;
  }
  /// A server changed mid-run (an admission was executed): drop every
  /// outcome computed so far, keep holding.
  void invalidate_memo() { ++generation; }
  /// Ends the run; every later search starts from an empty memo again.
  void release_memo() { memo_held = false; }

  /// (victim, target) pairs examined by the most recent search — an
  /// observability output (the admission controller traces it), reset on
  /// every find_migration_plan call.
  int nodes_explored = 0;
};

/// Searches for a plan to admit a request for \p video of rate
/// \p view_bandwidth. Preconditions: no holder of \p video can currently
/// admit it directly (the controller checks that first).
///
/// \param holders_of maps VideoId -> server ids holding a replica.
/// Returns nullopt when no chain within the configured length exists.
std::optional<MigrationPlan> find_migration_plan(
    VideoId video, Mbps view_bandwidth, const MigrationConfig& config,
    const std::vector<Server>& servers,
    const std::vector<std::vector<ServerId>>& holders_of,
    MigrationSearchScratch& scratch);

/// Convenience overload with a throwaway scratch (tests, one-shot callers).
std::optional<MigrationPlan> find_migration_plan(
    VideoId video, Mbps view_bandwidth, const MigrationConfig& config,
    const std::vector<Server>& servers,
    const std::vector<std::vector<ServerId>>& holders_of);

}  // namespace vodsim
