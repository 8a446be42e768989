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
  /// replays from its memo instead of re-examining.
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

/// A cluster version: a number that moves to a value it never had before
/// whenever anything a search reads changes — any server's active set,
/// fluid state, reservations, capacity or reachability, or the replica
/// directory. The servers and the directory count their own changes
/// (Server::version, ReplicaDirectory::version), and
/// AdmissionController::cluster_version sums the counts. Searches at one
/// version see one cluster, so they share their last-level walks.
/// kFreshSearch asks for a search that shares nothing with any other;
/// derived versions start above it.
inline constexpr std::uint64_t kFreshSearch = 0;

/// A victim slot that is none (LeafOutcome::slot of a walk that failed).
inline constexpr std::uint32_t kNoVictim = UINT32_MAX;

/// Outcome of the last level of the migration search on one server: the
/// walk over its (victim, target) pairs in search order, up to the first
/// pair that frees the requested rate.
struct LeafOutcome {
  std::uint64_t stamp = kFreshSearch;  ///< search stamp it was computed under
  Mbps rate = 0.0;                     ///< rate the walk had to free
  int pairs = 0;                 ///< pairs up to and including the success, or all
  std::uint32_t slot = kNoVictim;  ///< the successful victim's active slot
  ServerId target = kNoServer;     ///< where the successful victim moves
};

/// A victim claimed by the plan under construction: active slot \p slot
/// of server \p server (a request moves at most once per plan).
struct UsedVictim {
  ServerId server = kNoServer;
  std::uint32_t slot = 0;
};

/// Reusable working buffers for find_migration_plan. The search runs on
/// every congested arrival, so the admission hot path holds one scratch and
/// threads it through; after warmup a search performs no heap allocations
/// (except copying the steps of a *successful* plan into the result).
/// Single-threaded use only.
struct MigrationSearchScratch {
  std::vector<ServerId> holders;              ///< sorted holder working copy
  std::vector<Mbps> claimed;  ///< committed + reserved bandwidth, per server
  std::vector<Mbps> limit;    ///< effective bandwidth + tolerance, per server
  std::vector<Mbps> delta;                    ///< hypothetical bandwidth deltas
  std::vector<UsedVictim> used;               ///< victims already in the plan
  std::vector<MigrationStep> steps;           ///< plan under construction
  std::vector<std::vector<std::uint32_t>> victims;  ///< one slot list per depth

  /// Last-level outcomes, one per server. An outcome is valid for a search
  /// whose stamp equals its own: a search at cluster version v has stamp v,
  /// so outcomes carry over between searches for as long as the version
  /// holds, and nothing is cleared between searches.
  std::vector<LeafOutcome> leaves;
  /// kFreshSearch searches run so far. The n-th gets stamp kFreshStamp | n,
  /// which no caller's version reaches, so it sees none of the outcomes
  /// before it.
  std::uint64_t fresh_searches = 0;
  static constexpr std::uint64_t kFreshStamp = std::uint64_t{1} << 63;

  /// (victim, target) pairs examined by the most recent search — an
  /// observability output (the admission controller traces it), reset on
  /// every find_migration_plan call.
  int nodes_explored = 0;
  /// Last-level walks the most recent search replayed from the memo
  /// instead of walking (observability, reset like nodes_explored).
  int walks_reused = 0;
};

/// Searches for a plan to admit a request for \p video of rate
/// \p view_bandwidth. Preconditions: no holder of \p video can currently
/// admit it directly (the controller checks that first).
///
/// \param holders_of maps VideoId -> server ids holding a replica.
/// \param version the cluster version the search runs at: a search reuses
///        the last-level walks of earlier searches through \p scratch at the
///        same version. kFreshSearch reuses nothing.
/// Returns nullopt when no chain within the configured length exists.
///
/// The search reads each server's victims from its stream table (the
/// lane's traits and fluid state), not from the Requests: a Request
/// pointer is looked up to name a plan step, and dereferenced only to undo
/// a step that freed too little (mixed view rates).
std::optional<MigrationPlan> find_migration_plan(
    VideoId video, Mbps view_bandwidth, const MigrationConfig& config,
    const std::vector<Server>& servers,
    const std::vector<std::vector<ServerId>>& holders_of,
    MigrationSearchScratch& scratch, std::uint64_t version = kFreshSearch);

/// Convenience overload with a throwaway scratch (tests, one-shot callers).
std::optional<MigrationPlan> find_migration_plan(
    VideoId video, Mbps view_bandwidth, const MigrationConfig& config,
    const std::vector<Server>& servers,
    const std::vector<std::vector<ServerId>>& holders_of);

}  // namespace vodsim
