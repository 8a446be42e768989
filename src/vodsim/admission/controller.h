#pragma once

/// \file controller.h
/// \brief The distribution controller's admission decision (paper §2, §3).
///
/// On each arrival the controller either (a) assigns the request to a
/// replica-holding server with bandwidth headroom, (b) frees such a server
/// via dynamic request migration, or (c) rejects the request. The decision
/// is pure — the engine executes it — so it is unit-testable without the
/// event loop.
///
/// Sharded engine (DESIGN.md §12): admission reads — and migration writes —
/// any server in the cluster, so arrival/admission events always execute on
/// the serial coordinator queue, never inside a shard drain. The controller
/// itself needs no changes for sharding; only its call sites are pinned.

#include <cstdint>
#include <vector>

#include "vodsim/admission/migration.h"
#include "vodsim/cluster/server.h"
#include "vodsim/cluster/video.h"
#include "vodsim/obs/trace.h"
#include "vodsim/util/rng.h"

namespace vodsim {

/// VideoId -> servers holding a replica. Built once after placement (the
/// replica set is static; the paper performs no dynamic replication).
class ReplicaDirectory {
 public:
  ReplicaDirectory() = default;
  ReplicaDirectory(std::size_t num_videos, const std::vector<Server>& servers);

  const std::vector<ServerId>& holders(VideoId video) const {
    return holders_[static_cast<std::size_t>(video)];
  }
  const std::vector<std::vector<ServerId>>& all() const { return holders_; }
  std::size_t num_videos() const { return holders_.size(); }

  /// Registers a replica created after placement (dynamic replication).
  /// No-op if the holder is already registered.
  void add_holder(VideoId video, ServerId server);

  /// Holders added so far: the directory's part of the cluster version
  /// (AdmissionController::cluster_version).
  std::uint64_t version() const { return version_; }

 private:
  std::vector<std::vector<ServerId>> holders_;
  std::uint64_t version_ = 0;
};

struct AdmissionConfig {
  MigrationConfig migration;

  /// Buffer-aware admission (intermittent-transmission extension): a server
  /// is considered feasible when the streams that will actually need flow
  /// soon — those whose staged data covers less than
  /// AdmissionController::kNearTermHorizon seconds of playback — fit in the
  /// link, ignoring streams coasting on fat buffers. More aggressive than
  /// the paper's minimum-flow rule; may over-commit and cause continuity
  /// violations in a drain crunch (the engine counts them). Requires
  /// SchedulerKind::kIntermittent.
  bool buffer_aware = false;
};

/// The controller's verdict for one arrival.
struct AdmissionDecision {
  bool accepted = false;
  ServerId server = kNoServer;
  /// Migrations to execute (in order) before attaching the newcomer.
  std::vector<MigrationStep> migrations;
  /// (victim, target) pairs the migration search examined (0 when none
  /// ran); a rejection served from the memo carries the stored count.
  int search_nodes = 0;
  /// A rejection served from the controller's memo: the same (video, rate)
  /// was rejected at the same cluster version before (decide_shared). The
  /// invariant auditor re-decides these fresh.
  bool memoized = false;

  bool used_migration() const { return !migrations.empty(); }
};

class AdmissionController {
 public:
  /// Buffer-aware admission ignores streams whose staged data covers more
  /// than this much playback.
  static constexpr Seconds kNearTermHorizon = 30.0;

  /// \param directory must outlive the controller.
  AdmissionController(AdmissionConfig config, const ReplicaDirectory& directory);

  /// Decides the fate of an arrival for \p video at \p view_bandwidth, at
  /// simulation time \p now (used only for trace attribution — the decision
  /// itself is time-invariant). Does not mutate any server; the engine
  /// applies the decision. A direct assignment goes to the feasible holder
  /// with the fewest active streams, lowest id on ties (the paper's
  /// least-loaded rule). Runs on every arrival, so its working buffers are
  /// reused across calls (the mutable scratch below) — a controller is not
  /// safe to share across threads. This decision shares nothing with any
  /// other call (kFreshSearch). No decision draws a random number: the
  /// unnamed Rng& stays only because the bench suite's replay calls this
  /// signature.
  AdmissionDecision decide(Seconds now, VideoId video, Mbps view_bandwidth,
                           const std::vector<Server>& servers, Rng& /*unused*/) const {
    return decide_impl(now, video, view_bandwidth, servers, /*shared=*/false);
  }

  /// decide, sharing the controller's memo with every other shared
  /// decision at the same cluster_version of \p servers, which must be the
  /// same cluster for every call. They share the search's last-level walks,
  /// and a rejection of (video, rate) is remembered for the rest of the
  /// version: a repeat is served from the memo, tracing the stored search
  /// node count. Exact because a rejected decide changes no server. The
  /// version is derived only to read or write a memo (a lookup for a title
  /// with an entry, a search, a rejection).
  AdmissionDecision decide_shared(Seconds now, VideoId video, Mbps view_bandwidth,
                                  const std::vector<Server>& servers) const {
    return decide_impl(now, video, view_bandwidth, servers, /*shared=*/true);
  }

  /// The cluster version (admission/migration.h): 1 + the directory's
  /// version + every server's (Server::version). The counts only grow, so
  /// it never repeats, and it stays above kFreshSearch.
  std::uint64_t cluster_version(const std::vector<Server>& servers) const;

  const AdmissionConfig& config() const { return config_; }

  /// Attaches a trace recorder (observe-only; null detaches). The
  /// controller emits migration-search telemetry under kTraceMigration.
  void set_trace(TraceRecorder* trace) { trace_ = trace; }

  /// The admission feasibility predicate (Server::can_admit under the
  /// paper's minimum-flow rule; the near-term-need test when buffer-aware).
  bool feasible(const Server& server, Mbps view_bandwidth) const;

 private:
  AdmissionDecision decide_impl(Seconds now, VideoId video, Mbps view_bandwidth,
                                const std::vector<Server>& servers, bool shared) const;

  AdmissionConfig config_;
  const ReplicaDirectory& directory_;
  TraceRecorder* trace_ = nullptr;
  /// Reused across decide() calls; after warmup the admission hot path
  /// performs no heap allocations.
  mutable MigrationSearchScratch search_scratch_;

  /// The last rejection of a video: at which version, at which rate, and
  /// the search nodes it charged.
  struct Rejection {
    std::uint64_t version = kFreshSearch;
    Mbps rate = 0.0;
    int search_nodes = 0;
  };
  /// Indexed by video; sized at the first shared rejection.
  mutable std::vector<Rejection> rejections_;
};

}  // namespace vodsim
