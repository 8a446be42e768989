#include "vodsim/admission/controller.h"

#include <cassert>

namespace vodsim {

ReplicaDirectory::ReplicaDirectory(std::size_t num_videos,
                                   const std::vector<Server>& servers) {
  holders_.assign(num_videos, {});
  for (const Server& server : servers) {
    for (VideoId video : server.replicas()) {
      holders_[static_cast<std::size_t>(video)].push_back(server.id());
    }
  }
}

void ReplicaDirectory::add_holder(VideoId video, ServerId server) {
  auto& list = holders_[static_cast<std::size_t>(video)];
  for (ServerId existing : list) {
    if (existing == server) return;
  }
  list.push_back(server);
  ++version_;
}

AdmissionController::AdmissionController(AdmissionConfig config,
                                         const ReplicaDirectory& directory)
    : config_(config), directory_(directory) {}

bool AdmissionController::feasible(const Server& server,
                                   Mbps view_bandwidth) const {
  if (!config_.buffer_aware) return server.can_admit(view_bandwidth);
  if (!server.serviceable()) return false;
  // Near-term need: streams coasting on more than `horizon` seconds of
  // staged data are ignored (buffer levels are as of each stream's last
  // fluid update — a slightly stale but cheap estimate). The scan walks
  // the server's lane, whose slot order is active order, so the sum is the
  // per-request scan's bit for bit.
  const Mbps need = server.lane().add_near_term_need(
      view_bandwidth + server.reserved_bandwidth(), kNearTermHorizon);
  return need <= server.effective_bandwidth() + 1e-9;
}

std::uint64_t AdmissionController::cluster_version(
    const std::vector<Server>& servers) const {
  std::uint64_t version = kFreshSearch + 1 + directory_.version();
  for (const Server& server : servers) version += server.version();
  return version;
}

AdmissionDecision AdmissionController::decide_impl(
    Seconds now, VideoId video, Mbps view_bandwidth,
    const std::vector<Server>& servers, bool shared) const {
  AdmissionDecision decision;
  const auto index = static_cast<std::size_t>(video);
  const bool trace_search = trace_ != nullptr && trace_->wants(kTraceMigration) &&
                            config_.migration.enabled;
  // A shared decision's cluster version, derived on first use.
  std::uint64_t version = kFreshSearch;
  const auto shared_version = [&] {
    if (shared && version == kFreshSearch) version = cluster_version(servers);
    return version;
  };

  // Step 0: a repeat of a rejection at this version.
  if (shared && index < rejections_.size()) {
    const Rejection& memo = rejections_[index];
    if (memo.version != kFreshSearch && memo.rate == view_bandwidth &&
        memo.version == shared_version()) {
      decision.search_nodes = memo.search_nodes;
      decision.memoized = true;
      if (trace_search) {
        trace_->record(now, TraceEventType::kMigrationSearch, kNoServer, -1, video,
                       static_cast<double>(memo.search_nodes), -1.0);
      }
      return decision;
    }
  }

  // Step 1: direct assignment to the least-loaded feasible replica holder,
  // lowest id on ties.
  std::size_t best_load = 0;
  for (ServerId holder : directory_.holders(video)) {
    const Server& server = servers[static_cast<std::size_t>(holder)];
    if (!feasible(server, view_bandwidth)) continue;
    const std::size_t load = server.active_count();
    if (decision.server == kNoServer || load < best_load ||
        (load == best_load && holder < decision.server)) {
      decision.server = holder;
      best_load = load;
    }
  }
  if (decision.server != kNoServer) {
    decision.accepted = true;
    return decision;
  }

  // Step 2: all holders full — try dynamic request migration.
  auto plan = find_migration_plan(video, view_bandwidth, config_.migration, servers,
                                  directory_.all(), search_scratch_,
                                  shared_version());
  decision.search_nodes = search_scratch_.nodes_explored;
  if (trace_search) {
    trace_->record(now, TraceEventType::kMigrationSearch, kNoServer, -1, video,
                   static_cast<double>(decision.search_nodes),
                   plan ? static_cast<double>(plan->steps.size()) : -1.0);
  }
  if (plan) {
    decision.accepted = true;
    decision.server = plan->admit_on;
    decision.migrations = std::move(plan->steps);
    return decision;
  }

  // Step 3: reject, and remember it for the rest of the version.
  if (shared) {
    if (rejections_.size() <= index) rejections_.resize(directory_.num_videos());
    rejections_[index] =
        Rejection{shared_version(), view_bandwidth, decision.search_nodes};
  }
  return decision;
}

}  // namespace vodsim
