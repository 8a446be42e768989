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
  for (const auto& list : holders_) {
    if (list.empty()) ++orphans_;
  }
}

void ReplicaDirectory::add_holder(VideoId video, ServerId server) {
  auto& list = holders_[static_cast<std::size_t>(video)];
  for (ServerId existing : list) {
    if (existing == server) return;
  }
  if (list.empty() && orphans_ > 0) --orphans_;
  list.push_back(server);
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
      view_bandwidth + server.reserved_bandwidth(), config_.buffer_aware_horizon);
  return need <= server.effective_bandwidth() + 1e-9;
}

AdmissionDecision AdmissionController::decide(Seconds now, VideoId video,
                                              Mbps view_bandwidth,
                                              const std::vector<Server>& servers,
                                              Rng& rng) const {
  AdmissionDecision decision;

  // Step 1: direct assignment to a feasible replica holder.
  std::vector<ServerId>& candidates = candidates_scratch_;
  candidates.clear();
  for (ServerId holder : directory_.holders(video)) {
    if (feasible(servers[static_cast<std::size_t>(holder)], view_bandwidth)) {
      candidates.push_back(holder);
    }
  }
  if (!candidates.empty()) {
    decision.accepted = true;
    decision.server = pick_server(config_.assignment, candidates, servers, rng);
    return decision;
  }

  // Step 2: all holders full — try dynamic request migration.
  auto plan = find_migration_plan(video, view_bandwidth, config_.migration, servers,
                                  directory_.all(), search_scratch_);
  if (trace_ != nullptr && trace_->wants(kTraceMigration) &&
      config_.migration.enabled) {
    trace_->record(now, TraceEventType::kMigrationSearch, kNoServer, -1, video,
                   static_cast<double>(search_scratch_.nodes_explored),
                   plan ? static_cast<double>(plan->steps.size()) : -1.0);
  }
  if (plan) {
    decision.accepted = true;
    decision.server = plan->admit_on;
    decision.migrations = std::move(plan->steps);
    return decision;
  }

  // Step 3: reject.
  return decision;
}

}  // namespace vodsim
