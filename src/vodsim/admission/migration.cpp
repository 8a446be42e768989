#include "vodsim/admission/migration.h"

#include <algorithm>
#include <cassert>
#include <numeric>
#include <stdexcept>

namespace vodsim {

VictimStrategy victim_strategy_from_string(const std::string& name) {
  return enum_from_string<VictimStrategy>(kVictimNames, name, "victim strategy");
}

std::string to_string(VictimStrategy strategy) {
  return enum_to_string(kVictimNames, strategy);
}

namespace {

/// Search context shared across the DFS. The vectors live in the caller's
/// MigrationSearchScratch so repeated searches reuse their capacity.
struct SearchContext {
  const MigrationConfig& config;
  const std::vector<Server>& servers;
  const std::vector<std::vector<ServerId>>& holders_of;
  /// Hypothetical committed-bandwidth deltas from steps already in the plan.
  std::vector<Mbps>& delta;
  /// Requests already chosen as victims (a request moves at most once per
  /// plan).
  std::vector<const Request*>& used;
  /// Per-depth candidate victim lists (pre-sized to max_chain_length so
  /// references stay valid across recursion).
  std::vector<std::vector<Request*>>& victims;
  /// Per-server last-level outcomes of this find_migration_plan call.
  std::vector<LeafOutcome>& leaves;
  std::uint64_t generation = 0;
  /// Remaining (victim, target) pairs this search may still examine.
  int budget = 0;
};

/// Whether \p s could take \p rate more on top of a hypothetical \p delta.
bool admits_with_delta(const Server& s, Mbps delta, Mbps rate) {
  if (!s.serviceable()) return false;
  return s.committed_bandwidth() + s.reserved_bandwidth() + delta + rate <=
         s.effective_bandwidth() + 1e-9;
}

bool hypothetically_admits(const SearchContext& ctx, ServerId server, Mbps rate) {
  return admits_with_delta(ctx.servers[static_cast<std::size_t>(server)],
                           ctx.delta[static_cast<std::size_t>(server)], rate);
}

bool victim_eligible(const SearchContext& ctx, const Request& request) {
  if (request.state() != RequestState::kStreaming) return false;
  if (ctx.config.max_hops_per_request >= 0 &&
      request.hops() >= ctx.config.max_hops_per_request) {
    return false;
  }
  if (ctx.config.switch_latency > 0.0 &&
      request.buffer_cover() <
          ctx.config.switch_latency) {
    return false;
  }
  return std::find(ctx.used.begin(), ctx.used.end(), &request) == ctx.used.end();
}

const std::vector<Request*>& ordered_victims(const SearchContext& ctx,
                                             const Server& server, int depth) {
  std::vector<Request*>& victims = ctx.victims[static_cast<std::size_t>(depth)];
  victims.clear();
  for (Request* request : server.active_requests()) {
    if (victim_eligible(ctx, *request)) victims.push_back(request);
  }
  // Stable in active order: the list is a subsequence of the active list,
  // so ties broken by active_index give std::stable_sort's order without
  // its temporary buffer.
  auto by = [&](auto key) {
    std::sort(victims.begin(), victims.end(), [&](Request* a, Request* b) {
      const auto ka = key(*a);
      const auto kb = key(*b);
      return ka < kb || (!(kb < ka) && a->active_index < b->active_index);
    });
  };
  switch (ctx.config.victim) {
    case VictimStrategy::kFirstFit:
      break;  // active order
    case VictimStrategy::kLeastRemaining:
      by([](const Request& r) { return r.remaining(); });
      break;
    case VictimStrategy::kMostRemaining:
      by([](const Request& r) { return -r.remaining(); });
      break;
    case VictimStrategy::kMostBuffered:
      by([](const Request& r) { return -r.buffer_level(); });
      break;
  }
  return victims;
}

/// Walks the last search level on \p server: its (victim, target) pairs in
/// search order, until a victim that fits its target frees \p rate here.
/// Pure apart from the depth's victim list; the budget is not consulted.
///
/// Every hypothetical delta is zero whenever a level checks a target: a
/// level commits deltas only after its recursion succeeds and undoes them
/// when its own post-commit check fails, so deltas survive only on the way
/// back up a success. Hence the walk depends on the server, the rate and
/// the victims already in the plan that sit on this server, and nothing
/// else.
LeafOutcome walk_last_level(const SearchContext& ctx, ServerId server, Mbps rate) {
  const Server& s = ctx.servers[static_cast<std::size_t>(server)];
  const Mbps server_delta = ctx.delta[static_cast<std::size_t>(server)];
  LeafOutcome outcome;
  for (Request* victim :
       ordered_victims(ctx, s, ctx.config.max_chain_length - 1)) {
    const Mbps moved = victim->view_bandwidth();
    for (ServerId target : ctx.holders_of[static_cast<std::size_t>(victim->video_id())]) {
      if (target == server) continue;
      ++outcome.pairs;
      if (hypothetically_admits(ctx, target, moved) &&
          admits_with_delta(s, server_delta - moved, rate)) {
        outcome.victim = victim;
        outcome.target = target;
        return outcome;
      }
    }
  }
  return outcome;
}

/// The last search level (depth max_chain_length - 1), with no recursion
/// below it. Its walk is computed once per (server, rate) per
/// find_migration_plan call and replayed: the budget is charged the pairs
/// the walk examined, exactly as walking them again would, and a success
/// commits the same step. A victim already in the plan that sits on
/// \p server (a chain of 3+ cycling back) changes the candidates, so that
/// walk is computed fresh and not stored.
bool free_room_last_level(SearchContext& ctx, ServerId server, Mbps rate,
                          std::vector<MigrationStep>& plan) {
  const bool cycled = std::any_of(ctx.used.begin(), ctx.used.end(),
                                  [&](const Request* r) { return r->server() == server; });
  LeafOutcome fresh;
  const LeafOutcome* outcome = &fresh;
  if (cycled) {
    fresh = walk_last_level(ctx, server, rate);
  } else {
    LeafOutcome& memo = ctx.leaves[static_cast<std::size_t>(server)];
    if (memo.generation != ctx.generation || memo.rate != rate) {
      memo = walk_last_level(ctx, server, rate);
      memo.generation = ctx.generation;
      memo.rate = rate;
    }
    outcome = &memo;
  }
  if (outcome->pairs > ctx.budget) {
    ctx.budget = -1;  // the walk would have run out partway
    return false;
  }
  ctx.budget -= outcome->pairs;
  if (outcome->victim == nullptr) return false;
  const Mbps moved = outcome->victim->view_bandwidth();
  ctx.used.push_back(outcome->victim);
  plan.push_back(MigrationStep{outcome->victim, server, outcome->target});
  ctx.delta[static_cast<std::size_t>(server)] -= moved;
  ctx.delta[static_cast<std::size_t>(outcome->target)] += moved;
  return true;
}

/// Tries to free \p rate Mb/s on \p server by migrating one of its active
/// requests away (possibly recursively freeing room on the target).
/// Appends steps to \p plan in execution order. \p depth counts migrations
/// already in the plan.
bool free_room(SearchContext& ctx, ServerId server, Mbps rate,
               std::vector<MigrationStep>& plan, int depth) {
  if (depth >= ctx.config.max_chain_length) return false;
  if (depth == ctx.config.max_chain_length - 1) {
    return free_room_last_level(ctx, server, rate, plan);
  }
  const Server& s = ctx.servers[static_cast<std::size_t>(server)];

  for (Request* victim : ordered_victims(ctx, s, depth)) {
    // Candidate targets: other holders of the victim's video.
    for (ServerId target : ctx.holders_of[static_cast<std::size_t>(victim->video_id())]) {
      if (target == server) continue;
      if (--ctx.budget < 0) return false;
      const std::size_t plan_before = plan.size();
      const std::size_t used_before = ctx.used.size();
      // Claim the victim BEFORE recursing: the recursion may revisit this
      // server (migration cycles are legal) and must not pick the same
      // request twice — a plan may move each request at most once.
      ctx.used.push_back(victim);
      if (hypothetically_admits(ctx, target, victim->view_bandwidth())) {
        // Direct move.
      } else if (!free_room(ctx, target, victim->view_bandwidth(), plan, depth + 1)) {
        ctx.used.resize(used_before);
        continue;
      }
      // Commit this step on top of whatever the recursion freed.
      plan.push_back(MigrationStep{victim, server, target});
      ctx.delta[static_cast<std::size_t>(server)] -= victim->view_bandwidth();
      ctx.delta[static_cast<std::size_t>(target)] += victim->view_bandwidth();
      if (hypothetically_admits(ctx, server, rate)) return true;
      // Not enough (can only happen with heterogeneous view rates); undo
      // this step and everything the recursion added for it. The loop
      // covers our own step too — it is plan.back() at this point.
      for (std::size_t i = plan_before; i < plan.size(); ++i) {
        ctx.delta[static_cast<std::size_t>(plan[i].from)] +=
            plan[i].request->view_bandwidth();
        ctx.delta[static_cast<std::size_t>(plan[i].to)] -=
            plan[i].request->view_bandwidth();
      }
      plan.resize(plan_before);
      ctx.used.resize(used_before);
    }
  }
  return false;
}

}  // namespace

std::optional<MigrationPlan> find_migration_plan(
    VideoId video, Mbps view_bandwidth, const MigrationConfig& config,
    const std::vector<Server>& servers,
    const std::vector<std::vector<ServerId>>& holders_of,
    MigrationSearchScratch& scratch) {
  scratch.nodes_explored = 0;
  if (!config.enabled || config.max_chain_length <= 0) return std::nullopt;

  // Try holders in least-loaded order: the cheapest slot to free.
  // Insertion sort: stable like std::stable_sort, without its temporary
  // buffer (replica lists are short).
  std::vector<ServerId>& holders = scratch.holders;
  holders = holders_of[static_cast<std::size_t>(video)];
  auto load = [&](ServerId s) {
    return servers[static_cast<std::size_t>(s)].active_count();
  };
  for (std::size_t i = 1; i < holders.size(); ++i) {
    const ServerId holder = holders[i];
    std::size_t j = i;
    for (; j > 0 && load(holder) < load(holders[j - 1]); --j) holders[j] = holders[j - 1];
    holders[j] = holder;
  }

  if (scratch.victims.size() < static_cast<std::size_t>(config.max_chain_length)) {
    scratch.victims.resize(static_cast<std::size_t>(config.max_chain_length));
  }
  if (scratch.leaves.size() < servers.size()) scratch.leaves.resize(servers.size());
  ++scratch.generation;  // last-level outcomes are shared across holders
  for (ServerId holder : holders) {
    if (!servers[static_cast<std::size_t>(holder)].serviceable()) continue;
    scratch.delta.assign(servers.size(), 0.0);
    scratch.used.clear();
    scratch.steps.clear();
    SearchContext ctx{config,         servers,      holders_of,
                      scratch.delta,  scratch.used, scratch.victims,
                      scratch.leaves, scratch.generation,
                      config.max_search_nodes};
    const bool found = free_room(ctx, holder, view_bandwidth, scratch.steps, 0);
    scratch.nodes_explored += config.max_search_nodes - std::max(ctx.budget, 0);
    if (found) {
      // Copy (not move) the steps so the scratch keeps its capacity.
      return MigrationPlan{scratch.steps, holder};
    }
  }
  return std::nullopt;
}

std::optional<MigrationPlan> find_migration_plan(
    VideoId video, Mbps view_bandwidth, const MigrationConfig& config,
    const std::vector<Server>& servers,
    const std::vector<std::vector<ServerId>>& holders_of) {
  MigrationSearchScratch scratch;
  return find_migration_plan(video, view_bandwidth, config, servers, holders_of,
                             scratch);
}

}  // namespace vodsim
