#include "vodsim/admission/migration.h"

#include <algorithm>
#include <cassert>
#include <limits>
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
  /// Per server, committed + reserved bandwidth, and the effective
  /// bandwidth plus tolerance (-inf when not serviceable): the admission
  /// test's terms, read once per search.
  const Mbps* claimed;
  const Mbps* limit;
  /// Hypothetical committed-bandwidth deltas from steps already in the plan.
  std::vector<Mbps>& delta;
  /// Victims already chosen (a request moves at most once per plan).
  std::vector<UsedVictim>& used;
  /// Per-depth candidate slot lists (pre-sized to max_chain_length so
  /// references stay valid across recursion).
  std::vector<std::vector<std::uint32_t>>& victims;
  /// Per-server last-level outcomes; valid where their stamp is `stamp`.
  std::vector<LeafOutcome>& leaves;
  std::uint64_t stamp = 0;
  /// A victim must have migrated fewer times than this (INT_MAX when the
  /// hops per request are unlimited).
  int max_hops = 0;
  /// Remaining (victim, target) pairs this search may still examine.
  int budget = 0;
  /// Walks replayed from `leaves` (MigrationSearchScratch::walks_reused).
  int& walks_reused;
};

/// Whether \p server could take \p rate more on top of a hypothetical
/// \p delta: Server::can_admit's arithmetic, in its order, on the search's
/// per-server copies of its terms.
bool admits_with_delta(const SearchContext& ctx, ServerId server, Mbps delta,
                       Mbps rate) {
  const auto i = static_cast<std::size_t>(server);
  return ctx.claimed[i] + delta + rate <= ctx.limit[i];
}

bool hypothetically_admits(const SearchContext& ctx, ServerId server, Mbps rate) {
  return admits_with_delta(ctx, server, ctx.delta[static_cast<std::size_t>(server)],
                           rate);
}

/// The eligible victims on \p server in the strategy's order, as active
/// slots. A victim is eligible when it has hops left and, with a switch
/// latency, staged data covering the pause (level / view rate, in seconds
/// of playback). Every active request is streaming
/// (Server::attach asserts it), so the state needs no test. One branch-free
/// compaction over the lane's traits and fluid state; victims the plan
/// already holds are struck only when one sits on this server, which takes
/// a chain of 3+ cycling back.
const std::vector<std::uint32_t>& ordered_victims(const SearchContext& ctx,
                                                  ServerId server_id, int depth) {
  const Server& server = ctx.servers[static_cast<std::size_t>(server_id)];
  const FluidLane& lane = server.lane();
  const auto n = static_cast<std::uint32_t>(server.active_count());
  std::vector<std::uint32_t>& slots = ctx.victims[static_cast<std::size_t>(depth)];
  slots.resize(n);
  std::uint32_t* out = slots.data();
  std::uint32_t count = 0;
  const int max_hops = ctx.max_hops;
  const Seconds latency = ctx.config.switch_latency;
  if (latency > 0.0) {
    for (std::uint32_t i = 0; i < n; ++i) {
      out[count] = i;
      count += static_cast<std::uint32_t>(
          (lane.traits(i).hops < max_hops) &
          (lane.buffer_level(i) / lane.view_bandwidth(i) >= latency));
    }
  } else {
    for (std::uint32_t i = 0; i < n; ++i) {
      out[count] = i;
      count += static_cast<std::uint32_t>(lane.traits(i).hops < max_hops);
    }
  }
  slots.resize(count);
  for (const UsedVictim& used : ctx.used) {
    if (used.server != server_id) continue;
    const auto it = std::lower_bound(slots.begin(), slots.end(), used.slot);
    if (it != slots.end() && *it == used.slot) slots.erase(it);
  }
  // Ascending key, ties broken by slot (active order): std::stable_sort's
  // order over the active-order list, without its temporary buffer.
  auto by = [&](auto key) {
    std::sort(slots.begin(), slots.end(), [&](std::uint32_t a, std::uint32_t b) {
      const auto ka = key(a);
      const auto kb = key(b);
      return ka < kb || (!(kb < ka) && a < b);
    });
  };
  switch (ctx.config.victim) {
    case VictimStrategy::kFirstFit:
      break;  // active order
    case VictimStrategy::kLeastRemaining:
      by([&](std::uint32_t i) { return lane.remaining(i); });
      break;
    case VictimStrategy::kMostRemaining:
      by([&](std::uint32_t i) { return -lane.remaining(i); });
      break;
    case VictimStrategy::kMostBuffered:
      by([&](std::uint32_t i) { return -lane.buffer_level(i); });
      break;
  }
  return slots;
}

/// Walks the last search level on \p server: its (victim, target) pairs in
/// search order, until a victim that fits its target frees \p rate here.
/// Pure apart from the depth's victim list; the budget is not consulted.
///
/// Every hypothetical delta is zero whenever a level checks a target: a
/// level commits deltas only after its recursion succeeds and undoes them
/// when its own post-commit check fails, so deltas survive only on the way
/// back up a success. Hence the walk depends on the cluster, the rate and
/// the victims already in the plan that sit on this server, and nothing
/// else.
LeafOutcome walk_last_level(const SearchContext& ctx, ServerId server, Mbps rate) {
  const Server& s = ctx.servers[static_cast<std::size_t>(server)];
  const FluidLane& lane = s.lane();
  const Mbps server_delta = ctx.delta[static_cast<std::size_t>(server)];
  LeafOutcome outcome;
  for (std::uint32_t slot :
       ordered_victims(ctx, server, ctx.config.max_chain_length - 1)) {
    const Mbps moved = lane.view_bandwidth(slot);
    for (ServerId target :
         ctx.holders_of[static_cast<std::size_t>(lane.traits(slot).video)]) {
      if (target == server) continue;
      ++outcome.pairs;
      if (hypothetically_admits(ctx, target, moved) &&
          admits_with_delta(ctx, server, server_delta - moved, rate)) {
        outcome.slot = slot;
        outcome.target = target;
        return outcome;
      }
    }
  }
  return outcome;
}

/// The last search level (depth max_chain_length - 1), with no recursion
/// below it. Its walk is computed once per (server, rate) per search stamp
/// and replayed: the budget is charged the pairs the walk examined, exactly
/// as walking them again would, and a success commits the same step. A
/// victim already in the plan that sits on \p server (a chain of 3+ cycling
/// back) changes the candidates, so that walk is computed fresh and not
/// stored.
bool free_room_last_level(SearchContext& ctx, ServerId server, Mbps rate,
                          std::vector<MigrationStep>& plan) {
  const bool cycled = std::any_of(ctx.used.begin(), ctx.used.end(),
                                  [&](const UsedVictim& u) { return u.server == server; });
  LeafOutcome fresh;
  const LeafOutcome* outcome = &fresh;
  if (cycled) {
    fresh = walk_last_level(ctx, server, rate);
  } else {
    LeafOutcome& memo = ctx.leaves[static_cast<std::size_t>(server)];
    if (memo.stamp != ctx.stamp || memo.rate != rate) {
      memo = walk_last_level(ctx, server, rate);
      memo.stamp = ctx.stamp;
      memo.rate = rate;
    } else {
      ++ctx.walks_reused;
    }
    outcome = &memo;
  }
  if (outcome->pairs > ctx.budget) {
    ctx.budget = -1;  // the walk would have run out partway
    return false;
  }
  ctx.budget -= outcome->pairs;
  if (outcome->slot == kNoVictim) return false;
  const Server& s = ctx.servers[static_cast<std::size_t>(server)];
  const Mbps moved = s.lane().view_bandwidth(outcome->slot);
  ctx.used.push_back(UsedVictim{server, outcome->slot});
  plan.push_back(
      MigrationStep{s.active_requests()[outcome->slot], server, outcome->target});
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
  const FluidLane& lane = s.lane();

  for (std::uint32_t slot : ordered_victims(ctx, server, depth)) {
    const Mbps moved = lane.view_bandwidth(slot);
    // Candidate targets: other holders of the victim's video.
    for (ServerId target :
         ctx.holders_of[static_cast<std::size_t>(lane.traits(slot).video)]) {
      if (target == server) continue;
      if (--ctx.budget < 0) return false;
      const std::size_t plan_before = plan.size();
      const std::size_t used_before = ctx.used.size();
      // Claim the victim BEFORE recursing: the recursion may revisit this
      // server (migration cycles are legal) and must not pick the same
      // request twice — a plan may move each request at most once.
      ctx.used.push_back(UsedVictim{server, slot});
      if (hypothetically_admits(ctx, target, moved)) {
        // Direct move.
      } else if (!free_room(ctx, target, moved, plan, depth + 1)) {
        ctx.used.resize(used_before);
        continue;
      }
      // Commit this step on top of whatever the recursion freed.
      plan.push_back(MigrationStep{s.active_requests()[slot], server, target});
      ctx.delta[static_cast<std::size_t>(server)] -= moved;
      ctx.delta[static_cast<std::size_t>(target)] += moved;
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
    MigrationSearchScratch& scratch, std::uint64_t version) {
  scratch.nodes_explored = 0;
  scratch.walks_reused = 0;
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
  // Last-level outcomes are shared across holders, and across searches at
  // one cluster version.
  const std::uint64_t stamp =
      version != kFreshSearch
          ? version
          : (MigrationSearchScratch::kFreshStamp | ++scratch.fresh_searches);
  // The admission test's terms, one dense pair per server: every pair the
  // search examines tests its target, and the Server objects are large.
  scratch.claimed.resize(servers.size());
  scratch.limit.resize(servers.size());
  for (std::size_t i = 0; i < servers.size(); ++i) {
    const Server& s = servers[i];
    scratch.claimed[i] = s.committed_bandwidth() + s.reserved_bandwidth();
    scratch.limit[i] = s.serviceable() ? s.effective_bandwidth() + 1e-9
                                       : -std::numeric_limits<Mbps>::infinity();
  }
  const int max_hops = config.max_hops_per_request >= 0
                           ? config.max_hops_per_request
                           : std::numeric_limits<int>::max();
  for (ServerId holder : holders) {
    if (!servers[static_cast<std::size_t>(holder)].serviceable()) continue;
    scratch.delta.assign(servers.size(), 0.0);
    scratch.used.clear();
    scratch.steps.clear();
    SearchContext ctx{config,         servers,      holders_of,
                      scratch.claimed.data(), scratch.limit.data(),
                      scratch.delta,  scratch.used, scratch.victims,
                      scratch.leaves, stamp,        max_hops,
                      config.max_search_nodes, scratch.walks_reused};
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
