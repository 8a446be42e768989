// Tests for admission control: least-loaded assignment, the replica directory,
// dynamic request migration plans, and the controller's decision logic.

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <optional>
#include <vector>

#include "vodsim/admission/controller.h"
#include "vodsim/admission/migration.h"

namespace vodsim {
namespace {

constexpr Mbps kView = 3.0;

Video make_video(VideoId id, Seconds duration = 600.0, Mbps view_bandwidth = kView) {
  Video video;
  video.id = id;
  video.duration = duration;
  video.view_bandwidth = view_bandwidth;
  return video;
}

/// A small world builder: servers with chosen capacities, replicas, and
/// attached streaming requests.
class World {
 public:
  explicit World(std::vector<Mbps> capacities) {
    for (std::size_t i = 0; i < capacities.size(); ++i) {
      servers_.emplace_back(static_cast<ServerId>(i), capacities[i], 1e12);
    }
  }

  /// Creates \p video (at \p view_bandwidth) and any lower ids not yet
  /// created (at kView) on first use, then places replicas on \p holders.
  void replicate(VideoId video, std::initializer_list<ServerId> holders,
                 Mbps view_bandwidth = kView) {
    while (videos_.size() <= static_cast<std::size_t>(video)) {
      const auto id = static_cast<VideoId>(videos_.size());
      videos_.push_back(
          make_video(id, 600.0, id == video ? view_bandwidth : kView));
    }
    for (ServerId s : holders) {
      ASSERT_TRUE(servers_[static_cast<std::size_t>(s)].add_replica(
          videos_[static_cast<std::size_t>(video)]));
    }
  }

  Request& stream(VideoId video, ServerId server, int hops = 0,
                  Megabits buffer_level = 0.0, Megabits buffer_cap = 1e9) {
    auto request = std::make_unique<Request>(
        next_id_++, videos_[static_cast<std::size_t>(video)], 0.0,
        ClientProfile{buffer_cap, 1e9});
    Request& ref = *request;
    ref.begin_streaming(0.0, server);
    if (buffer_level > 0.0) {
      // Pump the buffer up with a fast prefix.
      const Seconds dt = 1.0;
      ref.set_allocation(0.0, buffer_level + ref.view_bandwidth());
      ref.advance(dt);
      ref.set_allocation(dt, 0.0);
    }
    for (int h = 0; h < hops; ++h) {
      ref.begin_migration(ref.last_update());
      ref.complete_migration(ref.last_update(), server);
    }
    servers_[static_cast<std::size_t>(server)].attach(ref);
    requests_.push_back(std::move(request));
    return ref;
  }

  ReplicaDirectory directory() const {
    return ReplicaDirectory(videos_.size(), servers_);
  }

  std::vector<Server>& servers() { return servers_; }

 private:
  RequestId next_id_ = 1;
  std::vector<Server> servers_;
  std::vector<Video> videos_;
  std::vector<std::unique_ptr<Request>> requests_;
};

// --------------------------------------------------------------- directory

TEST(ReplicaDirectory, MapsVideosToHolders) {
  World world({100.0, 100.0, 100.0});
  world.replicate(0, {0, 2});
  world.replicate(1, {1});
  const ReplicaDirectory directory = world.directory();
  EXPECT_EQ(directory.holders(0), (std::vector<ServerId>{0, 2}));
  EXPECT_EQ(directory.holders(1), (std::vector<ServerId>{1}));
}

TEST(ReplicaDirectory, CountsOrphans) {
  World world({100.0});
  world.replicate(0, {0});
  world.replicate(1, {});
  const ReplicaDirectory directory = world.directory();
  EXPECT_FALSE(directory.holders(0).empty());
  EXPECT_TRUE(directory.holders(1).empty());  // placed nowhere: an orphan
}

// --------------------------------------------------------------- assignment
// Step 1 of a decision: the feasible holder with the fewest active streams,
// lowest id on ties (the paper's least-loaded rule).

TEST(Assignment, LeastLoadedPicksFewestActive) {
  World world({100.0, 100.0, 100.0});
  world.replicate(0, {0, 1, 2});
  world.stream(0, 0);
  world.stream(0, 0);
  world.stream(0, 1);
  const ReplicaDirectory directory = world.directory();
  const AdmissionController controller(AdmissionConfig{}, directory);
  const auto decision = controller.decide_shared(0.0, 0, kView, world.servers());
  EXPECT_TRUE(decision.accepted);
  EXPECT_EQ(decision.server, 2);
}

TEST(Assignment, LeastLoadedTieBreaksByLowestId) {
  // Server 0 gains its copy after the directory is built, so the holder
  // list runs {1, 0}: the tie goes by id, not by list order.
  World world({100.0, 100.0});
  world.replicate(0, {1});
  ReplicaDirectory directory = world.directory();
  world.replicate(0, {0});
  directory.add_holder(0, 0);
  ASSERT_EQ(directory.holders(0), (std::vector<ServerId>{1, 0}));
  const AdmissionController controller(AdmissionConfig{}, directory);
  EXPECT_EQ(controller.decide_shared(0.0, 0, kView, world.servers()).server, 0);
}

TEST(Assignment, EmptyCandidatesGivesNoServer) {
  // No holder is feasible and migration is off: no server is picked.
  World world({kView, kView});
  world.replicate(0, {0, 1});
  world.stream(0, 0);
  world.stream(0, 1);
  const ReplicaDirectory directory = world.directory();
  const AdmissionController controller(AdmissionConfig{}, directory);
  const auto decision = controller.decide_shared(0.0, 0, kView, world.servers());
  EXPECT_FALSE(decision.accepted);
  EXPECT_EQ(decision.server, kNoServer);
}

// --------------------------------------------------------------- migration

MigrationConfig migration_on(int chain = 1, int hops = 1) {
  MigrationConfig config;
  config.enabled = true;
  config.max_chain_length = chain;
  config.max_hops_per_request = hops;
  return config;
}

TEST(Migration, FindsSingleHopChain) {
  // Server 0 holds videos 0 and 1, capacity for exactly 1 stream and is
  // full with a request for video 1; server 1 also holds video 1 with room.
  // An arrival for video 0 (only on server 0) should trigger: migrate the
  // video-1 stream 0 -> 1, admit on 0.
  World world({kView, kView});
  world.replicate(0, {0});
  world.replicate(1, {0, 1});
  Request& victim = world.stream(1, 0);

  const ReplicaDirectory directory = world.directory();
  const auto plan = find_migration_plan(0, kView, migration_on(), world.servers(),
                                        directory.all());
  ASSERT_TRUE(plan.has_value());
  EXPECT_EQ(plan->admit_on, 0);
  ASSERT_EQ(plan->steps.size(), 1u);
  EXPECT_EQ(plan->steps[0].request, &victim);
  EXPECT_EQ(plan->steps[0].from, 0);
  EXPECT_EQ(plan->steps[0].to, 1);
}

TEST(Migration, DisabledFindsNothing) {
  World world({kView, kView});
  world.replicate(0, {0});
  world.replicate(1, {0, 1});
  world.stream(1, 0);
  MigrationConfig off;
  const ReplicaDirectory directory = world.directory();
  EXPECT_FALSE(find_migration_plan(0, kView, off, world.servers(), directory.all())
                   .has_value());
}

TEST(Migration, RespectsHopsLimit) {
  World world({kView, kView});
  world.replicate(0, {0});
  world.replicate(1, {0, 1});
  world.stream(1, 0, /*hops=*/1);  // already migrated once
  const ReplicaDirectory directory = world.directory();
  EXPECT_FALSE(find_migration_plan(0, kView, migration_on(1, 1), world.servers(),
                                   directory.all())
                   .has_value());
  // Unlimited hops (-1) allows it.
  EXPECT_TRUE(find_migration_plan(0, kView, migration_on(1, -1), world.servers(),
                                  directory.all())
                  .has_value());
}

TEST(Migration, VictimNeedsAnotherHolder) {
  // The only active stream's video exists nowhere else: no plan.
  World world({kView, kView});
  world.replicate(0, {0});
  world.replicate(1, {0});  // video 1 only on server 0
  world.stream(1, 0);
  const ReplicaDirectory directory = world.directory();
  EXPECT_FALSE(find_migration_plan(0, kView, migration_on(), world.servers(),
                                   directory.all())
                   .has_value());
}

TEST(Migration, TargetMustHaveRoom) {
  World world({kView, kView});
  world.replicate(0, {0});
  world.replicate(1, {0, 1});
  world.stream(1, 0);
  world.stream(1, 1);  // target full too
  const ReplicaDirectory directory = world.directory();
  EXPECT_FALSE(find_migration_plan(0, kView, migration_on(1), world.servers(),
                                   directory.all())
                   .has_value());
}

TEST(Migration, ChainLengthTwoFreesTransitively) {
  // s0 full with video-1 stream (video 1 also on s1).
  // s1 full with video-2 stream (video 2 also on s2). s2 empty.
  // Chain: video-2 stream s1->s2, then video-1 stream s0->s1, admit on s0.
  World world({kView, kView, kView});
  world.replicate(0, {0});
  world.replicate(1, {0, 1});
  world.replicate(2, {1, 2});
  Request& first = world.stream(1, 0);
  Request& second = world.stream(2, 1);
  const ReplicaDirectory directory = world.directory();

  EXPECT_FALSE(find_migration_plan(0, kView, migration_on(1, -1), world.servers(),
                                   directory.all())
                   .has_value());

  const auto plan = find_migration_plan(0, kView, migration_on(2, -1),
                                        world.servers(), directory.all());
  ASSERT_TRUE(plan.has_value());
  EXPECT_EQ(plan->admit_on, 0);
  ASSERT_EQ(plan->steps.size(), 2u);
  // Execution order: deepest first.
  EXPECT_EQ(plan->steps[0].request, &second);
  EXPECT_EQ(plan->steps[0].from, 1);
  EXPECT_EQ(plan->steps[0].to, 2);
  EXPECT_EQ(plan->steps[1].request, &first);
  EXPECT_EQ(plan->steps[1].from, 0);
  EXPECT_EQ(plan->steps[1].to, 1);
}

TEST(Migration, CyclicSearchNeverMovesARequestTwice) {
  // Regression: a deep search can revisit the server it is freeing (s0 ->
  // s1 -> s0). The revisit must not select the same victim again; here the
  // only "chain" would move r1 twice, so the search must fail cleanly.
  World world({kView, kView});
  world.replicate(0, {0});
  world.replicate(1, {0, 1});
  world.replicate(2, {1, 0});
  Request& r1 = world.stream(1, 0);
  Request& r2 = world.stream(2, 1);
  (void)r1;
  (void)r2;
  const ReplicaDirectory directory = world.directory();
  const auto plan = find_migration_plan(0, kView, migration_on(3, -1),
                                        world.servers(), directory.all());
  EXPECT_FALSE(plan.has_value());
}

TEST(Migration, SearchBudgetBoundsWork) {
  // With a zero budget nothing can be examined, so even a trivially
  // feasible migration is not found — the knob really is a hard bound.
  World world({kView, kView});
  world.replicate(0, {0});
  world.replicate(1, {0, 1});
  world.stream(1, 0);
  const ReplicaDirectory directory = world.directory();
  MigrationConfig config = migration_on();
  config.max_search_nodes = 0;
  EXPECT_FALSE(
      find_migration_plan(0, kView, config, world.servers(), directory.all())
          .has_value());
  config.max_search_nodes = 1024;
  EXPECT_TRUE(
      find_migration_plan(0, kView, config, world.servers(), directory.all())
          .has_value());
}

TEST(Migration, SwitchLatencyRequiresBufferCover) {
  World world({kView, kView});
  world.replicate(0, {0});
  world.replicate(1, {0, 1});
  world.stream(1, 0, 0, /*buffer_level=*/kView * 2.0);  // 2 s of cover
  const ReplicaDirectory directory = world.directory();

  MigrationConfig config = migration_on();
  config.switch_latency = 5.0;  // needs 5 s of cover: ineligible
  EXPECT_FALSE(
      find_migration_plan(0, kView, config, world.servers(), directory.all())
          .has_value());
  config.switch_latency = 1.0;  // 1 s: eligible
  EXPECT_TRUE(
      find_migration_plan(0, kView, config, world.servers(), directory.all())
          .has_value());
}

TEST(Migration, VictimStrategyOrdersCandidates) {
  // Two victims on s0 with different remaining; both can go to s1.
  World world({2.0 * kView, 2.0 * kView});
  world.replicate(0, {0});
  world.replicate(1, {0, 1});
  world.replicate(2, {0, 1});
  Request& long_one = world.stream(1, 0);  // 600 s video, full remaining
  Request& short_one = world.stream(2, 0);
  short_one.set_allocation(0.0, 30.0);
  short_one.advance(50.0);  // mostly transmitted
  short_one.set_allocation(50.0, 0.0);

  const ReplicaDirectory directory = world.directory();
  // Need to free one slot on s0 for an arrival of video 0 (only on s0, s0
  // has 2 slots both busy).
  MigrationConfig config = migration_on();
  config.victim = VictimStrategy::kLeastRemaining;
  auto plan = find_migration_plan(0, kView, config, world.servers(), directory.all());
  ASSERT_TRUE(plan.has_value());
  EXPECT_EQ(plan->steps[0].request, &short_one);

  config.victim = VictimStrategy::kMostRemaining;
  plan = find_migration_plan(0, kView, config, world.servers(), directory.all());
  ASSERT_TRUE(plan.has_value());
  EXPECT_EQ(plan->steps[0].request, &long_one);
}

TEST(Migration, VictimStrategyNameRoundTrip) {
  for (VictimStrategy strategy :
       {VictimStrategy::kFirstFit, VictimStrategy::kLeastRemaining,
        VictimStrategy::kMostRemaining, VictimStrategy::kMostBuffered}) {
    EXPECT_EQ(victim_strategy_from_string(to_string(strategy)), strategy);
  }
  EXPECT_THROW(victim_strategy_from_string("bogus"), std::invalid_argument);
}

TEST(Migration, UnavailableTargetSkipped) {
  World world({kView, kView});
  world.replicate(0, {0});
  world.replicate(1, {0, 1});
  world.stream(1, 0);
  world.servers()[1].set_available(false);
  const ReplicaDirectory directory = world.directory();
  EXPECT_FALSE(find_migration_plan(0, kView, migration_on(), world.servers(),
                                   directory.all())
                   .has_value());
}

// ------------------------------------------------ migration search oracle
//
// The migration search as a plain depth-limited DFS that walks every
// (victim, target) pair it reaches, last level included — the search before
// its last level was memoized. find_migration_plan must agree with it on
// the plan and on nodes_explored, for every budget.

namespace oracle {

struct Search {
  const MigrationConfig& config;
  const std::vector<Server>& servers;
  const std::vector<std::vector<ServerId>>& holders_of;
  std::vector<Mbps> delta;
  std::vector<const Request*> used;
  int budget = 0;
};

bool admits(const Search& search, ServerId server, Mbps rate) {
  const Server& s = search.servers[static_cast<std::size_t>(server)];
  if (!s.serviceable()) return false;
  return s.committed_bandwidth() + s.reserved_bandwidth() +
             search.delta[static_cast<std::size_t>(server)] + rate <=
         s.effective_bandwidth() + 1e-9;
}

bool eligible(const Search& search, const Request& request) {
  if (request.state() != RequestState::kStreaming) return false;
  if (search.config.max_hops_per_request >= 0 &&
      request.hops() >= search.config.max_hops_per_request) {
    return false;
  }
  if (search.config.switch_latency > 0.0 &&
      request.buffer_level() / request.view_bandwidth() <
          search.config.switch_latency) {
    return false;
  }
  return std::find(search.used.begin(), search.used.end(), &request) ==
         search.used.end();
}

std::vector<Request*> ordered_victims(const Search& search, const Server& server) {
  std::vector<Request*> victims;
  for (Request* request : server.active_requests()) {
    if (eligible(search, *request)) victims.push_back(request);
  }
  auto by = [&](auto key) {
    std::stable_sort(victims.begin(), victims.end(),
                     [&](Request* a, Request* b) { return key(*a) < key(*b); });
  };
  switch (search.config.victim) {
    case VictimStrategy::kFirstFit:
      break;
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

bool free_room(Search& search, ServerId server, Mbps rate,
               std::vector<MigrationStep>& plan, int depth) {
  if (depth >= search.config.max_chain_length) return false;
  const Server& s = search.servers[static_cast<std::size_t>(server)];
  for (Request* victim : ordered_victims(search, s)) {
    for (ServerId target :
         search.holders_of[static_cast<std::size_t>(victim->video_id())]) {
      if (target == server) continue;
      if (--search.budget < 0) return false;
      const std::size_t plan_before = plan.size();
      const std::size_t used_before = search.used.size();
      search.used.push_back(victim);
      if (admits(search, target, victim->view_bandwidth())) {
        // Direct move.
      } else if (!free_room(search, target, victim->view_bandwidth(), plan,
                            depth + 1)) {
        search.used.resize(used_before);
        continue;
      }
      plan.push_back(MigrationStep{victim, server, target});
      search.delta[static_cast<std::size_t>(server)] -= victim->view_bandwidth();
      search.delta[static_cast<std::size_t>(target)] += victim->view_bandwidth();
      if (admits(search, server, rate)) return true;
      for (std::size_t i = plan_before; i < plan.size(); ++i) {
        search.delta[static_cast<std::size_t>(plan[i].from)] +=
            plan[i].request->view_bandwidth();
        search.delta[static_cast<std::size_t>(plan[i].to)] -=
            plan[i].request->view_bandwidth();
      }
      plan.resize(plan_before);
      search.used.resize(used_before);
    }
  }
  return false;
}

struct Result {
  std::optional<MigrationPlan> plan;
  int nodes_explored = 0;
};

Result find_plan(VideoId video, Mbps view_bandwidth, const MigrationConfig& config,
                 const std::vector<Server>& servers,
                 const std::vector<std::vector<ServerId>>& holders_of) {
  Result result;
  if (!config.enabled || config.max_chain_length <= 0) return result;
  std::vector<ServerId> holders = holders_of[static_cast<std::size_t>(video)];
  std::stable_sort(holders.begin(), holders.end(), [&](ServerId a, ServerId b) {
    return servers[static_cast<std::size_t>(a)].active_count() <
           servers[static_cast<std::size_t>(b)].active_count();
  });
  for (ServerId holder : holders) {
    if (!servers[static_cast<std::size_t>(holder)].serviceable()) continue;
    Search search{config, servers, holders_of,
                  std::vector<Mbps>(servers.size(), 0.0), {},
                  config.max_search_nodes};
    std::vector<MigrationStep> steps;
    const bool found = free_room(search, holder, view_bandwidth, steps, 0);
    result.nodes_explored += config.max_search_nodes - std::max(search.budget, 0);
    if (found) {
      result.plan = MigrationPlan{steps, holder};
      return result;
    }
  }
  return result;
}

}  // namespace oracle

/// Runs find_migration_plan through \p scratch and the oracle on the same
/// state; equal plans (admit_on, every step) and equal nodes_explored.
::testing::AssertionResult matches_oracle(
    VideoId video, Mbps rate, const MigrationConfig& config,
    const std::vector<Server>& servers,
    const std::vector<std::vector<ServerId>>& holders_of,
    MigrationSearchScratch& scratch) {
  const oracle::Result expected =
      oracle::find_plan(video, rate, config, servers, holders_of);
  const auto actual =
      find_migration_plan(video, rate, config, servers, holders_of, scratch);
  if (actual.has_value() != expected.plan.has_value()) {
    return ::testing::AssertionFailure()
           << "plan found " << actual.has_value() << ", oracle "
           << expected.plan.has_value();
  }
  if (scratch.nodes_explored != expected.nodes_explored) {
    return ::testing::AssertionFailure()
           << "nodes_explored " << scratch.nodes_explored << ", oracle "
           << expected.nodes_explored;
  }
  if (!actual) return ::testing::AssertionSuccess();
  if (actual->admit_on != expected.plan->admit_on ||
      actual->steps.size() != expected.plan->steps.size()) {
    return ::testing::AssertionFailure()
           << "admit_on " << actual->admit_on << " with " << actual->steps.size()
           << " steps, oracle " << expected.plan->admit_on << " with "
           << expected.plan->steps.size();
  }
  for (std::size_t i = 0; i < actual->steps.size(); ++i) {
    const MigrationStep& a = actual->steps[i];
    const MigrationStep& e = expected.plan->steps[i];
    if (a.request != e.request || a.from != e.from || a.to != e.to) {
      return ::testing::AssertionFailure()
             << "step " << i << ": request " << a.request->id() << " " << a.from
             << "->" << a.to << ", oracle request " << e.request->id() << " "
             << e.from << "->" << e.to;
    }
  }
  return ::testing::AssertionSuccess();
}

TEST(Migration, LastLevelSkipsVictimTooSmallToFreeRoom) {
  // Chain 2 with mixed view rates. s0 (the only holder of video 0) is full
  // with a video-1 stream that can move only to s1. s1 (4.5 Mb/s) is full
  // with a 1.5 Mb/s stream first and a 3 Mb/s stream second, both movable
  // to the empty s2. Moving the small one fits s2 but leaves s1 short of
  // the 3 Mb/s the video-1 stream needs, so that step is undone and the
  // large one moves instead.
  World world({kView, 1.5 * kView, 2.0 * kView});
  world.replicate(0, {0});
  world.replicate(1, {0, 1});
  world.replicate(2, {1, 2}, 0.5 * kView);
  world.replicate(3, {1, 2});
  Request& outer = world.stream(1, 0);
  world.stream(2, 1);
  Request& large = world.stream(3, 1);
  const ReplicaDirectory directory = world.directory();

  MigrationSearchScratch scratch;
  const auto plan = find_migration_plan(0, kView, migration_on(2, -1),
                                        world.servers(), directory.all(), scratch);
  ASSERT_TRUE(plan.has_value());
  EXPECT_EQ(plan->admit_on, 0);
  ASSERT_EQ(plan->steps.size(), 2u);
  EXPECT_EQ(plan->steps[0].request, &large);
  EXPECT_EQ(plan->steps[0].from, 1);
  EXPECT_EQ(plan->steps[0].to, 2);
  EXPECT_EQ(plan->steps[1].request, &outer);
  EXPECT_EQ(scratch.nodes_explored, 3);  // outer->s1, small->s2, large->s2
  EXPECT_TRUE(matches_oracle(0, kView, migration_on(2, -1), world.servers(),
                             directory.all(), scratch));
}

TEST(Migration, ChainThreeCycleThroughHolderIsNotMemoized) {
  // Holders s0 and s1 of video 0, every server full with one stream. From
  // s0 the chain cycles s0 -> s2 -> s0, reaching s0's last level with s0's
  // own stream already in the plan: no candidates there. From s1 the chain
  // s1 -> s3 -> s0 reaches the same last level with that stream eligible
  // again, and must examine its pair (to the full s2). Reusing the first
  // walk for the second would undercount by one pair.
  World world({kView, kView, kView, kView});
  world.replicate(0, {0, 1});
  world.replicate(1, {0, 2});
  world.replicate(2, {2, 0});
  world.replicate(3, {1, 3});
  world.replicate(4, {3, 0});
  world.stream(1, 0);
  world.stream(2, 2);
  world.stream(3, 1);
  world.stream(4, 3);
  const ReplicaDirectory directory = world.directory();

  MigrationSearchScratch scratch;
  EXPECT_FALSE(find_migration_plan(0, kView, migration_on(3, -1), world.servers(),
                                   directory.all(), scratch)
                   .has_value());
  EXPECT_EQ(scratch.nodes_explored, 5);  // 2 pairs from s0, 3 from s1
  EXPECT_TRUE(matches_oracle(0, kView, migration_on(3, -1), world.servers(),
                             directory.all(), scratch));
}

/// A random cluster for the differential test: two to six servers, view
/// rates from {1.5, 3, 4.5} (or all 3), one to three holders per video,
/// servers mostly filled to capacity, and some servers down, partitioned,
/// browned out or holding a migration reservation.
class RandomCluster {
 public:
  explicit RandomCluster(Rng& rng) {
    static constexpr Mbps kRates[] = {1.5, 3.0, 4.5};
    const std::size_t num_servers = 2 + rng.uniform_int(5);
    const std::size_t num_videos = 2 + rng.uniform_int(8);
    const bool mixed = rng.uniform() < 0.5;
    for (std::size_t v = 0; v < num_videos; ++v) {
      videos_.push_back(make_video(static_cast<VideoId>(v), 600.0,
                                   mixed ? kRates[rng.uniform_int(3)] : kView));
    }
    for (std::size_t s = 0; s < num_servers; ++s) {
      servers_.emplace_back(static_cast<ServerId>(s),
                            1.5 * static_cast<double>(2 + rng.uniform_int(5)), 1e12);
    }
    std::vector<ServerId> order(num_servers);
    for (std::size_t s = 0; s < num_servers; ++s) order[s] = static_cast<ServerId>(s);
    for (const Video& video : videos_) {
      rng.shuffle(order);
      const std::size_t copies = 1 + rng.uniform_int(std::min<std::size_t>(3, num_servers));
      for (std::size_t c = 0; c < copies; ++c) {
        servers_[static_cast<std::size_t>(order[c])].add_replica(video);
      }
    }
    for (Server& server : servers_) {
      if (rng.uniform() < 0.1) server.reserve_bandwidth(1.5);
      fill(server, rng);
      const double u = rng.uniform();
      if (u < 0.06) {
        server.set_available(false);
      } else if (u < 0.12) {
        server.set_reachable(false);
      } else if (u < 0.2) {
        server.set_capacity_factor(0.5 + 0.5 * rng.uniform());
      }
    }
  }

  const std::vector<Server>& servers() const { return servers_; }
  const Video& video(VideoId id) const { return videos_[static_cast<std::size_t>(id)]; }
  std::size_t num_videos() const { return videos_.size(); }
  ReplicaDirectory directory() const { return ReplicaDirectory(videos_.size(), servers_); }

  /// Applies one random change that a search can see, of one of six
  /// kinds: attaches a stream, detaches one, rescales a link, takes a
  /// server down or up, reserves or releases bandwidth, or adds a replica
  /// (registered in \p directory). Returns false when the drawn change
  /// does not apply here (nothing changed), or would detach while
  /// \p may_detach is false.
  bool mutate(Rng& rng, ReplicaDirectory& directory, bool may_detach = true) {
    Server& server = servers_[rng.uniform_int(servers_.size())];
    switch (rng.uniform_int(6)) {
      case 0: {
        if (server.replicas().empty()) return false;
        const std::vector<VideoId>& held = server.replicas();
        const Video& video = videos_[static_cast<std::size_t>(held[rng.uniform_int(held.size())])];
        if (!server.can_admit(video.view_bandwidth)) return false;
        attach_stream(server, video, rng);
        return true;
      }
      case 1: {
        if (!may_detach || server.active_count() == 0) return false;
        server.detach(*server.active_requests()[rng.uniform_int(server.active_count())]);
        return true;
      }
      case 2:
        server.set_capacity_factor(0.5 + 0.5 * rng.uniform());
        return true;
      case 3:
        server.set_available(!server.available());
        return true;
      case 4:
        if (server.slack() >= 1.5) {
          server.reserve_bandwidth(1.5);
        } else if (server.reserved_bandwidth() > 0.0) {
          server.release_reservation(server.reserved_bandwidth());
        } else {
          return false;
        }
        return true;
      default: {
        const Video& video = videos_[rng.uniform_int(videos_.size())];
        if (!server.add_replica(video)) return false;
        directory.add_holder(video.id, server.id());
        return true;
      }
    }
  }

 private:
  /// Attaches streams of held videos until one does not fit (or, one time
  /// in five, stops early).
  void fill(Server& server, Rng& rng) {
    if (server.replicas().empty()) return;
    const bool stop_early = rng.uniform() < 0.2;
    while (!stop_early || rng.uniform() < 0.7) {
      const std::vector<VideoId>& held = server.replicas();
      const Video& video = videos_[static_cast<std::size_t>(held[rng.uniform_int(held.size())])];
      if (!server.can_admit(video.view_bandwidth)) return;
      attach_stream(server, video, rng);
    }
  }

  /// Attaches a stream of \p video with 0-2 hops and 0-6 s of staged cover.
  void attach_stream(Server& server, const Video& video, Rng& rng) {
    auto request =
        std::make_unique<Request>(next_id_++, video, 0.0, ClientProfile{1e9, 1e9});
    Request& ref = *request;
    ref.begin_streaming(0.0, server.id());
    if (rng.uniform() < 0.5) {
      const Megabits level = rng.uniform(0.0, 6.0) * video.view_bandwidth;
      ref.set_allocation(0.0, level + video.view_bandwidth);
      ref.advance(1.0);
      ref.set_allocation(1.0, 0.0);
    }
    for (std::uint64_t h = rng.uniform_int(3); h > 0; --h) {
      ref.begin_migration(ref.last_update());
      ref.complete_migration(ref.last_update(), server.id());
    }
    server.attach(ref);
    requests_.push_back(std::move(request));
  }

  RequestId next_id_ = 1;
  std::vector<Video> videos_;
  std::vector<Server> servers_;
  std::vector<std::unique_ptr<Request>> requests_;
};

TEST(Migration, MatchesUnmemoizedSearchOnRandomClusters) {
  static constexpr VictimStrategy kVictims[] = {
      VictimStrategy::kFirstFit, VictimStrategy::kLeastRemaining,
      VictimStrategy::kMostRemaining, VictimStrategy::kMostBuffered};
  static constexpr int kHops[] = {-1, 1, 2};
  static constexpr Seconds kSwitch[] = {0.0, 0.0, 1.0, 3.0};
  Rng rng(4242);
  // One scratch for every cluster and query: its per-server memo must never
  // leak from one search (or one cluster size) into the next.
  MigrationSearchScratch scratch;
  int plans_by_chain[4] = {0, 0, 0, 0};
  int truncated = 0;
  for (int trial = 0; trial < 2000; ++trial) {
    const RandomCluster cluster(rng);
    const ReplicaDirectory directory = cluster.directory();
    for (int query = 0; query < 3; ++query) {
      MigrationConfig config;
      config.enabled = true;
      config.max_chain_length = 1 + static_cast<int>(rng.uniform_int(3));
      config.max_hops_per_request = kHops[rng.uniform_int(3)];
      config.victim = kVictims[rng.uniform_int(4)];
      config.switch_latency = kSwitch[rng.uniform_int(4)];
      const auto video = static_cast<VideoId>(rng.uniform_int(cluster.num_videos()));
      const Mbps rate = cluster.video(video).view_bandwidth;

      ASSERT_TRUE(matches_oracle(video, rate, config, cluster.servers(),
                                 directory.all(), scratch))
          << "trial " << trial << " query " << query << " (budget 1024)";
      const int full = scratch.nodes_explored;
      if (full == 0) continue;
      // Every budget up to one past the unbounded search's node count — it
      // includes the exact pair on which a success lands — or a spread of
      // them on larger searches.
      std::vector<int> budgets;
      if (full <= 24) {
        for (int b = 0; b <= full + 1; ++b) budgets.push_back(b);
      } else {
        budgets = {0, 1, full / 2, full - 1, full, full + 1,
                   static_cast<int>(rng.uniform_int(static_cast<std::uint64_t>(full)))};
      }
      for (int budget : budgets) {
        config.max_search_nodes = budget;
        ASSERT_TRUE(matches_oracle(video, rate, config, cluster.servers(),
                                   directory.all(), scratch))
            << "trial " << trial << " query " << query << " budget " << budget;
        truncated += scratch.nodes_explored == budget;
      }
      config.max_search_nodes = 1024;
      plans_by_chain[config.max_chain_length] +=
          find_migration_plan(video, rate, config, cluster.servers(),
                              directory.all(), scratch)
              .has_value();
    }
  }
  // The generator must keep reaching the interesting cases.
  EXPECT_GT(plans_by_chain[1], 100);
  EXPECT_GT(plans_by_chain[2], 100);
  EXPECT_GT(plans_by_chain[3], 100);
  EXPECT_GT(truncated, 1000);
}

/// What run_versioned_decides saw.
struct VersionedRun {
  int mismatches = 0;   ///< decisions or searches that differ from fresh ones
  int memo_hits = 0;    ///< rejections the controller served from its memo
  int walks_reused = 0;  ///< last-level walks the versioned scratch replayed
  int plans = 0;        ///< migration plans found
};

/// Decides random queries on random clusters through a controller's shared
/// decisions (decide_shared) and through fresh ones, and searches through
/// a scratch at the cluster version and through fresh ones, between random
/// mutations of the cluster. The shared searches run at the version the
/// controller derives now, or, with \p stale_searches, at the one it
/// derived before the cluster's first mutation. Counts the queries on which
/// the memoizing side differs from the fresh side: in accepted, server,
/// steps or search nodes.
VersionedRun run_versioned_decides(std::uint64_t seed, bool stale_searches) {
  static constexpr VictimStrategy kVictims[] = {
      VictimStrategy::kFirstFit, VictimStrategy::kLeastRemaining,
      VictimStrategy::kMostRemaining, VictimStrategy::kMostBuffered};
  Rng rng(seed);
  VersionedRun run;
  const auto same_steps = [](const std::vector<MigrationStep>& a,
                             const std::vector<MigrationStep>& b) {
    return std::equal(a.begin(), a.end(), b.begin(), b.end(),
                      [](const MigrationStep& x, const MigrationStep& y) {
                        return x.request == y.request && x.from == y.from &&
                               x.to == y.to;
                      });
  };
  for (int trial = 0; trial < 300; ++trial) {
    RandomCluster cluster(rng);
    ReplicaDirectory directory = cluster.directory();
    AdmissionConfig config;
    config.migration.enabled = true;
    config.migration.max_chain_length = 1 + static_cast<int>(rng.uniform_int(3));
    config.migration.max_hops_per_request = rng.uniform() < 0.5 ? -1 : 2;
    config.migration.victim = kVictims[rng.uniform_int(4)];
    config.migration.switch_latency = rng.uniform() < 0.5 ? 0.0 : 1.0;
    const AdmissionController memoizing(config, directory);
    const AdmissionController fresh(config, directory);
    Rng unused(0);
    // A scratch per cluster, as a controller serves one: derived versions
    // of two clusters may coincide.
    MigrationSearchScratch versioned;
    const std::uint64_t first_version = memoizing.cluster_version(cluster.servers());
    for (int round = 0; round < 6; ++round) {
      const std::uint64_t version =
          stale_searches ? first_version : memoizing.cluster_version(cluster.servers());
      // Titles repeat within a round, as queued retries and popular
      // arrivals do.
      for (int query = 0; query < 8; ++query) {
        const auto video = static_cast<VideoId>(rng.uniform_int(cluster.num_videos()));
        const Mbps rate = cluster.video(video).view_bandwidth;
        const AdmissionDecision actual =
            memoizing.decide_shared(0.0, video, rate, cluster.servers());
        const AdmissionDecision expected =
            fresh.decide(0.0, video, rate, cluster.servers(), unused);
        run.memo_hits += actual.memoized;
        if (actual.accepted != expected.accepted || actual.server != expected.server ||
            actual.search_nodes != expected.search_nodes ||
            !same_steps(actual.migrations, expected.migrations)) {
          ++run.mismatches;
        }
        run.plans += expected.used_migration();

        const auto searched = find_migration_plan(video, rate, config.migration,
                                                  cluster.servers(), directory.all(),
                                                  versioned, version);
        MigrationSearchScratch once;
        const auto reference = find_migration_plan(
            video, rate, config.migration, cluster.servers(), directory.all(), once);
        run.walks_reused += versioned.walks_reused;
        if (searched.has_value() != reference.has_value() ||
            versioned.nodes_explored != once.nodes_explored ||
            (searched && (searched->admit_on != reference->admit_on ||
                          !same_steps(searched->steps, reference->steps)))) {
          ++run.mismatches;
        }
      }
      // A stale memo may name any slot its walk saw, so a mutation a stale
      // search misses must not shrink an active list: that memo would index
      // past it.
      cluster.mutate(rng, directory, /*may_detach=*/!stale_searches);
    }
  }
  return run;
}

// Every shared decision at one cluster version shares the controller's
// memo: a repeated rejection is served from it, and the search replays
// last-level walks computed by earlier decisions. Between mutations of
// every kind the derived version counts (attach, detach, capacity factor,
// availability, reservation, a new replica holder), each decision and each
// search must equal one that starts from nothing.
TEST(Migration, VersionedMemoMatchesFreshDecisions) {
  const VersionedRun run = run_versioned_decides(1803, /*stale_searches=*/false);
  EXPECT_EQ(run.mismatches, 0);
  // The memo must actually be exercised: repeats served, walks replayed.
  EXPECT_GT(run.memo_hits, 1000);
  EXPECT_GT(run.walks_reused, 1000);
  EXPECT_GT(run.plans, 100);
}

// Negative control: the same run with searches at a version derived before
// the mutations must disagree with fresh ones, or the comparison above
// could not catch a mutation the derived version missed.
TEST(Migration, VersionedMemoComparisonCatchesAMissingBump) {
  const VersionedRun run = run_versioned_decides(1803, /*stale_searches=*/true);
  EXPECT_GT(run.mismatches, 0);
}

// The derived cluster version moves with every change the admission search
// reads — attach, detach, reservations, availability, reachability,
// capacity factor, a new replica holder, and a fluid advance over real
// time — and with nothing else: rates, prediction keys, the urgency latch,
// the pause flag and the lane's grant order leave it alone.
TEST(Controller, ClusterVersionMovesWithEveryAdmissionVisibleChange) {
  World world({10.0, 10.0});
  world.replicate(0, {0});
  world.replicate(1, {0});
  Request& streaming = world.stream(0, 0, 0, 3.0, 100.0);
  ReplicaDirectory directory = world.directory();
  const AdmissionController controller(AdmissionConfig{}, directory);
  std::vector<Server>& servers = world.servers();
  Server& server = servers[0];
  std::uint64_t version = controller.cluster_version(servers);
  EXPECT_GT(version, kFreshSearch);
  const auto moved = [&] {
    const std::uint64_t now = controller.cluster_version(servers);
    const bool changed = now != version;
    EXPECT_GT(now, kFreshSearch);
    EXPECT_GE(now, version);
    version = now;
    return changed;
  };

  const Seconds t = streaming.last_update();
  streaming.set_allocation(t, 2.0);
  EXPECT_FALSE(moved()) << "rate";
  server.lane().set_predictions(streaming.active_index,
                                {EventKey{t + 1.0, 1}, kNoEventKey, kNoEventKey});
  server.lane().set_predictions(streaming.active_index, kNoPredictions);
  EXPECT_FALSE(moved()) << "prediction keys";
  streaming.set_workahead_urgent(!streaming.workahead_urgent());
  EXPECT_FALSE(moved()) << "urgency latch";
  server.lane().grant_order().assign({0});
  EXPECT_FALSE(moved()) << "grant order";
  streaming.advance(t);
  EXPECT_FALSE(moved()) << "advance over no time";
  streaming.pause_viewing(t);
  EXPECT_FALSE(moved()) << "pause";
  streaming.advance(t + 1.0);
  EXPECT_TRUE(moved()) << "advance while paused";
  streaming.resume_viewing(t + 1.0);
  EXPECT_FALSE(moved()) << "resume";
  streaming.advance(t + 2.0);
  EXPECT_TRUE(moved()) << "advance";
  Megabits transmitted = 0.0;
  std::vector<Megabits> underflow;
  server.lane().advance_batch(t + 2.0, 0.0, 1e9, transmitted, underflow);
  EXPECT_FALSE(moved()) << "batch advance over no time";
  server.lane().advance_batch(t + 3.0, 0.0, 1e9, transmitted, underflow);
  EXPECT_TRUE(moved()) << "batch advance";

  server.reserve_bandwidth(1.0);
  EXPECT_TRUE(moved()) << "reserve";
  server.release_reservation(1.0);
  EXPECT_TRUE(moved()) << "release";
  servers[1].set_available(false);
  EXPECT_TRUE(moved()) << "down";
  servers[1].set_available(true);
  EXPECT_TRUE(moved()) << "up";
  servers[1].set_reachable(false);
  EXPECT_TRUE(moved()) << "partition";
  servers[1].set_reachable(true);
  EXPECT_TRUE(moved()) << "heal";
  server.set_capacity_factor(0.5);
  EXPECT_TRUE(moved()) << "brownout";
  server.set_capacity_factor(1.0);
  EXPECT_TRUE(moved()) << "brownout end";
  directory.add_holder(0, 1);
  EXPECT_TRUE(moved()) << "new holder";
  directory.add_holder(0, 1);
  EXPECT_FALSE(moved()) << "known holder";
  Request& other = world.stream(1, 0);
  EXPECT_TRUE(moved()) << "attach";
  server.detach(other);
  EXPECT_TRUE(moved()) << "detach";
}

// --------------------------------------------------------------- controller

TEST(Controller, DirectAssignmentPreferred) {
  World world({100.0, 100.0});
  world.replicate(0, {0, 1});
  world.stream(0, 0);
  const ReplicaDirectory directory = world.directory();
  AdmissionConfig config;
  AdmissionController controller(config, directory);
  Rng rng(1);
  const auto decision = controller.decide(0.0, 0, kView, world.servers(), rng);
  EXPECT_TRUE(decision.accepted);
  EXPECT_EQ(decision.server, 1);  // least loaded
  EXPECT_FALSE(decision.used_migration());
}

TEST(Controller, RejectsWhenFullWithoutMigration) {
  World world({kView});
  world.replicate(0, {0});
  world.stream(0, 0);
  const ReplicaDirectory directory = world.directory();
  AdmissionController controller(AdmissionConfig{}, directory);
  Rng rng(1);
  const auto decision = controller.decide(0.0, 0, kView, world.servers(), rng);
  EXPECT_FALSE(decision.accepted);
  EXPECT_EQ(decision.server, kNoServer);
}

TEST(Controller, UsesMigrationWhenEnabled) {
  World world({kView, kView});
  world.replicate(0, {0});
  world.replicate(1, {0, 1});
  world.stream(1, 0);
  const ReplicaDirectory directory = world.directory();
  AdmissionConfig config;
  config.migration = migration_on();
  AdmissionController controller(config, directory);
  Rng rng(1);
  const auto decision = controller.decide(0.0, 0, kView, world.servers(), rng);
  EXPECT_TRUE(decision.accepted);
  EXPECT_TRUE(decision.used_migration());
  EXPECT_EQ(decision.server, 0);
  EXPECT_EQ(decision.migrations.size(), 1u);
}

TEST(Controller, RejectsVideoWithNoReplica) {
  World world({100.0});
  world.replicate(0, {0});
  world.replicate(1, {});  // orphan
  const ReplicaDirectory directory = world.directory();
  AdmissionController controller(AdmissionConfig{}, directory);
  Rng rng(1);
  EXPECT_FALSE(controller.decide(0.0, 1, kView, world.servers(), rng).accepted);
}

// Buffer-aware feasibility sums the near-term need over the server's lane.
// On random servers — view rates drawn so that the sum rounds, buffers
// from empty to twice the near-term horizon of cover, some servers down or
// holding a reservation —
// it must match the per-request scan over the active list it replaced, sum
// bits and verdict alike.
TEST(Controller, BufferAwareLaneScanMatchesRequestScan) {
  Rng rng(1804);
  int feasible = 0;
  int infeasible = 0;
  for (int trial = 0; trial < 400; ++trial) {
    std::vector<Server> servers;
    servers.emplace_back(0, rng.uniform(20.0, 200.0), 1e12);
    Server& server = servers.front();
    if (rng.uniform() < 0.3) server.reserve_bandwidth(rng.uniform(0.0, 10.0));
    if (rng.uniform() < 0.1) server.set_available(false);
    std::vector<std::unique_ptr<Request>> streams;
    const std::size_t n = rng.uniform_int(60);
    for (std::size_t i = 0; i < n; ++i) {
      const Video video = make_video(0, 600.0, rng.uniform(1.0, 5.0));
      streams.push_back(std::make_unique<Request>(static_cast<RequestId>(i), video,
                                                  0.0, ClientProfile{1e9, 1e9}));
      Request& request = *streams.back();
      request.begin_streaming(0.0, 0);
      const Megabits level =
          rng.uniform(0.0, 2.0 * AdmissionController::kNearTermHorizon) *
          video.view_bandwidth;
      request.set_allocation(0.0, level + video.view_bandwidth);
      request.advance(1.0);
      request.set_allocation(1.0, 0.0);
      server.attach(request, /*enforce_capacity=*/false);
    }
    const ReplicaDirectory directory(1, servers);
    AdmissionConfig config;
    config.buffer_aware = true;
    const AdmissionController controller(config, directory);

    const Mbps rate = rng.uniform(1.0, 5.0);
    const Seconds horizon = AdmissionController::kNearTermHorizon;
    Mbps need = rate + server.reserved_bandwidth();
    for (const Request* request : server.active_requests()) {
      if (request->buffer_level() / request->view_bandwidth() < horizon) {
        need += request->view_bandwidth();
      }
    }
    ASSERT_EQ(server.lane().add_near_term_need(rate + server.reserved_bandwidth(),
                                               horizon),
              need)
        << "trial " << trial;
    const bool expected =
        server.serviceable() && need <= server.effective_bandwidth() + 1e-9;
    ASSERT_EQ(controller.feasible(server, rate), expected) << "trial " << trial;
    (expected ? feasible : infeasible) += 1;
  }
  EXPECT_GT(feasible, 50);
  EXPECT_GT(infeasible, 50);
}

}  // namespace
}  // namespace vodsim
