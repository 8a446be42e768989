// Tests for the intermittent scheduler and buffer-aware admission — the
// beyond-minimum-flow extension (paper §3.3 calls the optimal version
// impractical; this is the bounded heuristic).

#include <gtest/gtest.h>

#include <cmath>
#include <memory>
#include <numeric>

#include "vodsim/engine/vod_simulation.h"
#include "vodsim/sched/finish_order.h"
#include "vodsim/sched/intermittent.h"

namespace vodsim {
namespace {

constexpr Mbps kView = 3.0;

Video make_video(VideoId id, Seconds duration) {
  Video video;
  video.id = id;
  video.duration = duration;
  video.view_bandwidth = kView;
  return video;
}

/// Builds a streaming request with a chosen staged level. Every request is
/// advanced over the same 1000-second prefix so they share a decision time
/// with playback still in progress (prefix = level + 1000 s of viewing).
std::unique_ptr<Request> make_request(RequestId id, Megabits remaining,
                                      Megabits level, Megabits cap = 1e9,
                                      Mbps receive = 30.0) {
  constexpr Seconds kPrefixTime = 1000.0;
  const Megabits prefix = level + kView * kPrefixTime;
  auto request = std::make_unique<Request>(
      id, make_video(0, (remaining + prefix) / kView), 0.0,
      ClientProfile{cap, receive});
  request->begin_streaming(0.0, 0);
  const Mbps rate = prefix / kPrefixTime;
  EXPECT_LE(rate, receive + 1e-9) << "fixture prefix exceeds receive cap";
  request->set_allocation(0.0, rate);
  request->advance(kPrefixTime);
  request->set_allocation(kPrefixTime, 0.0);
  return request;
}

/// A server whose streams are attached through Server::attach, so the
/// scheduler sees the server's lane-backed active list, as the engine
/// hands it over. Each stream is built like make_request and shares the
/// decision time.
struct LaneServer {
  Server server{0, 1e6, 1e12};
  std::vector<std::unique_ptr<Request>> owner;
  Seconds now = 0.0;

  Request& add(std::unique_ptr<Request> request) {
    now = std::max(now, request->last_update());
    server.attach(*request, /*enforce_capacity=*/false);
    owner.push_back(std::move(request));
    return *owner.back();
  }

  void sync() {
    for (Request* request : server.active_requests()) {
      request->advance(now);
      request->set_allocation(now, 0.0);
    }
  }

  const std::vector<Request*>& active() const { return server.active_requests(); }
};

TEST(Intermittent, UrgentStreamsFedFirst) {
  LaneServer set;
  Request& starving = set.add(make_request(1, 1000.0, 0.0));      // no cover
  Request& coasting = set.add(make_request(2, 1000.0, 600.0));    // 200 s cover
  set.sync();
  IntermittentScheduler scheduler(10.0);
  std::vector<Mbps> rates;
  scheduler.allocate(set.now, kView, set.active(), rates);  // only 3 Mb/s total
  EXPECT_DOUBLE_EQ(rates[starving.active_index], kView);
  EXPECT_DOUBLE_EQ(rates[coasting.active_index], 0.0);  // starved on purpose
}

TEST(Intermittent, SlackGoesEftfAfterSafety) {
  LaneServer set;
  Request& shortest = set.add(make_request(1, 100.0, 0.0));
  Request& longest = set.add(make_request(2, 5000.0, 0.0));
  set.sync();
  IntermittentScheduler scheduler(10.0);
  std::vector<Mbps> rates;
  scheduler.allocate(set.now, 100.0, set.active(), rates);
  // Both urgent (empty buffers): 3 each; extra goes earliest-finish-first.
  EXPECT_DOUBLE_EQ(rates[shortest.active_index], 30.0);
  EXPECT_DOUBLE_EQ(rates[longest.active_index], 30.0);
  const double total = std::accumulate(rates.begin(), rates.end(), 0.0);
  EXPECT_LE(total, 100.0 + 1e-9);
}

TEST(Intermittent, OvercommittedCrunchRationsProportionally) {
  LaneServer set;
  Request& empty = set.add(make_request(1, 1000.0, 0.0));
  Request& thin = set.add(make_request(2, 1000.0, 6.0));   // 2 s cover
  Request& thick = set.add(make_request(3, 1000.0, 24.0)); // 8 s cover
  set.sync();
  IntermittentScheduler scheduler(10.0);
  std::vector<Mbps> rates;
  // Capacity covers only two of the three urgent drains: the shortfall is
  // shared proportionally (stable membership — all-or-nothing feeding would
  // chatter as near-equal levels leapfrog each other).
  scheduler.allocate(set.now, 2.0 * kView, set.active(), rates);
  EXPECT_DOUBLE_EQ(rates[empty.active_index], 2.0);
  EXPECT_DOUBLE_EQ(rates[thin.active_index], 2.0);
  EXPECT_DOUBLE_EQ(rates[thick.active_index], 2.0);
}

TEST(Intermittent, UrgencyLatchHasHysteresis) {
  LaneServer set;
  // 5 s of cover: below the 10 s threshold -> latches urgent. The client
  // receives 33 Mb/s, the refill rate below.
  Request& request = set.add(make_request(1, 2000.0, 15.0, 1e9, 33.0));
  set.sync();
  IntermittentScheduler scheduler(10.0);
  std::vector<Mbps> rates;
  scheduler.allocate(set.now, 100.0, set.active(), rates);
  EXPECT_TRUE(request.workahead_urgent());
  EXPECT_GE(rates[0], kView);

  // Refill to 15 s of cover (45 Mb): above threshold but below 2x -> the
  // latch holds.
  request.set_allocation(set.now, 33.0);  // +30 net over 1 s
  request.advance(set.now + 1.0);
  request.set_allocation(set.now + 1.0, 0.0);
  scheduler.allocate(set.now + 1.0, 100.0, set.active(), rates);
  EXPECT_TRUE(request.workahead_urgent());

  // Refill past 2x threshold (>= 60 Mb): latch releases.
  request.set_allocation(set.now + 1.0, 33.0);
  request.advance(set.now + 2.0);
  request.set_allocation(set.now + 2.0, 0.0);
  scheduler.allocate(set.now + 2.0, 100.0, set.active(), rates);
  EXPECT_FALSE(request.workahead_urgent());
}

TEST(Intermittent, NeverExceedsCapacityOrReceiveCaps) {
  Rng rng(77);
  IntermittentScheduler scheduler(10.0);
  for (int instance = 0; instance < 40; ++instance) {
    LaneServer set;
    const int n = 1 + static_cast<int>(rng.uniform_int(10));
    for (int i = 0; i < n; ++i) {
      set.add(make_request(i, rng.uniform(50.0, 3000.0),
                           rng.uniform(0.0, 40.0), rng.uniform(50.0, 400.0),
                           rng.uniform(5.0, 40.0)));
    }
    set.sync();
    const Mbps capacity = rng.uniform(1.0, 4.0) * kView * n;
    std::vector<Mbps> rates;
    scheduler.allocate(set.now, capacity, set.active(), rates);
    double total = 0.0;
    for (std::size_t i = 0; i < rates.size(); ++i) {
      EXPECT_GE(rates[i], 0.0);
      EXPECT_LE(rates[i], set.active()[i]->receive_bandwidth() + 1e-9);
      if (set.active()[i]->buffer_full()) {
        EXPECT_LE(rates[i], set.active()[i]->view_bandwidth() + 1e-9);
      }
      total += rates[i];
    }
    EXPECT_LE(total, capacity + 1e-6);
  }
}

// --------------------------------------------- order-free grants and latch

/// Summed workahead room with no urgent stream: what phase 2 would grant
/// if the link were unbounded (min(receive cap, absorption cap) per
/// candidate), computed independently of the scheduler.
Mbps workahead_room(const std::vector<Request*>& active, Seconds now) {
  Mbps sum = 0.0;
  for (const Request* request : active) {
    if (request->buffer_full()) continue;
    const Mbps cap = request->drain_rate(now) + request->buffer_headroom() / 10.0;
    sum += std::min(request->receive_bandwidth(), cap);
  }
  return sum;
}

// The order-free grant rule must be a pure shortcut: with `left` swept
// below, across and above the candidates' summed room — including the
// rule's own margin boundary and streams with equal sort keys — the rates
// are bit-identical to a scheduler that always sorts. A lane order cleared
// before each pass shows which path ran: the sorting path records its grant
// order (FluidLane::grant_order), the shortcut leaves it empty.
TEST(Intermittent, OrderFreeGrantsMatchSortedGrants) {
  Rng rng(1801);
  const IntermittentScheduler shortcut(10.0);
  const IntermittentScheduler sorted(10.0, /*order_free_grants=*/false);
  int shortcut_passes = 0;
  int sorted_passes = 0;
  for (int instance = 0; instance < 60; ++instance) {
    LaneServer lane;
    const int n = 2 + static_cast<int>(rng.uniform_int(40));
    const bool with_urgent = instance % 3 == 0;
    for (int i = 0; i < n; ++i) {
      // Every fourth stream duplicates its predecessor's remaining data and
      // level: equal projected-finish keys, ordered only by id.
      const bool twin = i > 0 && i % 4 == 0;
      const Megabits remaining =
          twin ? lane.owner.back()->remaining() : rng.uniform(50.0, 3000.0);
      const Megabits level =
          twin ? lane.owner.back()->buffer_level()
               : (with_urgent && rng.uniform() < 0.3 ? rng.uniform(0.0, 25.0)
                                                     : rng.uniform(70.0, 300.0));
      lane.add(make_request(i, remaining, level, rng.uniform(320.0, 900.0),
                            rng.uniform(4.0, 40.0)));
    }
    lane.sync();
    const Mbps room = workahead_room(lane.active(), lane.now);
    const Mbps boundary = room / (1.0 - 1e-9);
    const Mbps capacities[] = {
        0.5 * room,
        room * (1.0 - 2e-9),
        room,
        std::nextafter(boundary, 0.0),
        boundary,
        std::nextafter(boundary, 1e300),
        room * (1.0 + 1e-6),
        1.5 * room,
        4.0 * room,
    };
    std::vector<std::uint32_t>& order = lane.server.lane().grant_order();
    for (const Mbps capacity : capacities) {
      std::vector<Mbps> expected;
      std::vector<Mbps> actual;
      AllocationScratch scratch;
      order.clear();
      sorted.allocate(lane.now, capacity, lane.active(), expected, scratch);
      const bool sorted_ran = !order.empty();
      order.clear();
      shortcut.allocate(lane.now, capacity, lane.active(), actual, scratch);
      ASSERT_EQ(actual.size(), expected.size());
      for (std::size_t i = 0; i < actual.size(); ++i) {
        ASSERT_EQ(actual[i], expected[i])
            << "instance " << instance << " capacity " << capacity << " slot " << i;
      }
      if (!sorted_ran) continue;  // phase 2 never ran
      if (order.empty()) {
        ++shortcut_passes;
      } else {
        ++sorted_passes;
      }
    }
    // Without urgent streams, left == capacity: the rule is exact at the
    // margin, so both sides of the boundary are pinned.
    if (!with_urgent) {
      std::vector<Mbps> rates;
      AllocationScratch scratch;
      order.clear();
      shortcut.allocate(lane.now, std::nextafter(boundary, 0.0), lane.active(),
                        rates, scratch);
      EXPECT_FALSE(order.empty()) << "instance " << instance;
      order.clear();
      shortcut.allocate(lane.now, boundary * (1.0 + 1e-15), lane.active(), rates,
                        scratch);
      EXPECT_TRUE(order.empty()) << "instance " << instance;
    }
  }
  EXPECT_GT(shortcut_passes, 100);
  EXPECT_GT(sorted_passes, 100);
}

// The urgency latch is lane state while a stream is attached: it moves
// with Server::detach's swap-with-last, and it survives a detach -> attach
// round trip (a migration), so the hysteresis band holds on the new server.
TEST(Intermittent, UrgencyLatchFollowsTheStreamAcrossLanes) {
  LaneServer source;
  Request& first = source.add(make_request(1, 2000.0, 300.0));
  // 5 s cover; receives 33 Mb/s, the refill rate below.
  Request& middle = source.add(make_request(2, 2000.0, 15.0, 1e9, 33.0));
  Request& last = source.add(make_request(3, 2000.0, 300.0));
  source.sync();
  IntermittentScheduler scheduler(10.0);
  std::vector<Mbps> rates;
  scheduler.allocate(source.now, 100.0, source.active(), rates);
  ASSERT_TRUE(middle.workahead_urgent());
  EXPECT_TRUE(source.server.lane().urgent(middle.active_index));
  EXPECT_FALSE(last.workahead_urgent());

  // remove: the last slot moves into the detached one, latch included.
  last.set_workahead_urgent(true);
  source.server.detach(first);
  ASSERT_EQ(last.active_index, 0u);
  EXPECT_TRUE(source.server.lane().urgent(0));
  EXPECT_TRUE(last.workahead_urgent());
  EXPECT_FALSE(first.workahead_urgent());
  last.set_workahead_urgent(false);

  // Refill the middle stream to 15 s of cover (inside the hysteresis band:
  // still urgent), then move it to another server.
  const Seconds t = source.now;
  middle.set_allocation(t, 33.0);
  middle.advance(t + 1.0);
  middle.set_allocation(t + 1.0, 0.0);
  source.server.detach(middle);
  EXPECT_TRUE(middle.workahead_urgent()) << "detach must copy the latch home";

  // On the new server a stream with an earlier projected finish competes
  // for a link that covers one drain: only the carried latch puts the
  // middle stream first (with the latch lost, its 15 s of cover would read
  // as not urgent and the other stream would win the workahead).
  LaneServer destination;
  Request& other = destination.add(make_request(4, 500.0, 300.0));
  destination.now = t + 1.0;
  destination.sync();
  destination.server.attach(middle, /*enforce_capacity=*/false);
  EXPECT_TRUE(destination.server.lane().urgent(middle.active_index));
  scheduler.allocate(destination.now, kView, destination.active(), rates);
  EXPECT_TRUE(middle.workahead_urgent());
  EXPECT_EQ(rates[middle.active_index], kView);
  EXPECT_EQ(rates[other.active_index], 0.0);
}

TEST(Intermittent, FactoryRoundTrip) {
  EXPECT_EQ(scheduler_kind_from_string("intermittent"),
            SchedulerKind::kIntermittent);
  EXPECT_EQ(make_scheduler(SchedulerKind::kIntermittent)->name(), "intermittent");
}

// ------------------------------------------------------- buffer-aware admission

TEST(BufferAware, RequiresIntermittentScheduler) {
  SimulationConfig config;
  config.system = SystemConfig::small_system();
  config.admission.buffer_aware = true;
  EXPECT_THROW(config.validate(), std::invalid_argument);
  config.scheduler = SchedulerKind::kIntermittent;
  EXPECT_NO_THROW(config.validate());
}

SimulationConfig buffer_aware_config(std::uint64_t seed) {
  SimulationConfig config;
  config.system = SystemConfig::small_system();
  config.zipf_theta = 0.271;
  config.duration = hours(20);
  config.warmup = hours(2);
  config.seed = seed;
  config.client.staging_fraction = 0.2;
  config.client.receive_bandwidth = 30.0;
  config.scheduler = SchedulerKind::kIntermittent;
  config.admission.buffer_aware = true;
  return config;
}

TEST(BufferAware, FeasibilityIgnoresCoastingStreams) {
  // A nominally full server whose streams all coast on fat buffers is
  // feasible under buffer-aware admission, infeasible under minimum flow.
  Video video = make_video(0, 2000.0);
  std::vector<Server> servers;
  servers.emplace_back(0, 3.0 * kView, 1e9);  // room for 3 nominal streams
  ASSERT_TRUE(servers[0].add_replica(video));
  std::vector<std::unique_ptr<Request>> owner;
  for (int i = 0; i < 3; ++i) {
    owner.push_back(make_request(i, 3000.0, /*level=*/600.0));  // 200 s cover
    servers[0].attach(*owner.back());
  }
  ASSERT_FALSE(servers[0].can_admit(kView));  // minimum-flow rule: full

  ReplicaDirectory directory(1, servers);
  AdmissionConfig config;
  config.buffer_aware = true;
  AdmissionController aggressive(config, directory);
  AdmissionConfig conservative_config;
  AdmissionController conservative(conservative_config, directory);

  EXPECT_TRUE(aggressive.feasible(servers[0], kView));
  EXPECT_FALSE(conservative.feasible(servers[0], kView));

  Rng rng(1);
  EXPECT_TRUE(aggressive.decide(0.0, 0, kView, servers, rng).accepted);
  EXPECT_FALSE(conservative.decide(0.0, 0, kView, servers, rng).accepted);
}

TEST(BufferAware, AggressiveAdmissionStillBounded) {
  SimulationConfig aggressive = buffer_aware_config(61);
  VodSimulation simulation(aggressive);
  const Metrics& metrics = simulation.run();
  EXPECT_LE(metrics.utilization(), 1.0 + 1e-9);
  EXPECT_GT(metrics.accepts(), 0u);
}

TEST(BufferAware, IntermittentAloneKeepsContinuity) {
  // The intermittent scheduler under the *paper's* conservative admission:
  // starving buffered streams is safe because commitments fit the link.
  SimulationConfig config = buffer_aware_config(62);
  config.admission.buffer_aware = false;  // conservative admission
  VodSimulation simulation(config);
  simulation.run();
  EXPECT_EQ(simulation.continuity_violations(), 0u);
}

TEST(BufferAware, ViolationsAreCountedNotHidden) {
  // With aggressive admission the engine must run to completion and report
  // any continuity damage honestly (it may be zero on easy seeds; the point
  // is the accounting path works end to end).
  SimulationConfig config = buffer_aware_config(63);
  config.load_factor = 1.3;  // stress it
  VodSimulation simulation(config);
  const Metrics& metrics = simulation.run();
  EXPECT_LE(metrics.utilization(), 1.0 + 1e-9);
  // continuity_violations() covers the whole run; the metric is clipped to
  // the post-warmup window, so it can only be smaller.
  EXPECT_GE(simulation.continuity_violations(), metrics.underflow_events());
  EXPECT_GT(simulation.continuity_violations(), 0u);  // 1.3x load must hurt
}

}  // namespace
}  // namespace vodsim
