// Tests for the minimum-flow bandwidth schedulers: EFTF correctness,
// baselines, and family-wide invariants (parameterized sweeps).

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <memory>
#include <numeric>
#include <stdexcept>

#include "vodsim/cluster/server.h"
#include "vodsim/sched/continuous.h"
#include "vodsim/sched/eftf.h"
#include "vodsim/sched/finish_order.h"
#include "vodsim/sched/intermittent.h"
#include "vodsim/sched/proportional.h"
#include "vodsim/sched/scheduler.h"
#include "vodsim/util/rng.h"

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

/// A server streaming requests with chosen remaining data / buffer levels:
/// the schedulers allocate its active list, as the engine hands it to them.
class Fixture {
 public:
  /// Adds a streaming request with \p remaining Mb left, buffer capacity
  /// \p buffer_cap, current buffer level \p level, receive cap \p receive,
  /// and attaches it to the server.
  Request& add(Megabits remaining, Megabits buffer_cap = 1e9,
               Megabits level = 0.0, Mbps receive = 1e9) {
    // For level == 0 the request is simply brand new with exactly
    // `remaining` megabits to go. A nonzero starting buffer level requires
    // replaying a transmission prefix (inflow = prefix, outflow = view*dt,
    // with dt chosen so the leftover equals `level`).
    const Seconds extra = level > 0.0 ? 1000.0 : 0.0;
    const Seconds duration = remaining / kView + extra;
    auto request = std::make_unique<Request>(
        next_id_++, make_video(0, duration), 0.0, ClientProfile{buffer_cap, receive});
    Request& ref = *request;
    ref.begin_streaming(0.0, 0);
    const Megabits prefix = ref.total_size() - remaining;
    if (prefix > 0.0) {
      const Seconds dt = (prefix - level) / kView;
      EXPECT_GT(dt, 0.0) << "level too large for prefix";
      const Mbps rate = prefix / dt;
      EXPECT_LE(rate, receive + 1e-9) << "fixture rate exceeds receive cap";
      ref.set_allocation(0.0, rate);
      ref.advance(dt);
      ref.set_allocation(dt, 0.0);
      now_ = std::max(now_, dt);
    }
    server_.attach(ref, /*enforce_capacity=*/false);
    requests_.push_back(std::move(request));
    return ref;
  }

  /// Detaches \p request (Server::detach's swap-with-last).
  void detach(Request& request) { server_.detach(request); }

  /// Re-attaches a request of this fixture that detach() took off.
  void attach(Request& request) {
    server_.attach(request, /*enforce_capacity=*/false);
  }

  /// Advances every request to the common decision time.
  void sync() {
    for (Request* request : active()) {
      request->advance(now_);
      request->set_allocation(now_, 0.0);
    }
  }

  Seconds now() const { return now_; }
  const std::vector<Request*>& active() const { return server_.active_requests(); }
  const FluidLane& lane() const { return server_.lane(); }

 private:
  Server server_{0, 1e3, 1e12};  // declared first: requests die before it
  RequestId next_id_ = 1;
  Seconds now_ = 0.0;
  std::vector<std::unique_ptr<Request>> requests_;
};

// ---------------------------------------------------------------- EFTF

TEST(Eftf, MinimumFlowToEveryone) {
  Fixture fx;
  fx.add(1000.0);
  fx.add(2000.0);
  fx.sync();
  FinishTimeScheduler scheduler(/*earliest_first=*/true);
  std::vector<Mbps> rates;
  scheduler.allocate(fx.now(), 6.0, fx.active(), rates);  // no slack
  EXPECT_DOUBLE_EQ(rates[0], kView);
  EXPECT_DOUBLE_EQ(rates[1], kView);
}

TEST(Eftf, SlackGoesToEarliestFinisher) {
  Fixture fx;
  fx.add(2000.0, 1e9, 0.0, 30.0);
  Request& shortest = fx.add(100.0, 1e9, 0.0, 30.0);
  fx.add(1500.0, 1e9, 0.0, 30.0);
  fx.sync();
  FinishTimeScheduler scheduler(/*earliest_first=*/true);
  std::vector<Mbps> rates;
  scheduler.allocate(fx.now(), 100.0, fx.active(), rates);
  // shortest gets boosted to its receive cap (27 extra), remaining slack
  // (100 - 9 - 27 = 64) flows to the next-earliest (1500 Mb), capped at 27,
  // rest to the last.
  EXPECT_DOUBLE_EQ(rates[shortest.active_index], 30.0);
  EXPECT_DOUBLE_EQ(rates[2], 30.0);
  EXPECT_DOUBLE_EQ(rates[0], 30.0);
  const double total = std::accumulate(rates.begin(), rates.end(), 0.0);
  EXPECT_LE(total, 100.0 + 1e-9);
}

TEST(Eftf, UnboundedReceiveTakesAllSlack) {
  Fixture fx;
  Request& a = fx.add(100.0);
  fx.add(5000.0);
  fx.sync();
  FinishTimeScheduler scheduler(/*earliest_first=*/true);
  std::vector<Mbps> rates;
  scheduler.allocate(fx.now(), 100.0, fx.active(), rates);
  EXPECT_DOUBLE_EQ(rates[a.active_index], 100.0 - kView);  // all slack + min
  const double total = std::accumulate(rates.begin(), rates.end(), 0.0);
  EXPECT_NEAR(total, 100.0, 1e-9);
}

TEST(Eftf, FullBufferExcludedFromWorkahead) {
  Fixture fx;
  Request& full = fx.add(100.0, 60.0, 60.0, 30.0);  // buffer at capacity
  Request& open = fx.add(5000.0, 1e9, 0.0, 30.0);
  fx.sync();
  EXPECT_TRUE(full.buffer_full());
  FinishTimeScheduler scheduler(/*earliest_first=*/true);
  std::vector<Mbps> rates;
  scheduler.allocate(fx.now(), 100.0, fx.active(), rates);
  EXPECT_DOUBLE_EQ(rates[full.active_index], kView);
  EXPECT_DOUBLE_EQ(rates[open.active_index], 30.0);
}

TEST(Eftf, ReceiveCapAtViewRateExcluded) {
  Fixture fx;
  Request& capped = fx.add(100.0, 1e9, 0.0, kView);  // cannot exceed view rate
  Request& open = fx.add(5000.0, 1e9, 0.0, 30.0);
  fx.sync();
  FinishTimeScheduler scheduler(/*earliest_first=*/true);
  std::vector<Mbps> rates;
  scheduler.allocate(fx.now(), 50.0, fx.active(), rates);
  EXPECT_DOUBLE_EQ(rates[capped.active_index], kView);
  EXPECT_DOUBLE_EQ(rates[open.active_index], 30.0);
}

TEST(Eftf, EmptyActiveSet) {
  FinishTimeScheduler scheduler(/*earliest_first=*/true);
  std::vector<Request*> active;
  std::vector<Mbps> rates;
  scheduler.allocate(0.0, 100.0, active, rates);
  EXPECT_TRUE(rates.empty());
}

// ---------------------------------------------------------------- baselines

TEST(Continuous, NeverExceedsViewRate) {
  Fixture fx;
  fx.add(100.0);
  fx.add(2000.0);
  fx.sync();
  ContinuousScheduler scheduler;
  std::vector<Mbps> rates;
  scheduler.allocate(fx.now(), 1000.0, fx.active(), rates);
  for (Mbps rate : rates) EXPECT_DOUBLE_EQ(rate, kView);
}

TEST(Lftf, SlackGoesToLatestFinisher) {
  Fixture fx;
  Request& shortest = fx.add(100.0, 1e9, 0.0, 30.0);
  Request& longest = fx.add(5000.0, 1e9, 0.0, 30.0);
  fx.sync();
  FinishTimeScheduler scheduler(/*earliest_first=*/false);
  std::vector<Mbps> rates;
  scheduler.allocate(fx.now(), 33.0, fx.active(), rates);  // slack 27
  EXPECT_DOUBLE_EQ(rates[longest.active_index], 30.0);
  EXPECT_DOUBLE_EQ(rates[shortest.active_index], kView);
}

TEST(Proportional, SplitsSlackEvenly) {
  Fixture fx;
  fx.add(1000.0, 1e9, 0.0, 30.0);
  fx.add(2000.0, 1e9, 0.0, 30.0);
  fx.sync();
  ProportionalShareScheduler scheduler;
  std::vector<Mbps> rates;
  scheduler.allocate(fx.now(), 26.0, fx.active(), rates);  // slack 20
  EXPECT_DOUBLE_EQ(rates[0], 13.0);
  EXPECT_DOUBLE_EQ(rates[1], 13.0);
}

TEST(Proportional, WaterFillingRedistributesCappedSurplus) {
  Fixture fx;
  Request& capped = fx.add(1000.0, 1e9, 0.0, 5.0);   // room for only 2 extra
  Request& open = fx.add(2000.0, 1e9, 0.0, 1000.0);
  fx.sync();
  ProportionalShareScheduler scheduler;
  std::vector<Mbps> rates;
  scheduler.allocate(fx.now(), 106.0, fx.active(), rates);  // slack 100
  EXPECT_DOUBLE_EQ(rates[capped.active_index], 5.0);
  EXPECT_NEAR(rates[open.active_index], 3.0 + 98.0, 1e-9);
  EXPECT_NEAR(std::accumulate(rates.begin(), rates.end(), 0.0), 106.0, 1e-9);
}

// ---------------------------------------------------------------- factory

TEST(SchedulerFactory, RoundTripNames) {
  for (SchedulerKind kind :
       {SchedulerKind::kEftf, SchedulerKind::kContinuous,
        SchedulerKind::kProportional, SchedulerKind::kLftf}) {
    const auto scheduler = make_scheduler(kind);
    EXPECT_EQ(scheduler->name(), to_string(kind));
    EXPECT_EQ(scheduler_kind_from_string(to_string(kind)), kind);
  }
  EXPECT_THROW(scheduler_kind_from_string("nope"), std::invalid_argument);
}

// Every scheduler reads per-stream state from the lane of the server whose
// active list it allocates, so any other vector is refused rather than
// misread: a reordered list, a partial one, and unattached requests.
TEST(SchedulerInput, RejectsAVectorThatIsNotAServersActiveList) {
  Fixture fx;
  for (int i = 0; i < 3; ++i) fx.add(1000.0 * (i + 1), 1e9, 0.0, 30.0);
  fx.sync();
  const std::vector<Request*> reordered(fx.active().rbegin(),
                                        fx.active().rend());
  const std::vector<Request*> partial(fx.active().begin(),
                                      fx.active().end() - 1);
  Request unattached(99, make_video(0, 600.0), 0.0, ClientProfile{1e9, 30.0});
  unattached.begin_streaming(0.0, 0);
  const std::vector<Request*> loose{&unattached};

  for (SchedulerKind kind :
       {SchedulerKind::kEftf, SchedulerKind::kContinuous,
        SchedulerKind::kProportional, SchedulerKind::kLftf,
        SchedulerKind::kIntermittent}) {
    const auto scheduler = make_scheduler(kind);
    std::vector<Mbps> rates;
    EXPECT_NO_THROW(scheduler->allocate(fx.now(), 100.0, fx.active(), rates))
        << scheduler->name();
    EXPECT_THROW(scheduler->allocate(fx.now(), 100.0, reordered, rates),
                 std::invalid_argument)
        << scheduler->name();
    EXPECT_THROW(scheduler->allocate(fx.now(), 100.0, partial, rates),
                 std::invalid_argument)
        << scheduler->name();
    EXPECT_THROW(scheduler->allocate(0.0, 100.0, loose, rates),
                 std::invalid_argument)
        << scheduler->name();
  }
}

// ------------------------------------------------- family-wide invariants

struct SchedulerInvariantCase {
  SchedulerKind kind;
  std::uint64_t seed;
};

class SchedulerInvariants : public ::testing::TestWithParam<SchedulerInvariantCase> {};

TEST_P(SchedulerInvariants, RandomInstancesRespectContracts) {
  const auto param = GetParam();
  const auto scheduler = make_scheduler(param.kind);
  Rng rng(param.seed);

  for (int instance = 0; instance < 50; ++instance) {
    Fixture fx;
    const int n = 1 + static_cast<int>(rng.uniform_int(12));
    for (int i = 0; i < n; ++i) {
      const Megabits remaining = rng.uniform(10.0, 5000.0);
      const Megabits cap = rng.uniform() < 0.3 ? 0.0 : rng.uniform(10.0, 500.0);
      const Megabits level = 0.0;
      const Mbps receive = rng.uniform() < 0.3
                               ? kView
                               : rng.uniform(5.0, 50.0);
      fx.add(remaining, cap, level, receive);
    }
    fx.sync();
    const Mbps capacity = kView * n + rng.uniform(0.0, 100.0);
    std::vector<Mbps> rates;
    scheduler->allocate(fx.now(), capacity, fx.active(), rates);

    ASSERT_EQ(rates.size(), fx.active().size());
    double total = 0.0;
    for (std::size_t i = 0; i < rates.size(); ++i) {
      const Request& request = *fx.active()[i];
      EXPECT_GE(rates[i], request.view_bandwidth() - 1e-9)
          << scheduler->name() << " violated minimum flow";
      EXPECT_LE(rates[i], request.receive_bandwidth() + 1e-9)
          << scheduler->name() << " exceeded receive cap";
      if (request.buffer_full()) {
        EXPECT_DOUBLE_EQ(rates[i], request.view_bandwidth())
            << scheduler->name() << " sent workahead into a full buffer";
      }
      total += rates[i];
    }
    EXPECT_LE(total, capacity + 1e-6)
        << scheduler->name() << " oversubscribed the link";
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllSchedulers, SchedulerInvariants,
    ::testing::Values(SchedulerInvariantCase{SchedulerKind::kEftf, 101},
                      SchedulerInvariantCase{SchedulerKind::kEftf, 102},
                      SchedulerInvariantCase{SchedulerKind::kContinuous, 103},
                      SchedulerInvariantCase{SchedulerKind::kProportional, 104},
                      SchedulerInvariantCase{SchedulerKind::kProportional, 105},
                      SchedulerInvariantCase{SchedulerKind::kLftf, 106}),
    [](const ::testing::TestParamInfo<SchedulerInvariantCase>& info) {
      return to_string(info.param.kind) + "_seed" +
             std::to_string(info.param.seed);
    });

// ---------------------------------------- incremental-order equivalence

// A SchedCache has one user, the intermittent scheduler's workahead phase
// (EFTF and LFTF pick their grants without sorting). Each case checks the
// cache on that scheduler; `kind` names the scheduler whose grants move the
// buffers between rounds, so the cache is exercised on the lane states each
// policy produces (EFTF fills the earliest finishers' buffers, LFTF the
// latest, proportional all evenly, continuous none).
struct CacheEquivalenceCase {
  SchedulerKind kind;
  std::uint64_t seed;
};

class SchedCacheEquivalence
    : public ::testing::TestWithParam<CacheEquivalenceCase> {};

// The per-server SchedCache must be a pure accelerator: under arbitrary
// churn on a real Server (arrivals, Server::detach's swap-with-last moving
// requests between the slots the cache remembers, buffers filling, time
// advancing) a warm cache produces bit-identical rates to the cache-less
// full-sort path. Doubles are compared with EXPECT_EQ on purpose — one ulp
// of drift in any grant breaks the engine's determinism contract.
TEST_P(SchedCacheEquivalence, WarmCacheIsBitIdenticalUnderChurn) {
  const auto param = GetParam();
  const IntermittentScheduler scheduler;
  const auto driver = make_scheduler(param.kind);
  Rng rng(param.seed);

  Fixture fx;
  auto add = [&](Seconds now) {
    const Megabits remaining = rng.uniform(500.0, 5000.0);
    const Megabits buffer_cap = rng.uniform(50.0, 400.0);
    const Mbps receive = rng.uniform(5.0, 40.0);
    fx.add(remaining, buffer_cap, 0.0, receive).advance(now);
  };
  for (int i = 0; i < 10; ++i) add(0.0);
  // Stage data for 10 s at random rates first, so the rounds start from
  // buffers at many levels (under continuous grants they stay there).
  for (Request* request : fx.active()) {
    request->set_allocation(0.0, rng.uniform(kView, request->receive_bandwidth()));
  }

  SchedCache cache;  // persists across rounds, like ServerRecomputeState
  AllocationScratch fresh_scratch;
  AllocationScratch cached_scratch;
  AllocationScratch driver_scratch;
  std::vector<Mbps> fresh_rates;
  std::vector<Mbps> cached_rates;
  std::vector<Mbps> driven_rates;
  Seconds now = 10.0;
  int warm_rounds = 0;
  const std::vector<Request*>& active = fx.active();
  for (Request* request : active) request->advance(now);

  for (int round = 0; round < 40; ++round) {
    now += rng.uniform(0.1, 5.0);
    for (Request* request : active) request->advance(now);

    if (active.size() > 2 && rng.uniform() < 0.3) {
      fx.detach(*active[rng.uniform_int(active.size())]);
    }
    if (rng.uniform() < 0.3) add(now);

    const Mbps capacity =
        kView * static_cast<double>(active.size()) + rng.uniform(5.0, 80.0);
    // Fresh path first, cached second: the first call may settle the
    // urgency latch, but latch transitions are idempotent at fixed buffer
    // state, so the second call sees the same memberships (the engine's
    // recompute memo relies on the same property).
    warm_rounds += !cache.grant_order.empty();
    scheduler.allocate(now, capacity, active, fresh_rates, fresh_scratch);
    scheduler.allocate(now, capacity, active, cached_rates, cached_scratch,
                       &cache);

    ASSERT_EQ(cached_rates.size(), fresh_rates.size());
    for (std::size_t i = 0; i < fresh_rates.size(); ++i) {
      ASSERT_EQ(cached_rates[i], fresh_rates[i])
          << driver->name() << " round " << round << " slot " << i
          << ": cached path diverged";
    }

    driver->allocate(now, capacity, active, driven_rates, driver_scratch);
    for (std::size_t i = 0; i < active.size(); ++i) {
      active[i]->set_allocation(now, driven_rates[i]);
    }
  }
  // The comparison must not be vacuous: a warm cache seeded most passes.
  EXPECT_GT(warm_rounds, 30) << driver->name();
}

// The lane a real Server keeps under churn must hold exactly the state a
// lane built from scratch would: Server::detach's swap-with-last moves slots
// (hot fields, write-through copies and the intermittent urgency latch) and
// the cache remembers them, so every round the churned server allocates with
// its warm cache while a twin server — the same requests, mirrored in
// lock-step as separate objects — is emptied and re-attached in the churned
// server's active order, and allocates cache-less on that fresh lane. The
// two must agree bit for bit, and so must the driving scheduler's grants on
// the two lanes.
TEST_P(SchedCacheEquivalence, LaneBackedCacheIsBitIdenticalUnderChurn) {
  const auto param = GetParam();
  const IntermittentScheduler scheduler;
  const auto driver = make_scheduler(param.kind);
  Rng rng(param.seed);

  Fixture churned;
  Fixture twin;                       // same ids, same states
  std::vector<Request*> twin_of{nullptr};  // indexed by RequestId
  auto add = [&](Seconds now) {
    const Megabits remaining = rng.uniform(500.0, 5000.0);
    const Megabits buffer_cap = rng.uniform(50.0, 400.0);
    const Mbps receive = rng.uniform(5.0, 40.0);
    Request& original = churned.add(remaining, buffer_cap, 0.0, receive);
    Request& copy = twin.add(remaining, buffer_cap, 0.0, receive);
    ASSERT_EQ(original.id(), copy.id());
    ASSERT_EQ(twin_of.size(), original.id());
    twin_of.push_back(&copy);
    original.advance(now);
    copy.advance(now);
  };
  for (int i = 0; i < 10; ++i) add(0.0);
  for (Request* request : churned.active()) {  // staged as above
    const Mbps rate = rng.uniform(kView, request->receive_bandwidth());
    request->set_allocation(0.0, rate);
    twin_of[request->id()]->set_allocation(0.0, rate);
  }

  SchedCache cache;
  AllocationScratch cached_scratch;
  AllocationScratch rebuilt_scratch;
  std::vector<Mbps> cached_rates;
  std::vector<Mbps> rebuilt_rates;
  std::vector<Mbps> driven_rates;
  std::vector<Mbps> driven_rebuilt_rates;
  Seconds now = 10.0;
  int warm_rounds = 0;
  const std::vector<Request*>& active = churned.active();
  for (Request* request : active) {
    request->advance(now);
    twin_of[request->id()]->advance(now);
  }

  for (int round = 0; round < 40; ++round) {
    now += rng.uniform(0.1, 5.0);
    for (Request* request : active) {
      request->advance(now);
      twin_of[request->id()]->advance(now);
    }

    if (active.size() > 2 && rng.uniform() < 0.3) {
      churned.detach(*active[rng.uniform_int(active.size())]);
    }
    if (rng.uniform() < 0.3) add(now);

    // Rebuild the twin's lane from the requests' home state, in the
    // churned server's slot order. Detaching from the back moves no slot.
    while (!twin.active().empty()) twin.detach(*twin.active().back());
    for (const Request* request : active) twin.attach(*twin_of[request->id()]);
    ASSERT_EQ(twin.active().size(), active.size());

    const Mbps capacity =
        kView * static_cast<double>(active.size()) + rng.uniform(5.0, 80.0);
    warm_rounds += !cache.grant_order.empty();
    scheduler.allocate(now, capacity, active, cached_rates, cached_scratch,
                       &cache);
    scheduler.allocate(now, capacity, twin.active(), rebuilt_rates,
                       rebuilt_scratch);
    driver->allocate(now, capacity, active, driven_rates, cached_scratch);
    driver->allocate(now, capacity, twin.active(), driven_rebuilt_rates,
                     rebuilt_scratch);

    ASSERT_EQ(cached_rates.size(), rebuilt_rates.size());
    for (std::size_t i = 0; i < rebuilt_rates.size(); ++i) {
      ASSERT_EQ(cached_rates[i], rebuilt_rates[i])
          << driver->name() << " round " << round << " request "
          << active[i]->id() << ": churned lane diverged from a rebuilt one";
      ASSERT_EQ(active[i]->workahead_urgent(),
                twin.active()[i]->workahead_urgent())
          << driver->name() << " round " << round << " request "
          << active[i]->id() << ": urgency latch diverged";
      ASSERT_EQ(driven_rates[i], driven_rebuilt_rates[i])
          << driver->name() << " round " << round << " request "
          << active[i]->id() << ": driver's grants diverged";
    }

    for (std::size_t i = 0; i < active.size(); ++i) {
      active[i]->set_allocation(now, driven_rates[i]);
      twin.active()[i]->set_allocation(now, driven_rates[i]);
    }
  }
  EXPECT_GT(warm_rounds, 30) << driver->name();
}

INSTANTIATE_TEST_SUITE_P(
    FinishTimeSchedulers, SchedCacheEquivalence,
    ::testing::Values(CacheEquivalenceCase{SchedulerKind::kEftf, 201},
                      CacheEquivalenceCase{SchedulerKind::kEftf, 202},
                      CacheEquivalenceCase{SchedulerKind::kLftf, 203},
                      CacheEquivalenceCase{SchedulerKind::kLftf, 204},
                      CacheEquivalenceCase{SchedulerKind::kIntermittent, 205},
                      CacheEquivalenceCase{SchedulerKind::kIntermittent, 206},
                      CacheEquivalenceCase{SchedulerKind::kProportional, 207},
                      CacheEquivalenceCase{SchedulerKind::kContinuous, 208}),
    [](const ::testing::TestParamInfo<CacheEquivalenceCase>& info) {
      return to_string(info.param.kind) + "_seed" +
             std::to_string(info.param.seed);
    });

// ------------------------------------------------ finish-time grant order

/// The finish-time grant pipeline as it stood when EFTF and LFTF sorted:
/// minimum flow, the workahead-eligible requests, a full std::sort on
/// (projected finish, id) and the greedy pass over the sorted order, copied
/// verbatim from the old sched_detail::distribute_greedy. Every per-stream
/// value comes from the Request accessors, independently of
/// FluidLane::fill_grant_inputs and of the pick loop.
std::vector<Mbps> sorted_pipeline_rates(const Fixture& fx, Mbps capacity,
                                        bool earliest_first) {
  const std::vector<Request*>& active = fx.active();
  std::vector<Mbps> rates(active.size(), 0.0);
  Mbps committed = 0.0;
  for (std::size_t i = 0; i < active.size(); ++i) {
    rates[i] = active[i]->minimum_rate();
    committed += rates[i];
  }
  Mbps slack = capacity > committed ? capacity - committed : 0.0;
  if (slack <= 0.0) return rates;

  std::vector<std::size_t> order;
  std::vector<Seconds> keys(active.size());
  for (std::size_t i = 0; i < active.size(); ++i) {
    const Request& request = *active[i];
    if (!request.buffer_full() &&
        request.receive_bandwidth() > request.view_bandwidth() &&
        !request.finished()) {
      order.push_back(i);
      keys[i] = fx.now() + request.remaining() / request.view_bandwidth();
    }
  }
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    if (keys[a] != keys[b]) {
      return earliest_first ? keys[a] < keys[b] : keys[a] > keys[b];
    }
    return active[a]->id() < active[b]->id();
  });

  for (std::size_t index : order) {
    if (slack <= 0.0) break;
    const Mbps room = active[index]->receive_bandwidth() - rates[index];
    if (room <= 0.0) continue;
    const Mbps grant = std::min(slack, room);
    rates[index] += grant;
    slack -= grant;
  }
  return rates;
}

/// Summed minimum rates and workahead room of \p fx, from the Request
/// accessors, each added in slot order.
std::pair<Mbps, Mbps> committed_and_room(const Fixture& fx) {
  Mbps committed = 0.0;
  Mbps room = 0.0;
  for (const Request* request : fx.active()) {
    committed += request->minimum_rate();
    if (!request->buffer_full() &&
        request->receive_bandwidth() > request->view_bandwidth() &&
        !request->finished()) {
      room += request->receive_bandwidth() - request->view_bandwidth();
    }
  }
  return {committed, room};
}

// EFTF and LFTF skip the finish-time order when the slack covers every
// eligible request's room (sched_detail::grants_are_order_free). Swept
// below, across and above that boundary — with equal sort keys in the mix
// — their rates must equal the always-sorting pipeline, bit for bit.
TEST(GreedyGrants, OrderFreeGrantsMatchSortedPipeline) {
  Rng rng(1802);
  int shortcut_cases = 0;
  for (int instance = 0; instance < 40; ++instance) {
    Fixture fx;
    const int n = 2 + static_cast<int>(rng.uniform_int(30));
    for (int i = 0; i < n; ++i) {
      const bool twin = i > 0 && i % 3 == 0;  // duplicate key, id tie-break
      const Megabits remaining =
          twin ? fx.active().back()->remaining() : rng.uniform(100.0, 3000.0);
      fx.add(remaining, rng.uniform(50.0, 400.0), 0.0, rng.uniform(2.0, 40.0));
    }
    fx.sync();
    const Mbps room = committed_and_room(fx).second;
    const Mbps floor = kView * n;
    const Mbps boundary = room / (1.0 - 1e-9);
    const Mbps slacks[] = {0.5 * room, room, std::nextafter(boundary, 0.0),
                           boundary * (1.0 + 1e-15), 2.0 * room};
    for (const bool earliest_first : {true, false}) {
      const auto scheduler = make_scheduler(earliest_first ? SchedulerKind::kEftf
                                                           : SchedulerKind::kLftf);
      for (const Mbps slack : slacks) {
        const Mbps capacity = floor + slack;
        std::vector<Mbps> actual;
        scheduler->allocate(fx.now(), capacity, fx.active(), actual);
        const std::vector<Mbps> expected =
            sorted_pipeline_rates(fx, capacity, earliest_first);
        ASSERT_EQ(actual.size(), expected.size());
        for (std::size_t i = 0; i < actual.size(); ++i) {
          ASSERT_EQ(actual[i], expected[i])
              << scheduler->name() << " instance " << instance << " slack "
              << slack << " request " << i;
        }
        shortcut_cases +=
            sched_detail::grants_are_order_free(room, capacity - floor);
      }
    }
  }
  EXPECT_GT(shortcut_cases, 100);
}

// EFTF and LFTF grant by repeatedly picking the least order key left
// rather than by sorting. On random servers mixing every kind of slot a
// pick must skip or weigh — paused clients with full buffers (minimum rate
// 0), playing and paused clients with room, receive links at or below the
// view rate, streams with nothing left to send, and twins whose projected
// finishes are equal, placed so that slot order and id order disagree —
// their rates must equal the full-sort pipeline's bit for bit, at zero
// slack, with the slack running out inside every grant and exactly at each
// grant boundary of the sorted order (long prefixes included, which the
// scheduler finishes from a heap), at the room sum, on both sides of the
// order-free margin and far above it.
TEST(GreedyGrants, PickMatchesSortedPipeline) {
  Rng rng(2207);
  int pick_cases = 0;
  int long_prefix_cases = 0;
  int order_free_cases = 0;
  int zero_slack_cases = 0;
  int tied_instances = 0;
  for (int instance = 0; instance < 60; ++instance) {
    Fixture fx;
    const int n = 2 + static_cast<int>(rng.uniform_int(30));
    std::vector<Request*> to_pause;
    for (int i = 0; i < n; ++i) {
      const double draw = rng.uniform();
      if (i > 0 && i % 3 == 0) {
        // A twin of the previous request: the same remaining data and view
        // rate, so the same projected finish.
        const Request& previous = *fx.active().back();
        fx.add(previous.remaining(), previous.buffer_capacity(), 0.0,
               previous.receive_bandwidth());
      } else if (draw < 0.15) {
        // Paused with a full staging buffer: minimum rate 0, no room.
        const Megabits cap = rng.uniform(50.0, 200.0);
        to_pause.push_back(&fx.add(rng.uniform(100.0, 3000.0), cap, cap,
                                   rng.uniform(10.0, 40.0)));
      } else if (draw < 0.25) {
        // Paused with room left: still eligible.
        to_pause.push_back(&fx.add(rng.uniform(100.0, 3000.0), 400.0,
                                   rng.uniform(10.0, 100.0),
                                   rng.uniform(10.0, 40.0)));
      } else if (draw < 0.35) {
        // A receive link at or below the view rate.
        fx.add(rng.uniform(100.0, 3000.0), rng.uniform(50.0, 400.0), 0.0,
               rng.uniform() < 0.5 ? kView : rng.uniform(1.0, kView));
      } else if (draw < 0.45) {
        // Nothing left to send (remaining within tolerance).
        fx.add(5e-7, rng.uniform(200.0, 400.0), rng.uniform(10.0, 100.0),
               rng.uniform(10.0, 40.0));
      } else {
        fx.add(rng.uniform(100.0, 3000.0), rng.uniform(50.0, 400.0), 0.0,
               rng.uniform(2.0, 40.0));
      }
    }
    for (Request* request : to_pause) request->pause_viewing(request->last_update());
    fx.sync();
    // Detach and re-attach about a third of the requests: each moves to
    // the last slot and the last request into its slot, so slot order and
    // id order disagree, twins included.
    for (int k = 0; k < n / 3; ++k) {
      Request& moved = *fx.active()[rng.uniform_int(fx.active().size())];
      fx.detach(moved);
      fx.attach(moved);
    }

    const auto [committed, room] = committed_and_room(fx);
    std::vector<Seconds> finishes;
    for (const Request* request : fx.active()) {
      if (!request->buffer_full() &&
          request->receive_bandwidth() > request->view_bandwidth() &&
          !request->finished()) {
        finishes.push_back(fx.now() +
                           request->remaining() / request->view_bandwidth());
      }
    }
    std::sort(finishes.begin(), finishes.end());
    tied_instances +=
        std::adjacent_find(finishes.begin(), finishes.end()) != finishes.end();

    for (const bool earliest_first : {true, false}) {
      const auto scheduler = make_scheduler(earliest_first ? SchedulerKind::kEftf
                                                           : SchedulerKind::kLftf);
      // Slacks at and inside every grant of the sorted order: the
      // reference at unbounded slack gives each candidate's room, in slot
      // order; sort them into grant order.
      const std::vector<Mbps> unbounded =
          sorted_pipeline_rates(fx, committed + 2.0 * room + 1.0, earliest_first);
      std::vector<std::size_t> order;
      for (std::size_t i = 0; i < unbounded.size(); ++i) {
        if (unbounded[i] > fx.active()[i]->minimum_rate()) order.push_back(i);
      }
      const std::vector<Request*>& active = fx.active();
      std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
        const Seconds fa = fx.now() + active[a]->remaining() / kView;
        const Seconds fb = fx.now() + active[b]->remaining() / kView;
        if (fa != fb) return earliest_first ? fa < fb : fa > fb;
        return active[a]->id() < active[b]->id();
      });
      std::vector<Mbps> slacks = {0.0, room, std::nextafter(room / (1.0 - 1e-9), 0.0),
                                  room / (1.0 - 1e-9) * (1.0 + 1e-15),
                                  2.0 * room};
      Mbps granted = 0.0;
      std::vector<Mbps> grant_starts;  // slack spent before each grant
      for (const std::size_t index : order) {
        const Mbps grant = unbounded[index] - active[index]->minimum_rate();
        grant_starts.push_back(granted);
        slacks.push_back(granted + 0.5 * grant);
        granted += grant;
        slacks.push_back(granted);
      }
      for (const Mbps slack : slacks) {
        const Mbps capacity = committed + slack;
        std::vector<Mbps> actual;
        scheduler->allocate(fx.now(), capacity, fx.active(), actual);
        const std::vector<Mbps> expected =
            sorted_pipeline_rates(fx, capacity, earliest_first);
        ASSERT_EQ(actual.size(), expected.size());
        for (std::size_t i = 0; i < actual.size(); ++i) {
          ASSERT_EQ(actual[i], expected[i])
              << scheduler->name() << " instance " << instance << " slack "
              << slack << " request " << active[i]->id();
        }
        const Mbps left = capacity > committed ? capacity - committed : 0.0;
        if (left <= 0.0) {
          ++zero_slack_cases;
        } else if (sched_detail::grants_are_order_free(room, left)) {
          ++order_free_cases;
        } else {
          ++pick_cases;
          // The first few picks scan the lane and a heap pops the rest:
          // more than eight grants reach the heap.
          const auto grants = std::count_if(
              grant_starts.begin(), grant_starts.end(),
              [left](Mbps start) { return start < left; });
          long_prefix_cases += grants > 8;
        }
      }
    }
  }
  EXPECT_GT(pick_cases, 1000);
  EXPECT_GT(long_prefix_cases, 200);
  EXPECT_GT(order_free_cases, 100);
  EXPECT_GT(zero_slack_cases, 100);
  EXPECT_GT(tied_instances, 10);
}

// EFTF is work-conserving: it leaves slack unused only when every client is
// buffer-full or receive-capped.
TEST(Eftf, WorkConservation) {
  Rng rng(7);
  FinishTimeScheduler scheduler(/*earliest_first=*/true);
  for (int instance = 0; instance < 50; ++instance) {
    Fixture fx;
    const int n = 1 + static_cast<int>(rng.uniform_int(8));
    for (int i = 0; i < n; ++i) {
      fx.add(rng.uniform(100.0, 3000.0), rng.uniform(50.0, 400.0), 0.0,
             rng.uniform(5.0, 40.0));
    }
    fx.sync();
    const Mbps capacity = kView * n + rng.uniform(1.0, 50.0);
    std::vector<Mbps> rates;
    scheduler.allocate(fx.now(), capacity, fx.active(), rates);
    const double total = std::accumulate(rates.begin(), rates.end(), 0.0);
    if (total < capacity - 1e-6) {
      for (std::size_t i = 0; i < rates.size(); ++i) {
        const Request& request = *fx.active()[i];
        const bool saturated = request.buffer_full() ||
                               rates[i] >= request.receive_bandwidth() - 1e-9;
        EXPECT_TRUE(saturated) << "slack left while request " << i
                               << " could absorb more";
      }
    }
  }
}

}  // namespace
}  // namespace vodsim
