// Cross-module integration tests: the event queue under reschedule churn,
// and full-engine runs with every extension enabled simultaneously.

#include <gtest/gtest.h>

#include "vodsim/des/event_queue.h"
#include "vodsim/engine/experiment.h"
#include "vodsim/engine/vod_simulation.h"

namespace vodsim {
namespace {

// ---------------------------------------------------------- queue compaction

TEST(EventQueueCompaction, MemoryBoundedUnderRescheduleChurn) {
  // The engine's worst-case pattern: schedule a far-future predicted event,
  // cancel it, schedule a new one — millions of times. With lazy deletion
  // alone the heap would hold every dead entry; compaction must keep it
  // proportional to the live count.
  EventQueue queue;
  EventId pending = kInvalidEventId;
  for (int i = 0; i < 2000000; ++i) {
    queue.cancel(pending);
    pending = queue.schedule(1e9 + i, [](Seconds) {});
  }
  // One live event; the heap may keep a small constant of slack.
  EXPECT_EQ(queue.size(), 1u);
  auto [time, fn] = queue.pop();
  EXPECT_GE(time, 1e9);
  EXPECT_TRUE(queue.empty());
}

TEST(EventQueueCompaction, PreservesOrderAcrossCompactions) {
  EventQueue queue;
  // Interleave keepers with churn that forces compaction.
  std::vector<EventId> churn;
  for (int i = 0; i < 100; ++i) {
    queue.schedule(static_cast<double>(i), [](Seconds) {});
    for (int j = 0; j < 200; ++j) {
      churn.push_back(queue.schedule(1e6 + j, [](Seconds) {}));
    }
    for (EventId id : churn) queue.cancel(id);
    churn.clear();
  }
  Seconds last = -1.0;
  int fired = 0;
  while (!queue.empty()) {
    auto [time, fn] = queue.pop();
    EXPECT_GE(time, last);
    last = time;
    ++fired;
  }
  EXPECT_EQ(fired, 100);
}

// ---------------------------------------------------------- kitchen sink

/// Every subsystem at once: staging + migration (with switch latency) +
/// replication + failures + drift + interactivity on a heterogeneous
/// cluster. The run must complete, conserve accounting identities, and
/// stay within physical bounds.
TEST(Integration, AllExtensionsTogether) {
  SimulationConfig config;
  config.system = SystemConfig::small_system();
  config.system.bandwidth_profile = {0.8, 0.9, 1.0, 1.1, 1.2};
  config.system.storage_profile = {1.2, 1.1, 1.0, 0.9, 0.8};
  config.zipf_theta = 0.0;
  config.duration = hours(12);
  config.warmup = hours(1);
  config.seed = 77;
  config.client.staging_fraction = 0.2;
  config.client.receive_bandwidth = 30.0;
  config.placement.kind = PlacementKind::kPartialPredictive;
  config.admission.migration.enabled = true;
  config.admission.migration.max_hops_per_request = 2;
  config.admission.migration.switch_latency = 2.0;
  config.replication.enabled = true;
  config.replication.rejection_threshold = 4;
  config.replication.window = 1800.0;
  config.failure.enabled = true;
  config.failure.mean_time_between_failures = hours(30);
  config.failure.mean_time_to_repair = hours(0.5);
  config.drift.enabled = true;
  config.drift.period = hours(3);
  config.drift.step = 30;
  config.interactivity.enabled = true;
  config.interactivity.pauses_per_hour = 2.0;
  config.interactivity.mean_pause_duration = 120.0;

  VodSimulation simulation(config);
  const Metrics& metrics = simulation.run();

  EXPECT_GT(metrics.arrivals(), 1000u);
  EXPECT_EQ(metrics.accepts() + metrics.rejects(), metrics.arrivals());
  EXPECT_GT(metrics.utilization(), 0.5);
  EXPECT_LE(metrics.utilization(), 1.0 + 1e-9);

  for (const Server& server : simulation.servers()) {
    EXPECT_LE(server.committed_bandwidth(), server.bandwidth() + 1e-6);
    EXPECT_LE(server.storage_used(), server.storage_capacity() + 1e-6);
  }
  for (const Request& request : simulation.requests()) {
    EXPECT_GE(request.buffer_level(), 0.0);
    EXPECT_LE(request.buffer_level(),
              request.buffer_capacity() + fluid_detail::kLevelTolerance);
    EXPECT_LE(request.hops(), 3);  // 2 admission hops + possibly 1 recovery
  }

  const auto occupancy = simulation.occupancy();
  EXPECT_GT(occupancy.mean_active, 0.0);
  EXPECT_LE(occupancy.min_server_mean, occupancy.max_server_mean);
}

TEST(Integration, AllExtensionsDeterministic) {
  SimulationConfig config;
  config.system = SystemConfig::small_system();
  config.zipf_theta = 0.0;
  config.duration = hours(6);
  config.warmup = hours(1);
  config.seed = 78;
  config.client.staging_fraction = 0.2;
  config.client.receive_bandwidth = 30.0;
  config.admission.migration.enabled = true;
  config.replication.enabled = true;
  config.failure.enabled = true;
  config.failure.mean_time_between_failures = hours(20);
  config.failure.mean_time_to_repair = hours(0.5);
  config.drift.enabled = true;
  config.drift.period = hours(2);
  config.drift.step = 20;
  config.interactivity.enabled = true;

  VodSimulation a(config);
  VodSimulation b(config);
  a.run();
  b.run();
  EXPECT_DOUBLE_EQ(a.metrics().utilization(), b.metrics().utilization());
  EXPECT_EQ(a.metrics().drops(), b.metrics().drops());
  EXPECT_EQ(a.metrics().replications(), b.metrics().replications());
  EXPECT_EQ(a.pauses_started(), b.pauses_started());
  EXPECT_EQ(a.simulator().executed_count(), b.simulator().executed_count());
}

TEST(Integration, SchedulersComposeWithInteractivity) {
  for (SchedulerKind kind :
       {SchedulerKind::kEftf, SchedulerKind::kProportional,
        SchedulerKind::kIntermittent}) {
    SimulationConfig config;
    config.system = SystemConfig::small_system();
    config.zipf_theta = 0.271;
    config.duration = hours(8);
    config.warmup = hours(1);
    config.seed = 79;
    config.client.staging_fraction = 0.2;
    config.client.receive_bandwidth = 30.0;
    config.scheduler = kind;
    config.interactivity.enabled = true;
    config.interactivity.pauses_per_hour = 4.0;
    config.interactivity.mean_pause_duration = 180.0;
    VodSimulation simulation(config);
    const Metrics& metrics = simulation.run();
    EXPECT_GT(metrics.utilization(), 0.7) << to_string(kind);
    EXPECT_EQ(simulation.continuity_violations(), 0u) << to_string(kind);
  }
}

TEST(Integration, PairedSweepAcrossAllPolicies) {
  // One sweep covering all four placements under identical arrivals.
  std::vector<SimulationConfig> configs;
  for (PlacementKind kind : {PlacementKind::kEven, PlacementKind::kPartialPredictive,
                             PlacementKind::kPredictive, PlacementKind::kBsr}) {
    SimulationConfig config;
    config.system = SystemConfig::small_system();
    config.zipf_theta = -0.5;
    config.duration = hours(8);
    config.warmup = hours(1);
    config.placement.kind = kind;
    config.client.staging_fraction = 0.2;
    config.client.receive_bandwidth = 30.0;
    config.admission.migration.enabled = true;
    configs.push_back(config);
  }
  ExperimentRunner runner(2);
  const auto points = runner.run_sweep(configs, 2, 99);
  ASSERT_EQ(points.size(), 4u);
  for (const auto& point : points) {
    EXPECT_EQ(point.trials[0].arrivals, points[0].trials[0].arrivals)
        << "paired seeds must give identical arrival streams";
  }
  // Popularity-aware placements beat even at theta = -0.5.
  EXPECT_GT(points[2].utilization.mean(), points[0].utilization.mean());
  EXPECT_GT(points[1].utilization.mean(), points[0].utilization.mean());
}

}  // namespace
}  // namespace vodsim
