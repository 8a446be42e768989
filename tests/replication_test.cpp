// Tests for dynamic replication: trigger logic, source/destination
// selection, concurrency caps, and end-to-end engine behavior.

#include <gtest/gtest.h>

#include "vodsim/engine/vod_simulation.h"
#include "vodsim/replication/replication.h"

namespace vodsim {
namespace {

constexpr Mbps kView = 3.0;

VideoCatalog tiny_catalog(std::size_t n, Seconds duration = 600.0) {
  std::vector<Video> videos;
  for (std::size_t i = 0; i < n; ++i) {
    Video video;
    video.id = static_cast<VideoId>(i);
    video.duration = duration;
    video.view_bandwidth = kView;
    videos.push_back(video);
  }
  return VideoCatalog(std::move(videos));
}

ReplicationConfig config_on(int threshold = 3) {
  ReplicationConfig config;
  config.enabled = true;
  config.rejection_threshold = threshold;
  config.window = 100.0;
  config.transfer_bandwidth = 10.0;
  config.max_concurrent = 2;
  return config;
}

struct TinyWorld {
  VideoCatalog catalog = tiny_catalog(3);
  std::vector<Server> servers;
  ReplicaDirectory directory;

  TinyWorld() {
    servers.emplace_back(0, 100.0, 1e7);
    servers.emplace_back(1, 100.0, 1e7);
    servers.emplace_back(2, 100.0, 1e7);
    EXPECT_TRUE(servers[0].add_replica(catalog[0]));
    EXPECT_TRUE(servers[1].add_replica(catalog[1]));
    EXPECT_TRUE(servers[2].add_replica(catalog[2]));
    directory = ReplicaDirectory(catalog.size(), servers);
  }
};

TEST(Replication, DisabledNeverTriggers) {
  TinyWorld world;
  ReplicationManager manager{ReplicationConfig{}};
  for (int i = 0; i < 10; ++i) {
    EXPECT_FALSE(manager
                     .on_rejection(0, static_cast<Seconds>(i), world.catalog,
                                   world.servers, world.directory)
                     .has_value());
  }
}

TEST(Replication, TriggersAtThresholdWithinWindow) {
  TinyWorld world;
  ReplicationManager manager(config_on(3));
  EXPECT_FALSE(manager.on_rejection(0, 1.0, world.catalog, world.servers,
                                    world.directory));
  EXPECT_FALSE(manager.on_rejection(0, 2.0, world.catalog, world.servers,
                                    world.directory));
  const auto job = manager.on_rejection(0, 3.0, world.catalog, world.servers,
                                        world.directory);
  ASSERT_TRUE(job.has_value());
  EXPECT_EQ(job->video, 0);
  EXPECT_EQ(job->source, 0);  // the only holder
  EXPECT_NE(job->destination, 0);
  EXPECT_DOUBLE_EQ(job->transfer_time, 1800.0 / 10.0);
}

TEST(Replication, WindowExpiryResetsCount) {
  TinyWorld world;
  ReplicationManager manager(config_on(3));
  EXPECT_FALSE(manager.on_rejection(0, 1.0, world.catalog, world.servers,
                                    world.directory));
  EXPECT_FALSE(manager.on_rejection(0, 2.0, world.catalog, world.servers,
                                    world.directory));
  // Third rejection far outside the window: the first two have expired.
  EXPECT_FALSE(manager.on_rejection(0, 500.0, world.catalog, world.servers,
                                    world.directory));
}

TEST(Replication, CountsArePerVideo) {
  TinyWorld world;
  ReplicationManager manager(config_on(2));
  EXPECT_FALSE(manager.on_rejection(0, 1.0, world.catalog, world.servers,
                                    world.directory));
  EXPECT_FALSE(manager.on_rejection(1, 2.0, world.catalog, world.servers,
                                    world.directory));
  // Video 0 again: two rejections of video 0 within the window -> trigger.
  EXPECT_TRUE(manager.on_rejection(0, 3.0, world.catalog, world.servers,
                                   world.directory));
}

TEST(Replication, ConcurrencyCapAndDuplicateSuppression) {
  TinyWorld world;
  ReplicationConfig config = config_on(1);
  config.max_concurrent = 1;
  ReplicationManager manager(config);
  const auto first = manager.on_rejection(0, 1.0, world.catalog, world.servers,
                                          world.directory);
  ASSERT_TRUE(first.has_value());
  manager.on_job_started();
  // Same video again: suppressed (already copying). Different video: blocked
  // by the concurrency cap.
  EXPECT_FALSE(manager.on_rejection(0, 2.0, world.catalog, world.servers,
                                    world.directory));
  EXPECT_FALSE(manager.on_rejection(1, 3.0, world.catalog, world.servers,
                                    world.directory));
  manager.on_job_finished(0);  // frees the one concurrency slot
  EXPECT_TRUE(manager.on_rejection(1, 4.0, world.catalog, world.servers,
                                   world.directory));
}

TEST(Replication, NeedsStorageAtDestination) {
  VideoCatalog catalog = tiny_catalog(2);
  std::vector<Server> servers;
  servers.emplace_back(0, 100.0, 1e7);
  servers.emplace_back(1, 100.0, 100.0);  // too small for a 1800 Mb object
  ASSERT_TRUE(servers[0].add_replica(catalog[0]));
  const ReplicaDirectory directory(catalog.size(), servers);
  ReplicationManager manager(config_on(1));
  EXPECT_FALSE(manager.on_rejection(0, 1.0, catalog, servers, directory));
}

TEST(Replication, SaturatedSourceFallsBackToTertiary) {
  VideoCatalog catalog = tiny_catalog(2);
  std::vector<Server> servers;
  servers.emplace_back(0, 12.0, 1e7);
  servers.emplace_back(1, 100.0, 1e7);
  ASSERT_TRUE(servers[0].add_replica(catalog[0]));
  servers[0].reserve_bandwidth(5.0);  // slack 7 < transfer 10: no server source
  const ReplicaDirectory directory(catalog.size(), servers);

  ReplicationManager manager(config_on(1));
  const auto job = manager.on_rejection(0, 1.0, catalog, servers, directory);
  ASSERT_TRUE(job.has_value());
  EXPECT_TRUE(job->from_tertiary());
  EXPECT_EQ(job->destination, 1);
}

TEST(Replication, DirectoryAddHolderIdempotent) {
  TinyWorld world;
  world.directory.add_holder(0, 2);
  world.directory.add_holder(0, 2);
  EXPECT_EQ(world.directory.holders(0), (std::vector<ServerId>{0, 2}));
}

// --------------------------------------------------------- end to end

TEST(Replication, EngineCreatesReplicasUnderSkew) {
  SimulationConfig config;
  config.system = SystemConfig::small_system();
  config.zipf_theta = -1.5;  // extreme skew: even placement starves the head
  config.duration = hours(20);
  config.warmup = hours(2);
  config.seed = 5;
  config.replication.enabled = true;
  config.replication.rejection_threshold = 3;
  config.replication.window = 1800.0;
  config.replication.transfer_bandwidth = 20.0;
  config.replication.max_concurrent = 2;

  VodSimulation simulation(config);
  const Metrics& metrics = simulation.run();
  EXPECT_GT(metrics.replications(), 0u);
  // The hottest title gained holders beyond its placed copies.
  EXPECT_GT(simulation.directory().holders(0).size(),
            static_cast<std::size_t>(simulation.placement_result().copies[0]));
  EXPECT_LE(metrics.utilization(), 1.0 + 1e-9);
  EXPECT_EQ(simulation.continuity_violations(), 0u);
}

TEST(Replication, ImprovesUtilizationUnderSkew) {
  SimulationConfig off;
  off.system = SystemConfig::small_system();
  off.zipf_theta = -1.5;
  off.duration = hours(20);
  off.warmup = hours(2);
  off.seed = 6;

  SimulationConfig on = off;
  on.replication.enabled = true;
  on.replication.rejection_threshold = 3;
  on.replication.window = 1800.0;
  on.replication.transfer_bandwidth = 20.0;
  on.replication.max_concurrent = 2;

  VodSimulation without(off);
  VodSimulation with(on);
  const double u_without = without.run().utilization();
  const double u_with = with.run().utilization();
  EXPECT_GT(u_with, u_without + 0.02);
}

}  // namespace
}  // namespace vodsim
