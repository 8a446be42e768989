// Failure-domain topology tests: the server → rack → zone tree, the
// domain-scoped fault schedule phases (rack outages, zone brownouts,
// partitions), partition engine transitions under paranoid audit,
// domain-spread placement anti-affinity, domain-aware repair
// re-replication, and the auditor's reachability invariants.

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <set>
#include <vector>

#include "vodsim/check/invariant_auditor.h"
#include "vodsim/cluster/topology.h"
#include "vodsim/engine/config.h"
#include "vodsim/engine/vod_simulation.h"
#include "vodsim/fault/schedule.h"
#include "vodsim/placement/domain_spread.h"
#include "vodsim/placement/even.h"
#include "vodsim/workload/catalog.h"
#include "vodsim/workload/zipf.h"

namespace vodsim {
namespace {

std::size_t count_events(const TraceRecorder& trace, TraceEventType type,
                         ServerId server = kNoServer) {
  std::size_t n = 0;
  for (const TraceEvent& event : trace.snapshot()) {
    if (event.type != type) continue;
    if (server != kNoServer && event.server != server) continue;
    ++n;
  }
  return n;
}

// ------------------------------------------------------------ the tree

TEST(TopologyMapping, DisabledConfigYieldsTrivialTree) {
  TopologyConfig config;  // enabled = false
  config.racks = 1;
  config.zones = 1;
  Topology topology(config, 6);
  EXPECT_FALSE(topology.enabled());
  EXPECT_EQ(topology.racks(), 1);
  EXPECT_EQ(topology.zones(), 1);
  for (ServerId s = 0; s < 6; ++s) {
    EXPECT_EQ(topology.rack_of(s), 0);
    EXPECT_EQ(topology.zone_of(s), 0);
  }
  EXPECT_EQ(topology.rack_first(0), 0);
  EXPECT_EQ(topology.rack_end(0), 6);
}

TEST(TopologyMapping, BlockFormulaIsContiguousAndNearEven) {
  TopologyConfig config;
  config.enabled = true;
  config.racks = 3;
  config.zones = 2;
  Topology topology(config, 8);  // 8 servers over 3 racks: sizes {2,3,3}

  EXPECT_TRUE(topology.enabled());
  EXPECT_EQ(topology.num_servers(), 8);

  // Racks cover [r*N/R, (r+1)*N/R): contiguous, exhaustive, near-even.
  int covered = 0;
  int min_size = 8, max_size = 0;
  for (int r = 0; r < 3; ++r) {
    EXPECT_EQ(topology.rack_first(r), covered);
    const int size = topology.rack_end(r) - topology.rack_first(r);
    EXPECT_GT(size, 0);
    min_size = std::min(min_size, size);
    max_size = std::max(max_size, size);
    for (ServerId s = topology.rack_first(r); s < topology.rack_end(r); ++s) {
      EXPECT_EQ(topology.rack_of(s), r);
      EXPECT_EQ(topology.zone_of(s), topology.zone_of_rack(r));
    }
    covered += size;
  }
  EXPECT_EQ(covered, 8);
  EXPECT_LE(max_size - min_size, 1);

  // Zones partition the racks with the same block formula
  // (zone_of_rack(r) = r*zones/racks): racks 0,1 → zone 0, rack 2 → zone 1.
  EXPECT_EQ(topology.zone_of_rack(0), 0);
  EXPECT_EQ(topology.zone_of_rack(1), 0);
  EXPECT_EQ(topology.zone_of_rack(2), 1);
  // Each zone's server range is exactly its racks' blocks.
  EXPECT_EQ(topology.zone_first(0), topology.rack_first(0));
  EXPECT_EQ(topology.zone_end(0), topology.rack_end(1));
  EXPECT_EQ(topology.zone_first(1), topology.rack_first(2));
  EXPECT_EQ(topology.zone_end(1), 8);
  for (ServerId s = 0; s < 8; ++s) {
    EXPECT_GE(s, topology.zone_first(topology.zone_of(s)));
    EXPECT_LT(s, topology.zone_end(topology.zone_of(s)));
  }
}

TEST(TopologyMapping, OneRackPerServerIsIdentity) {
  TopologyConfig config;
  config.enabled = true;
  config.racks = 5;
  config.zones = 5;
  Topology topology(config, 5);
  for (ServerId s = 0; s < 5; ++s) {
    EXPECT_EQ(topology.rack_of(s), s);
    EXPECT_EQ(topology.zone_of(s), s);
    EXPECT_EQ(topology.rack_end(s) - topology.rack_first(s), 1);
  }
}

// ----------------------------------------------- domain schedule phases

/// Failure config whose legacy phases draw nothing before any practical
/// horizon, so the schedule is purely the domain phases under test.
FailureConfig domain_only_failure() {
  FailureConfig config;
  config.enabled = true;
  config.mean_time_between_failures = hours(1e9);
  config.mean_time_to_repair = hours(1);
  return config;
}

Topology test_tree(int num_servers, int racks, int zones) {
  TopologyConfig config;
  config.enabled = true;
  config.racks = racks;
  config.zones = zones;
  return Topology(config, num_servers);
}

TEST(DomainSchedule, RackOutageTakesWholeRacksDownTogether) {
  FailureConfig config = domain_only_failure();
  config.domains.rack_outage.enabled = true;
  config.domains.rack_outage.mean_time_between = 400.0;
  config.domains.rack_outage.mean_duration = 60.0;
  const Topology topology = test_tree(6, 3, 1);
  Rng rng(7);
  const auto schedule = generate_fault_schedule(config, topology, 4000.0, rng);
  ASSERT_FALSE(schedule.empty());

  // Group transitions by time: every (time, kind) cohort must be exactly
  // one rack's server block, never a partial rack.
  std::map<std::pair<Seconds, FaultTransitionKind>, std::set<ServerId>> cohorts;
  for (const FaultTransition& t : schedule) {
    ASSERT_TRUE(t.kind == FaultTransitionKind::kDown ||
                t.kind == FaultTransitionKind::kUp);
    cohorts[{t.time, t.kind}].insert(t.server);
  }
  for (const auto& [key, servers] : cohorts) {
    const int rack = topology.rack_of(*servers.begin());
    EXPECT_EQ(static_cast<int>(servers.size()), topology.rack_end(rack) - topology.rack_first(rack))
        << "cohort at t=" << key.first << " is not a whole rack";
    for (ServerId s : servers) EXPECT_EQ(topology.rack_of(s), rack);
  }
}

TEST(DomainSchedule, ZoneBrownoutCarriesFactorAcrossTheZone) {
  FailureConfig config = domain_only_failure();
  config.domains.zone_brownout.enabled = true;
  config.domains.zone_brownout.mean_time_between = 300.0;
  config.domains.zone_brownout.mean_duration = 50.0;
  config.domains.zone_brownout.capacity_factor = 0.4;
  const Topology topology = test_tree(8, 4, 2);
  Rng rng(11);
  const auto schedule = generate_fault_schedule(config, topology, 3000.0, rng);
  ASSERT_FALSE(schedule.empty());

  std::map<Seconds, std::set<ServerId>> begins;
  for (const FaultTransition& t : schedule) {
    ASSERT_TRUE(t.kind == FaultTransitionKind::kBrownoutBegin ||
                t.kind == FaultTransitionKind::kBrownoutEnd);
    if (t.kind == FaultTransitionKind::kBrownoutBegin) {
      EXPECT_DOUBLE_EQ(t.capacity_factor, 0.4);
      begins[t.time].insert(t.server);
    }
  }
  ASSERT_FALSE(begins.empty());
  // Every begin cohort is one whole zone (here: 2 racks = 4 servers).
  for (const auto& [time, servers] : begins) {
    const int zone = topology.zone_of(*servers.begin());
    std::size_t zone_size = 0;
    for (ServerId s = 0; s < topology.num_servers(); ++s) {
      if (topology.zone_of(s) == zone) ++zone_size;
    }
    EXPECT_EQ(servers.size(), zone_size)
        << "brownout cohort at t=" << time << " is not a whole zone";
  }
}

TEST(DomainSchedule, PartitionsPairBeginEndPerRack) {
  FailureConfig config = domain_only_failure();
  config.domains.partition.enabled = true;
  config.domains.partition.mean_time_between = 300.0;
  config.domains.partition.mean_duration = 40.0;
  const Topology topology = test_tree(6, 2, 1);
  Rng rng(3);
  const auto schedule = generate_fault_schedule(config, topology, 3000.0, rng);
  ASSERT_FALSE(schedule.empty());

  // Per server, transitions alternate Begin < End < Begin < ... strictly.
  std::map<ServerId, std::vector<FaultTransition>> by_server;
  for (const FaultTransition& t : schedule) {
    ASSERT_TRUE(t.kind == FaultTransitionKind::kPartitionBegin ||
                t.kind == FaultTransitionKind::kPartitionEnd);
    by_server[t.server].push_back(t);
  }
  for (const auto& [server, transitions] : by_server) {
    for (std::size_t i = 0; i < transitions.size(); ++i) {
      const FaultTransitionKind expected =
          i % 2 == 0 ? FaultTransitionKind::kPartitionBegin
                     : FaultTransitionKind::kPartitionEnd;
      EXPECT_EQ(transitions[i].kind, expected);
      if (i > 0) {
        EXPECT_GT(transitions[i].time, transitions[i - 1].time);
      }
    }
  }
  // And the whole rack partitions together.
  std::map<Seconds, std::set<ServerId>> begins;
  for (const FaultTransition& t : schedule) {
    if (t.kind == FaultTransitionKind::kPartitionBegin) begins[t.time].insert(t.server);
  }
  for (const auto& [time, servers] : begins) {
    const int rack = topology.rack_of(*servers.begin());
    EXPECT_EQ(static_cast<int>(servers.size()), topology.rack_end(rack) - topology.rack_first(rack));
  }
}

TEST(DomainSchedule, LegacyScheduleUnchangedWhenDomainsOff) {
  // Enabling topology without any domain fault must not perturb the legacy
  // draw sequence — the bit-exactness contract behind the hexfloat goldens.
  FailureConfig config;
  config.enabled = true;
  config.mean_time_between_failures = hours(2);
  config.mean_time_to_repair = hours(1);
  config.brownout.enabled = true;
  config.correlated.enabled = true;
  config.correlated.group_size = 2;

  Rng legacy_rng(42);
  const auto legacy =
      generate_fault_schedule(config, Topology(TopologyConfig{}, 6), hours(50), legacy_rng);

  Rng domain_rng(42);
  const Topology topology = test_tree(6, 3, 2);
  const auto with_topology =
      generate_fault_schedule(config, topology, hours(50), domain_rng);

  ASSERT_EQ(legacy.size(), with_topology.size());
  for (std::size_t i = 0; i < legacy.size(); ++i) {
    EXPECT_EQ(legacy[i].time, with_topology[i].time);
    EXPECT_EQ(legacy[i].server, with_topology[i].server);
    EXPECT_EQ(legacy[i].kind, with_topology[i].kind);
    EXPECT_EQ(legacy[i].capacity_factor, with_topology[i].capacity_factor);
  }
}

// -------------------------------------------- partition engine behaviour

/// Small loaded world for scripted-partition engine tests (mirrors
/// fault_test.cpp's scripted_world; long videos span the fault window).
SimulationConfig partition_world(double avg_copies) {
  SimulationConfig config;
  config.system.name = "topology-test";
  config.system.num_servers = 4;
  config.system.server_bandwidth = 15.0;
  config.system.server_storage = gigabytes(5);
  config.system.video_min_duration = 600.0;
  config.system.video_max_duration = 900.0;
  config.system.num_videos = 12;
  config.system.avg_copies = avg_copies;
  config.system.view_bandwidth = 3.0;
  config.client.staging_fraction = 0.2;
  config.client.receive_bandwidth = 30.0;
  config.topology.enabled = true;
  config.topology.racks = 2;
  config.topology.zones = 2;
  config.load_factor = 1.0;
  config.duration = 1200.0;
  config.warmup = 0.0;
  config.seed = 9;
  config.paranoid = true;
  config.trace.enabled = true;
  return config;
}

TEST(PartitionTransitions, ShedsVictimsAndHealsUnderParanoidAudit) {
  SimulationConfig config = partition_world(2.5);
  config.load_factor = 0.7;  // headroom so victims can migrate off
  config.scripted_faults = {
      {300.0, 0, FaultTransitionKind::kPartitionBegin, 1.0},
      {700.0, 0, FaultTransitionKind::kPartitionEnd, 1.0},
  };
  VodSimulation simulation(config);  // paranoid: reachability audited
  const Metrics& metrics = simulation.run();

  EXPECT_EQ(metrics.partitions(), 1u);
  EXPECT_EQ(metrics.partition_heals(), 1u);
  EXPECT_NEAR(metrics.partition_time().mean(), 400.0, 1e-6);
  const TraceRecorder* trace = simulation.trace();
  ASSERT_NE(trace, nullptr);
  EXPECT_EQ(count_events(*trace, TraceEventType::kPartitionBegin, 0), 1u);
  EXPECT_EQ(count_events(*trace, TraceEventType::kPartitionEnd, 0), 1u);
  // The server stayed *up* the whole time: a partition is not a crash.
  EXPECT_EQ(count_events(*trace, TraceEventType::kServerDown, 0), 0u);
  EXPECT_TRUE(simulation.servers()[0].available());
  EXPECT_TRUE(simulation.servers()[0].reachable());
  // Victims were recovered to replica holders or dropped, never stranded.
  const std::size_t recovered =
      count_events(*trace, TraceEventType::kStreamRecovered);
  EXPECT_GT(recovered, 0u);
  EXPECT_EQ(count_events(*trace, TraceEventType::kStreamDropped), metrics.drops());
}

TEST(PartitionTransitions, DuplicateTransitionsAreIdempotent) {
  SimulationConfig config = partition_world(2.5);
  config.scripted_faults = {
      {300.0, 0, FaultTransitionKind::kPartitionBegin, 1.0},
      {350.0, 0, FaultTransitionKind::kPartitionBegin, 1.0},  // duplicate
      {700.0, 0, FaultTransitionKind::kPartitionEnd, 1.0},
      {750.0, 0, FaultTransitionKind::kPartitionEnd, 1.0},  // duplicate
  };
  VodSimulation simulation(config);
  const Metrics& metrics = simulation.run();

  EXPECT_EQ(metrics.partitions(), 1u);
  EXPECT_EQ(metrics.partition_heals(), 1u);
  const TraceRecorder* trace = simulation.trace();
  ASSERT_NE(trace, nullptr);
  EXPECT_EQ(count_events(*trace, TraceEventType::kPartitionBegin, 0), 1u);
  EXPECT_EQ(count_events(*trace, TraceEventType::kPartitionEnd, 0), 1u);
  EXPECT_TRUE(simulation.servers()[0].reachable());
}

TEST(PartitionTransitions, HealForceDrainsTheRetryQueue) {
  // Single-copy world with rack 0 (servers 0,1) partitioned away: victims
  // have no feasible migration target, so they park; the heal's forced
  // retry drain must re-admit them.
  SimulationConfig config = partition_world(1.0);
  config.load_factor = 1.3;  // both partitioned servers carry streams
  config.failure.retry.enabled = true;
  config.failure.retry.max_queue = 64;
  config.failure.retry.backoff_base = 1e6;  // backoff alone would never fire
  config.failure.retry.backoff_cap = 1e7;
  config.scripted_faults = {
      {300.0, 0, FaultTransitionKind::kPartitionBegin, 1.0},
      {300.0, 1, FaultTransitionKind::kPartitionBegin, 1.0},
      {500.0, 0, FaultTransitionKind::kPartitionEnd, 1.0},
      {500.0, 1, FaultTransitionKind::kPartitionEnd, 1.0},
  };
  VodSimulation simulation(config);
  const Metrics& metrics = simulation.run();

  // Some enqueued entries are parked orphans (request >= 0), not just
  // rejected arrivals.
  const TraceRecorder* trace = simulation.trace();
  ASSERT_NE(trace, nullptr);
  std::size_t parked = 0;
  for (const TraceEvent& event : trace->snapshot()) {
    if (event.type == TraceEventType::kRetryEnqueued && event.request >= 0) {
      ++parked;
    }
  }
  EXPECT_GT(parked, 0u);
  EXPECT_GT(metrics.retry_enqueued(), 0u);
  // With a ~week-long backoff, any readmission proves the heal force-drain.
  EXPECT_GT(metrics.readmissions(), 0u);
}

// --------------------------------------------- domain-spread anti-affinity

VideoCatalog spread_catalog(std::size_t n) {
  std::vector<Video> videos;
  for (std::size_t i = 0; i < n; ++i) {
    Video video;
    video.id = static_cast<VideoId>(i);
    video.duration = 600.0;
    video.view_bandwidth = 3.0;
    videos.push_back(video);
  }
  return VideoCatalog(std::move(videos));
}

std::vector<Server> spread_servers(int n) {
  std::vector<Server> servers;
  for (int i = 0; i < n; ++i) servers.emplace_back(i, 100.0, 1e9);
  return servers;
}

TEST(DomainSpread, MultiCopyTitlesNeverConcentrateInOneRack) {
  const VideoCatalog catalog = spread_catalog(10);
  auto servers = spread_servers(6);
  const Topology topology = test_tree(6, 3, 1);
  const auto popularity = ZipfDistribution(10, 0.7).probabilities();
  Rng rng(13);
  DomainSpreadPlacement policy(topology);
  const PlacementResult result =
      policy.place(catalog, popularity, /*avg_copies=*/2.0, servers, rng);

  EXPECT_EQ(result.shortfall, 0);
  for (VideoId v = 0; v < 10; ++v) {
    if (result.copies[static_cast<std::size_t>(v)] < 2) continue;
    std::set<int> racks;
    for (const Server& server : servers) {
      if (server.holds(v)) racks.insert(topology.rack_of(server.id()));
    }
    EXPECT_GE(racks.size(), 2u)
        << "video " << v << " has " << result.copies[static_cast<std::size_t>(v)]
        << " copies all in one rack";
  }
}

TEST(DomainSpread, UsesEvenCopyCounts) {
  // Same storage budget and popularity-obliviousness as Even: per-title
  // copy counts differ by at most one and sum to the same budget.
  const VideoCatalog catalog = spread_catalog(9);
  auto servers = spread_servers(6);
  const Topology topology = test_tree(6, 3, 1);
  const auto popularity = ZipfDistribution(9, 0.7).probabilities();
  Rng rng(17);
  DomainSpreadPlacement policy(topology);
  const PlacementResult result =
      policy.place(catalog, popularity, /*avg_copies=*/2.5, servers, rng);

  int total = 0, min_copies = 1 << 30, max_copies = 0;
  for (VideoId v = 0; v < 9; ++v) {
    total += result.copies[static_cast<std::size_t>(v)];
    min_copies = std::min(min_copies, result.copies[static_cast<std::size_t>(v)]);
    max_copies = std::max(max_copies, result.copies[static_cast<std::size_t>(v)]);
  }
  EXPECT_EQ(total, placement_detail::copy_budget(9, 2.5));
  EXPECT_LE(max_copies - min_copies, 1);
}

// --------------------------------------------------- domain-aware repair

TEST(RepairReplication, RepairCopiesLandOutsideTheDeadRack) {
  // Rack 0 (servers 0,1) dies for most of the run with every title at one
  // copy; repair re-replication must place every recovery copy on the
  // surviving rack's servers.
  SimulationConfig config = partition_world(1.0);
  config.placement.kind = PlacementKind::kDomainSpread;
  config.failure.repair.enabled = true;
  config.failure.repair.down_threshold = 50.0;
  config.replication.enabled = true;
  config.replication.rejection_threshold = 1000000;  // only repair triggers
  config.replication.transfer_bandwidth = 6.0;  // fits the 15 Mb/s links
  config.scripted_faults = {
      {200.0, 0, FaultTransitionKind::kDown, 1.0},
      {200.0, 1, FaultTransitionKind::kDown, 1.0},
      {1100.0, 0, FaultTransitionKind::kUp, 1.0},
      {1100.0, 1, FaultTransitionKind::kUp, 1.0},
  };
  VodSimulation simulation(config);
  const Metrics& metrics = simulation.run();

  const TraceRecorder* trace = simulation.trace();
  ASSERT_NE(trace, nullptr);
  std::size_t planned = 0;
  for (const TraceEvent& event : trace->snapshot()) {
    if (event.type != TraceEventType::kRepairPlanned) continue;
    ++planned;
    // Destination must be in the surviving rack (servers 2,3).
    EXPECT_GE(event.server, 2);
  }
  EXPECT_GT(planned, 0u);
  EXPECT_GT(metrics.repairs(), 0u);
}

// --------------------------------------------- auditor reachability checks

Video audit_video() {
  Video video;
  video.id = 0;
  video.duration = 100.0;
  video.view_bandwidth = 3.0;
  return video;
}

ClientProfile audit_client() {
  ClientProfile client;
  client.buffer_capacity = 10.0;
  client.receive_bandwidth = 30.0;
  return client;
}

TEST(AuditorReachability, UnreachableServerHostingStreamsTrips) {
  Server server(0, 10.0, 1000.0);
  Request request(0, audit_video(), 0.0, audit_client());
  request.begin_streaming(0.0, server.id());
  server.attach(request);
  request.set_allocation(0.0, 3.0);

  InvariantAuditor::ServerExpectations expect;
  EXPECT_NO_THROW(InvariantAuditor::check_server(server, expect));

  // Partition the server: up, but unreachable — hosting a stream (and
  // holding a bandwidth grant) is now an invariant violation.
  server.set_reachable(false);
  EXPECT_TRUE(server.available());
  EXPECT_FALSE(server.serviceable());
  EXPECT_THROW(InvariantAuditor::check_server(server, expect), AuditFailure);
}

TEST(AuditorReachability, IdleUnreachableServerPasses) {
  Server server(0, 10.0, 1000.0);
  server.set_reachable(false);
  InvariantAuditor::ServerExpectations expect;
  EXPECT_NO_THROW(InvariantAuditor::check_server(server, expect));
}

}  // namespace
}  // namespace vodsim
