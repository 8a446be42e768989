#include "vodsim/check/fuzzer.h"

#include <algorithm>
#include <cmath>
#include <functional>
#include <limits>
#include <sstream>

#include "vodsim/check/reference_oracle.h"
#include "vodsim/engine/config_schema.h"
#include "vodsim/engine/vod_simulation.h"
#include "vodsim/fault/schedule.h"

namespace vodsim {

constexpr double kInf = std::numeric_limits<double>::infinity();

SimulationConfig random_scenario(Rng& rng) {
  SimulationConfig config;
  config.system.name = "fuzz";

  // World: 2-4 servers, 3-8 concurrent streams each, 1-5 minute clips.
  config.system.num_servers = 2 + static_cast<int>(rng.uniform_int(3));
  config.system.view_bandwidth = rng.uniform(1.5, 3.0);
  const double streams_per_server = rng.uniform(3.0, 8.0);
  config.system.server_bandwidth =
      config.system.view_bandwidth * streams_per_server;
  config.system.video_min_duration = rng.uniform(60.0, 120.0);
  config.system.video_max_duration =
      config.system.video_min_duration + rng.uniform(0.0, 180.0);
  config.system.num_videos = 8 + static_cast<std::size_t>(rng.uniform_int(25));
  config.system.avg_copies = rng.uniform(1.0, 2.5);

  // Storage sized relative to the catalog: usually roomy, sometimes tight
  // enough that placement falls short (orphans and replication pressure).
  const Megabits mean_size = config.system.mean_video_size();
  const double titles_per_server =
      config.system.avg_copies * static_cast<double>(config.system.num_videos) /
      config.system.num_servers;
  const double storage_factor = rng.uniform() < 0.2 ? 0.6 : 1.5;
  config.system.server_storage = storage_factor * titles_per_server * mean_size;

  if (rng.uniform() < 0.25) {
    config.system.bandwidth_profile.resize(
        static_cast<std::size_t>(config.system.num_servers));
    for (double& entry : config.system.bandwidth_profile) {
      entry = rng.uniform(0.5, 2.0);
    }
  }
  if (rng.uniform() < 0.15) {
    config.system.storage_profile.resize(
        static_cast<std::size_t>(config.system.num_servers));
    for (double& entry : config.system.storage_profile) {
      entry = rng.uniform(0.5, 2.0);
    }
  }

  // Client staging: none / sliver / paper-scale / full video.
  constexpr double kStagingOptions[] = {0.0, 0.02, 0.2, 1.0};
  config.client.staging_fraction = kStagingOptions[rng.uniform_int(4)];
  switch (rng.uniform_int(4)) {
    case 0: config.client.receive_bandwidth = config.system.view_bandwidth; break;
    case 1: config.client.receive_bandwidth = 2.0 * config.system.view_bandwidth; break;
    case 2: config.client.receive_bandwidth = 10.0 * config.system.view_bandwidth; break;
    default: config.client.receive_bandwidth = kInf; break;
  }

  // Failure-domain topology: a quarter of the scenarios build a rack/zone
  // tree. Domain faults (below) and domain_spread placement ride on it;
  // all topology-enabled scenarios are auditor-only (outside
  // oracle_supports), so the probability stays low enough that the oracle
  // still covers the majority of the batch.
  if (rng.uniform() < 0.25) {
    config.topology.enabled = true;
    config.topology.racks = 1 + static_cast<int>(rng.uniform_int(
        static_cast<std::uint64_t>(config.system.num_servers)));
    config.topology.zones = 1 + static_cast<int>(rng.uniform_int(
        static_cast<std::uint64_t>(config.topology.racks)));
  }

  constexpr PlacementKind kPlacements[] = {
      PlacementKind::kEven, PlacementKind::kPredictive,
      PlacementKind::kPartialPredictive, PlacementKind::kBsr};
  config.placement.kind = kPlacements[rng.uniform_int(4)];
  if (config.topology.enabled && rng.uniform() < 0.4) {
    config.placement.kind = PlacementKind::kDomainSpread;
  }

  if (rng.uniform() < 0.6) {
    config.admission.migration.enabled = true;
    config.admission.migration.max_chain_length =
        1 + static_cast<int>(rng.uniform_int(3));
    config.admission.migration.max_hops_per_request =
        rng.uniform() < 0.5 ? 1 : -1;
    constexpr VictimStrategy kVictims[] = {
        VictimStrategy::kFirstFit, VictimStrategy::kLeastRemaining,
        VictimStrategy::kMostRemaining, VictimStrategy::kMostBuffered};
    config.admission.migration.victim = kVictims[rng.uniform_int(4)];
    // A victim is eligible only if its staged data covers the pause, so a
    // positive latency is interesting only alongside staging.
    if (config.client.staging_fraction > 0.0 && rng.uniform() < 0.3) {
      config.admission.migration.switch_latency = rng.uniform(0.5, 5.0);
    }
  }

  constexpr SchedulerKind kSchedulers[] = {
      SchedulerKind::kEftf, SchedulerKind::kContinuous,
      SchedulerKind::kProportional, SchedulerKind::kLftf,
      SchedulerKind::kIntermittent};
  config.scheduler = kSchedulers[rng.uniform_int(5)];
  if (config.scheduler == SchedulerKind::kIntermittent) {
    config.intermittent_safety_cover = rng.uniform(1.0, 20.0);
    config.admission.buffer_aware = rng.uniform() < 0.4;
  }

  if (rng.uniform() < 0.3) {
    config.failure.enabled = true;
    config.failure.mean_time_between_failures = rng.uniform(150.0, 900.0);
    config.failure.mean_time_to_repair = rng.uniform(20.0, 200.0);
    config.failure.recover_via_migration = rng.uniform() < 0.5;
    if (rng.uniform() < 0.3) config.failure.min_dwell = rng.uniform(1.0, 10.0);
    if (rng.uniform() < 0.4) {
      config.failure.brownout.enabled = true;
      config.failure.brownout.mean_time_between = rng.uniform(120.0, 600.0);
      config.failure.brownout.mean_duration = rng.uniform(30.0, 180.0);
      config.failure.brownout.capacity_factor = rng.uniform(0.2, 0.9);
    }
    if (rng.uniform() < 0.25) {
      config.failure.correlated.enabled = true;
      config.failure.correlated.group_size =
          std::min(2 + static_cast<int>(rng.uniform_int(2)), config.system.num_servers);
      config.failure.correlated.mean_time_between = rng.uniform(300.0, 900.0);
      config.failure.correlated.mean_duration = rng.uniform(30.0, 120.0);
    }
    if (rng.uniform() < 0.4) {
      config.failure.retry.enabled = true;
      config.failure.retry.max_queue =
          4 + static_cast<int>(rng.uniform_int(28));
      config.failure.retry.max_attempts =
          1 + static_cast<int>(rng.uniform_int(5));
      config.failure.retry.backoff_base = rng.uniform(1.0, 10.0);
      config.failure.retry.backoff_cap =
          config.failure.retry.backoff_base * rng.uniform(1.0, 8.0);
    }
    if (rng.uniform() < 0.25) {
      config.failure.repair.enabled = true;
      config.failure.repair.down_threshold = rng.uniform(30.0, 120.0);
    }
    // Domain-scoped faults need the topology tree drawn above.
    if (config.topology.enabled) {
      if (rng.uniform() < 0.35) {
        config.failure.domains.rack_outage.enabled = true;
        config.failure.domains.rack_outage.mean_time_between =
            rng.uniform(200.0, 900.0);
        config.failure.domains.rack_outage.mean_duration =
            rng.uniform(20.0, 120.0);
      }
      if (rng.uniform() < 0.3) {
        config.failure.domains.zone_brownout.enabled = true;
        config.failure.domains.zone_brownout.mean_time_between =
            rng.uniform(150.0, 600.0);
        config.failure.domains.zone_brownout.mean_duration =
            rng.uniform(20.0, 120.0);
        config.failure.domains.zone_brownout.capacity_factor =
            rng.uniform(0.2, 0.9);
      }
      if (rng.uniform() < 0.35) {
        config.failure.domains.partition.enabled = true;
        config.failure.domains.partition.mean_time_between =
            rng.uniform(150.0, 600.0);
        config.failure.domains.partition.mean_duration = rng.uniform(10.0, 60.0);
      }
    }
    // Glitch dedupe: mostly the 1 s default, sometimes disabled, sometimes
    // a wide window — the sharded differential must agree under all.
    if (rng.uniform() < 0.25) {
      config.failure.glitch_dedupe_window =
          rng.uniform() < 0.5 ? 0.0 : rng.uniform(0.5, 5.0);
    }
  }
  if (rng.uniform() < 0.3) {
    config.replication.enabled = true;
    config.replication.rejection_threshold =
        1 + static_cast<int>(rng.uniform_int(3));
    config.replication.window = rng.uniform(60.0, 600.0);
    config.replication.transfer_bandwidth = rng.uniform(4.0, 12.0);
    config.replication.max_concurrent = 1 + static_cast<int>(rng.uniform_int(2));
  }
  if (rng.uniform() < 0.25) {
    config.drift.enabled = true;
    config.drift.period = rng.uniform(100.0, 600.0);
    config.drift.step = 1 + static_cast<std::size_t>(rng.uniform_int(5));
  }
  // Interactivity scenarios are auditor-only (outside oracle_supports).
  if (rng.uniform() < 0.25) {
    config.interactivity.enabled = true;
    config.interactivity.pauses_per_hour = rng.uniform(20.0, 120.0);
    config.interactivity.mean_pause_duration = rng.uniform(5.0, 60.0);
  }

  config.zipf_theta = rng.uniform(-1.5, 1.0);
  config.load_factor = rng.uniform(0.5, 1.4);
  config.duration = rng.uniform(120.0, 600.0);
  config.warmup = rng.uniform() < 0.5 ? 0.0 : 0.1 * config.duration;

  // Sharded-engine coverage: roughly half the scenarios carry an explicit
  // shard count (and worker count) for the sharded differential leg; the
  // rest fall back to run_scenario's one-shard-per-server default. All
  // three draws happen unconditionally so the per-call draw count stays
  // fixed (the fixed-seed scenario-sequence property).
  const bool draw_sharded = rng.uniform() < 0.5;
  const int drawn_shards =
      1 + static_cast<int>(rng.uniform_int(
              static_cast<std::uint64_t>(config.system.num_servers)));
  const int drawn_threads = 1 + static_cast<int>(rng.uniform_int(4));
  if (draw_sharded) {
    config.shards = drawn_shards;
    config.shard_threads = drawn_threads;
  }

  config.seed = rng.next_u64();
  return config;
}

SimulationConfig random_fault_scenario(Rng& rng) {
  SimulationConfig config = random_scenario(rng);
  config.system.name = "chaos";

  // Crashes are always on and frequent relative to the (short) horizon, so
  // every scenario actually exercises the fault path instead of merely
  // arming it.
  config.failure.enabled = true;
  config.failure.mean_time_between_failures = rng.uniform(90.0, 400.0);
  config.failure.mean_time_to_repair = rng.uniform(20.0, 120.0);
  config.failure.recover_via_migration = rng.uniform() < 0.5;
  config.failure.min_dwell = rng.uniform() < 0.5 ? rng.uniform(1.0, 10.0) : 0.0;

  config.failure.brownout.enabled = rng.uniform() < 0.7;
  config.failure.brownout.mean_time_between = rng.uniform(90.0, 400.0);
  config.failure.brownout.mean_duration = rng.uniform(20.0, 120.0);
  config.failure.brownout.capacity_factor = rng.uniform(0.2, 0.9);

  config.failure.retry.enabled = rng.uniform() < 0.7;
  config.failure.retry.max_queue = 4 + static_cast<int>(rng.uniform_int(28));
  config.failure.retry.max_attempts = 1 + static_cast<int>(rng.uniform_int(5));
  config.failure.retry.backoff_base = rng.uniform(1.0, 10.0);
  config.failure.retry.backoff_cap =
      config.failure.retry.backoff_base * rng.uniform(1.0, 8.0);

  config.failure.correlated.enabled = rng.uniform() < 0.35;
  config.failure.correlated.group_size =
      std::min(2 + static_cast<int>(rng.uniform_int(2)), config.system.num_servers);
  config.failure.correlated.mean_time_between = rng.uniform(200.0, 600.0);
  config.failure.correlated.mean_duration = rng.uniform(20.0, 90.0);

  config.failure.repair.enabled = rng.uniform() < 0.35;
  config.failure.repair.down_threshold = rng.uniform(20.0, 90.0);

  // Guarantee at least one partial-fault feature beyond plain crashes.
  if (!config.failure.brownout.enabled && !config.failure.retry.enabled) {
    config.failure.brownout.enabled = true;
  }

  // Domain-scoped chaos: half the chaos scenarios (re)build a topology and
  // arm at least one domain fault class, so rack outages, zone brownouts,
  // and partitions all flow through the sanitizer smoke and the sharded
  // differential routinely, not only when random_scenario happened
  // to draw them.
  if (rng.uniform() < 0.5) {
    config.topology.enabled = true;
    config.topology.racks = 1 + static_cast<int>(rng.uniform_int(
        static_cast<std::uint64_t>(config.system.num_servers)));
    config.topology.zones = 1 + static_cast<int>(rng.uniform_int(
        static_cast<std::uint64_t>(config.topology.racks)));
    config.failure.domains.rack_outage.enabled = rng.uniform() < 0.6;
    config.failure.domains.rack_outage.mean_time_between =
        rng.uniform(150.0, 500.0);
    config.failure.domains.rack_outage.mean_duration = rng.uniform(20.0, 90.0);
    config.failure.domains.zone_brownout.enabled = rng.uniform() < 0.4;
    config.failure.domains.zone_brownout.mean_time_between =
        rng.uniform(120.0, 400.0);
    config.failure.domains.zone_brownout.mean_duration = rng.uniform(20.0, 90.0);
    config.failure.domains.zone_brownout.capacity_factor = rng.uniform(0.2, 0.9);
    config.failure.domains.partition.enabled = rng.uniform() < 0.6;
    config.failure.domains.partition.mean_time_between =
        rng.uniform(120.0, 400.0);
    config.failure.domains.partition.mean_duration = rng.uniform(10.0, 60.0);
    if (!config.failure.domains.rack_outage.enabled &&
        !config.failure.domains.partition.enabled) {
      config.failure.domains.partition.enabled = true;
    }
  }
  return config;
}

std::vector<SimulationConfig> pathology_corpus() {
  std::vector<SimulationConfig> corpus;

  // Shared tiny-world base.
  SimulationConfig base;
  base.system.name = "pathology";
  base.system.num_servers = 3;
  base.system.server_bandwidth = 15.0;
  base.system.server_storage = gigabytes(2);
  base.system.video_min_duration = 90.0;
  base.system.video_max_duration = 240.0;
  base.system.num_videos = 20;
  base.system.avg_copies = 1.8;
  base.system.view_bandwidth = 3.0;
  base.client.receive_bandwidth = 30.0;
  base.duration = 600.0;
  base.warmup = 0.0;
  base.load_factor = 1.2;

  // 1. Threshold chattering: intermittent scheduling with a hair-trigger
  // safety cover and sliver buffers — streams hover at the urgency
  // threshold, stressing the hysteresis latch and buffer-low predictions.
  {
    SimulationConfig config = base;
    config.scheduler = SchedulerKind::kIntermittent;
    config.intermittent_safety_cover = 2.0;
    config.client.staging_fraction = 0.02;
    config.seed = 101;
    corpus.push_back(config);
  }

  // 2. Reschedule-heavy churn: tiny buffers fill in seconds at a 10x
  // receive cap, so buffer-full/tx-complete predictions reschedule
  // constantly — the slab queue's lazy cancellation under maximum stress.
  {
    SimulationConfig config = base;
    config.client.staging_fraction = 0.02;
    config.load_factor = 0.8;
    config.seed = 102;
    corpus.push_back(config);
  }

  // 3. Deep migration chains: overloaded cluster, chain length 3, unlimited
  // hops — multi-step displacement plans with reservations in flight.
  {
    SimulationConfig config = base;
    config.client.staging_fraction = 0.2;
    config.admission.migration.enabled = true;
    config.admission.migration.max_chain_length = 3;
    config.admission.migration.max_hops_per_request = -1;
    config.admission.migration.switch_latency = 1.0;
    config.load_factor = 1.4;
    config.seed = 103;
    corpus.push_back(config);
  }

  // 4. Failure/repair churn with replication: servers flap every few
  // minutes while rejection-triggered copies hold reservations — recovery
  // migration racing replication bandwidth on both ends.
  {
    SimulationConfig config = base;
    config.client.staging_fraction = 0.2;
    config.admission.migration.enabled = true;
    config.failure.enabled = true;
    config.failure.mean_time_between_failures = 180.0;
    config.failure.mean_time_to_repair = 45.0;
    config.replication.enabled = true;
    config.replication.rejection_threshold = 1;
    config.replication.window = 300.0;
    config.replication.transfer_bandwidth = 6.0;
    config.seed = 104;
    corpus.push_back(config);
  }

  // 5. Buffer-aware overcommit: nominal commitments deliberately exceed the
  // link; the intermittent scheduler rations actual flow. Auditor-only
  // (outside oracle_supports), exercising the relaxed capacity expectation.
  {
    SimulationConfig config = base;
    config.scheduler = SchedulerKind::kIntermittent;
    config.intermittent_safety_cover = 10.0;
    config.admission.buffer_aware = true;
    config.client.staging_fraction = 1.0;
    config.load_factor = 1.4;
    config.seed = 105;
    corpus.push_back(config);
  }

  // 6. Brownout shed churn: deep, frequent brownouts on an overloaded
  // cluster with staging and migration — every brownout-begin triggers
  // most-buffered shedding with migrate-before-drop, and every brownout-end
  // re-admits from the retry queue. Found by shrinking a chaos scenario
  // that tripped the commitment-vs-effective-link audit.
  {
    SimulationConfig config = base;
    config.client.staging_fraction = 0.2;
    config.admission.migration.enabled = true;
    config.failure.enabled = true;
    config.failure.mean_time_between_failures = hours(100);  // crashes rare
    config.failure.mean_time_to_repair = 60.0;
    config.failure.brownout.enabled = true;
    config.failure.brownout.mean_time_between = 90.0;
    config.failure.brownout.mean_duration = 45.0;
    config.failure.brownout.capacity_factor = 0.3;
    config.failure.retry.enabled = true;
    config.failure.retry.max_queue = 8;
    config.failure.retry.backoff_base = 2.0;
    config.failure.retry.backoff_cap = 16.0;
    config.load_factor = 1.4;
    config.seed = 106;
    corpus.push_back(config);
  }

  // 7. Crash/retry storm on a single-copy catalog: no second replica means
  // every crash orphans streams that cannot migrate — they park in a small
  // retry queue whose backoff collides with the next crash. Exercises
  // queue-full drops, retry abandonment at max attempts, and parked
  // requests reaching playback end. Shrunk from a chaos run that hit the
  // parked-orphan completion path.
  {
    SimulationConfig config = base;
    config.system.avg_copies = 1.0;
    config.client.staging_fraction = 0.2;
    config.failure.enabled = true;
    config.failure.mean_time_between_failures = 120.0;
    config.failure.mean_time_to_repair = 40.0;
    config.failure.min_dwell = 2.0;
    config.failure.retry.enabled = true;
    config.failure.retry.max_queue = 4;
    config.failure.retry.max_attempts = 3;
    config.failure.retry.backoff_base = 5.0;
    config.failure.retry.backoff_cap = 20.0;
    config.seed = 107;
    corpus.push_back(config);
  }

  // 8. Correlated group failures with repair re-replication: whole groups
  // crash together, the repair policy re-replicates long-down servers'
  // single-copy titles, and replication reservations race the group's
  // repair events. Shrunk from a chaos run that raced a repair copy
  // against the destination's own crash.
  {
    SimulationConfig config = base;
    config.system.avg_copies = 1.2;
    config.client.staging_fraction = 0.2;
    config.admission.migration.enabled = true;
    config.failure.enabled = true;
    config.failure.mean_time_between_failures = 200.0;
    config.failure.mean_time_to_repair = 80.0;
    config.failure.correlated.enabled = true;
    config.failure.correlated.group_size = 2;
    config.failure.correlated.mean_time_between = 150.0;
    config.failure.correlated.mean_duration = 60.0;
    config.failure.repair.enabled = true;
    config.failure.repair.down_threshold = 30.0;
    config.replication.enabled = true;
    config.replication.rejection_threshold = 2;
    config.replication.window = 300.0;
    config.replication.transfer_bandwidth = 6.0;
    config.seed = 108;
    corpus.push_back(config);
  }

  // 9. Erlang saturation: zero staging, plain admission, load well past
  // capacity — the continuous-transmission regime where the pooled
  // Erlang-B terms (analysis/bounds.h) are armed and *tight*. The run must
  // reject heavily yet never beat the blocking lower bound.
  {
    SimulationConfig config = base;
    config.client.staging_fraction = 0.0;
    config.load_factor = 1.6;
    config.seed = 109;
    corpus.push_back(config);
  }

  // 10. Fluid overload: huge staging buffers at 2.5x offered load. Deep
  // workahead decouples transmission from playback, so utilization pins to
  // 1 while the knapsack rejection bound demands most mass be shed — the
  // regime where measured rejection sits closest to the fluid lower bound.
  {
    SimulationConfig config = base;
    config.client.staging_fraction = 1.0;
    config.load_factor = 2.5;
    config.seed = 110;
    corpus.push_back(config);
  }

  // 11. Placement starvation: single-copy catalog under extreme skew — the
  // hottest title's exclusive holder is the whole cluster's bottleneck, so
  // the exclusive-holder excess term dominates the rejection bound while
  // the aggregate link sits half idle.
  {
    SimulationConfig config = base;
    config.system.avg_copies = 1.0;
    config.zipf_theta = -1.5;
    config.client.staging_fraction = 0.2;
    config.load_factor = 1.2;
    config.seed = 111;
    corpus.push_back(config);
  }

  // 12. Cross-shard migration chains: four servers sharded one-per-server,
  // so every displacement hop of a depth-3 chain — and every
  // break-before-make reservation — spans shard boundaries, with shard
  // queues holding live predictions for streams the coordinator is moving
  // between them. Shrunk from a drawn-shards random scenario while
  // hardening the ownership-transfer cancel ordering.
  {
    SimulationConfig config = base;
    config.system.num_servers = 4;
    config.client.staging_fraction = 0.2;
    config.admission.migration.enabled = true;
    config.admission.migration.max_chain_length = 3;
    config.admission.migration.max_hops_per_request = -1;
    config.admission.migration.switch_latency = 1.0;
    config.load_factor = 1.4;
    config.shards = 4;
    config.shard_threads = 2;
    config.seed = 112;
    corpus.push_back(config);
  }

  // 13. Correlated whole-shard outage: group_size 2 on four servers
  // sharded in blocks of two, so a correlated failure takes down an entire
  // shard at once — its queue holds nothing but predictions for dead
  // streams, and recovery migrates every victim into the other shard while
  // repair re-replication runs across the boundary.
  {
    SimulationConfig config = base;
    config.system.num_servers = 4;
    config.system.avg_copies = 1.2;
    config.client.staging_fraction = 0.2;
    config.admission.migration.enabled = true;
    config.failure.enabled = true;
    config.failure.mean_time_between_failures = 200.0;
    config.failure.mean_time_to_repair = 80.0;
    config.failure.correlated.enabled = true;
    config.failure.correlated.group_size = 2;
    config.failure.correlated.mean_time_between = 150.0;
    config.failure.correlated.mean_duration = 60.0;
    config.failure.repair.enabled = true;
    config.failure.repair.down_threshold = 30.0;
    config.failure.retry.enabled = true;
    config.failure.retry.max_queue = 8;
    config.failure.retry.backoff_base = 2.0;
    config.failure.retry.backoff_cap = 16.0;
    config.shards = 2;
    config.shard_threads = 2;
    config.seed = 113;
    corpus.push_back(config);
  }

  // 14. Rack partition storm: four servers in two racks, partitions every
  // couple of minutes with retry parking and migration recovery — every
  // partition-begin sheds a whole rack's streams without marking a single
  // server down, and every heal force-drains the retry queue into servers
  // whose capacity the outage never touched. Shrunk from a domain-chaos
  // run that granted onto an unreachable server before admission gated on
  // serviceable().
  {
    SimulationConfig config = base;
    config.system.num_servers = 4;
    config.topology.enabled = true;
    config.topology.racks = 2;
    config.topology.zones = 2;
    config.client.staging_fraction = 0.2;
    config.admission.migration.enabled = true;
    config.failure.enabled = true;
    config.failure.mean_time_between_failures = hours(100);  // crashes rare
    config.failure.mean_time_to_repair = 60.0;
    config.failure.domains.partition.enabled = true;
    config.failure.domains.partition.mean_time_between = 120.0;
    config.failure.domains.partition.mean_duration = 30.0;
    config.failure.retry.enabled = true;
    config.failure.retry.max_queue = 8;
    config.failure.retry.max_attempts = 4;
    config.failure.retry.backoff_base = 2.0;
    config.failure.retry.backoff_cap = 16.0;
    config.seed = 114;
    corpus.push_back(config);
  }

  // 15. Rack outage vs. domain-spread repair: a near-single-copy catalog
  // placed with rack anti-affinity, whole racks crashing together, and
  // repair re-replication racing the outage — destinations must be chosen
  // among *serviceable* survivors, preferring under-represented domains.
  // Shrunk from a domain-chaos run where a repair copy targeted a server
  // inside the rack that was about to fail again.
  {
    SimulationConfig config = base;
    config.system.num_servers = 4;
    config.system.avg_copies = 1.2;
    config.topology.enabled = true;
    config.topology.racks = 2;
    config.topology.zones = 2;
    config.placement.kind = PlacementKind::kDomainSpread;
    config.client.staging_fraction = 0.2;
    config.admission.migration.enabled = true;
    config.failure.enabled = true;
    config.failure.mean_time_between_failures = hours(100);
    config.failure.mean_time_to_repair = 60.0;
    config.failure.domains.rack_outage.enabled = true;
    config.failure.domains.rack_outage.mean_time_between = 180.0;
    config.failure.domains.rack_outage.mean_duration = 60.0;
    config.failure.repair.enabled = true;
    config.failure.repair.down_threshold = 25.0;
    config.replication.enabled = true;
    config.replication.rejection_threshold = 2;
    config.replication.window = 300.0;
    config.replication.transfer_bandwidth = 6.0;
    config.seed = 115;
    corpus.push_back(config);
  }

  // 16. Overlapping domain faults on rack-aligned shards: zone brownouts,
  // rack partitions, *and* binary crashes interleave on a sharded engine
  // whose shard boundaries coincide with the racks — the capacity-loss
  // interval handoffs (down <-> brownout <-> partition are mutually
  // exclusive per server) and the glitch-dedupe window all under the
  // sharded/single differential at once. Shrunk from a
  // domain-chaos run that double-charged capacity loss when a partition
  // began during a zone brownout.
  {
    SimulationConfig config = base;
    config.system.num_servers = 4;
    config.topology.enabled = true;
    config.topology.racks = 2;
    config.topology.zones = 2;
    config.client.staging_fraction = 0.2;
    config.failure.enabled = true;
    config.failure.mean_time_between_failures = 240.0;
    config.failure.mean_time_to_repair = 50.0;
    config.failure.domains.zone_brownout.enabled = true;
    config.failure.domains.zone_brownout.mean_time_between = 150.0;
    config.failure.domains.zone_brownout.mean_duration = 50.0;
    config.failure.domains.zone_brownout.capacity_factor = 0.4;
    config.failure.domains.partition.enabled = true;
    config.failure.domains.partition.mean_time_between = 150.0;
    config.failure.domains.partition.mean_duration = 25.0;
    config.failure.retry.enabled = true;
    config.failure.retry.max_queue = 8;
    config.failure.retry.backoff_base = 2.0;
    config.failure.retry.backoff_cap = 16.0;
    config.failure.glitch_dedupe_window = 2.0;
    config.load_factor = 1.3;
    config.shards = 2;
    config.shard_threads = 2;
    config.seed = 116;
    corpus.push_back(config);
  }

  return corpus;
}

std::string diff_runs(const Metrics& am, std::uint64_t a_continuity_violations,
                      const Metrics& bm, std::uint64_t b_continuity_violations,
                      const char* a_label, const char* b_label) {
  std::ostringstream oss;
  auto count = [&](const char* name, std::uint64_t a_value,
                   std::uint64_t b_value) {
    if (a_value != b_value) {
      oss << name << ": " << a_label << " " << a_value << " vs " << b_label
          << " " << b_value << "; ";
    }
  };
  auto fluid = [&](const char* name, double a_value, double b_value) {
    const double tolerance =
        1e-9 + 1e-9 * std::max(std::abs(a_value), std::abs(b_value));
    if (std::abs(a_value - b_value) > tolerance) {
      oss.precision(17);
      oss << name << ": " << a_label << " " << a_value << " vs " << b_label
          << " " << b_value << "; ";
    }
  };

  count("arrivals", am.arrivals(), bm.arrivals());
  count("accepts", am.accepts(), bm.accepts());
  count("accepts_via_migration", am.accepts_via_migration(),
        bm.accepts_via_migration());
  count("rejects", am.rejects(), bm.rejects());
  count("migration_steps", am.migration_steps(), bm.migration_steps());
  count("completions", am.completions(), bm.completions());
  count("drops", am.drops(), bm.drops());
  count("underflow_events", am.underflow_events(), bm.underflow_events());
  count("replications", am.replications(), bm.replications());
  count("server_downs", am.server_downs(), bm.server_downs());
  count("server_recoveries", am.server_recoveries(), bm.server_recoveries());
  count("sheds", am.sheds(), bm.sheds());
  count("interruptions", am.interruptions(), bm.interruptions());
  count("retry_enqueued", am.retry_enqueued(), bm.retry_enqueued());
  count("readmissions", am.readmissions(), bm.readmissions());
  count("retry_abandoned", am.retry_abandoned(), bm.retry_abandoned());
  count("repairs", am.repairs(), bm.repairs());
  count("continuity_violations", a_continuity_violations, b_continuity_violations);
  fluid("utilization", am.utilization(), bm.utilization());
  fluid("rejection_ratio", am.rejection_ratio(), bm.rejection_ratio());
  fluid("transmitted", am.transmitted(), bm.transmitted());
  fluid("underflow_megabits", am.underflow_megabits(), bm.underflow_megabits());
  fluid("replication_megabits", am.replication_megabits(),
        bm.replication_megabits());
  fluid("glitch_seconds", am.glitch_seconds(), bm.glitch_seconds());
  fluid("availability", am.availability(), bm.availability());
  return oss.str();
}

FuzzResult run_scenario(const SimulationConfig& config) {
  FuzzResult result;
  SimulationConfig audited = config;
  audited.paranoid = true;
  // The baseline/auditor leg is always the single-queue engine (the auditor
  // requires whole-cluster quiescence after every event); drawn shard
  // counts apply to the sharded differential leg below.
  audited.shards = 1;
  try {
    const RequestTrace trace = engine_trace(audited);
    VodSimulation engine(audited, trace);
    engine.run();
    if (oracle_supports(audited)) {
      result.oracle_checked = true;
      const OracleResult oracle = run_reference(audited, trace);
      const std::string diff = compare_against_engine(engine, oracle);
      if (!diff.empty()) {
        result.passed = false;
        result.failure = "oracle mismatch: " + diff;
      }
    }
    if (result.passed) {
      // Sharded/single differential: re-run the identical arrival trace on
      // the sharded engine and diff against the audited single-queue run.
      // A scenario that drew a shard count uses it; otherwise one shard
      // per server, the maximally hostile partition (every migration,
      // recovery, and replication crosses a shard boundary). Two drain
      // workers exercise the parallel window path even on small worlds —
      // the thread count cannot change results, only interleaving.
      SimulationConfig shard_config = audited;
      shard_config.paranoid = false;  // ignored when sharded; explicit
      shard_config.shards =
          config.shards > 1 ? config.shards : config.system.num_servers;
      if (shard_config.shard_threads <= 0) shard_config.shard_threads = 2;
      VodSimulation shard_engine(shard_config, trace);
      shard_engine.run();
      result.shard_checked = true;
      const std::string diff =
          diff_runs(engine.metrics(), engine.continuity_violations(),
                    shard_engine.metrics(), shard_engine.continuity_violations(),
                    "single", "sharded");
      if (!diff.empty()) {
        result.passed = false;
        result.failure = "shard/single mismatch: " + diff;
      }
    }
  } catch (const std::exception& error) {
    result.passed = false;
    result.failure = error.what();
  }
  return result;
}

void clamp_to_servers(SimulationConfig& config) {
  if (config.shards > config.system.num_servers) {
    config.shards = config.system.num_servers;
  }
  if (config.failure.correlated.group_size > config.system.num_servers) {
    config.failure.correlated.group_size = config.system.num_servers;
  }
  if (config.topology.racks > config.system.num_servers) {
    config.topology.racks = config.system.num_servers;
  }
  if (config.topology.zones > config.topology.racks) {
    config.topology.zones = config.topology.racks;
  }
}

SimulationConfig shrink_scenario(SimulationConfig config) {
  if (run_scenario(config).passed) return config;

  using Transform = std::function<void(SimulationConfig&)>;
  // Ordered roughly by how much each removes: whole features first, then
  // policy simplifications, then size halvings.
  std::vector<Transform> transforms = {
      [](SimulationConfig& c) { c.interactivity.enabled = false; },
      [](SimulationConfig& c) { c.failure.enabled = false; },
      [](SimulationConfig& c) { c.scripted_faults.clear(); },
  };
  for (const FaultProcessRow& process : fault_processes()) {
    transforms.push_back(
        [&process](SimulationConfig& c) { process.mutable_process(c.failure).enabled = false; });
  }
  transforms.insert(transforms.end(), {
      [](SimulationConfig& c) { c.failure.retry.enabled = false; },
      [](SimulationConfig& c) { c.failure.repair.enabled = false; },
      [](SimulationConfig& c) {
        // Dropping the topology drops everything that rides on it; the
        // rack- and zone-scoped processes would otherwise fail validation
        // for the wrong reason, and domain_spread would degrade silently.
        c.topology.enabled = false;
        c.topology.racks = 1;
        c.topology.zones = 1;
        for (const FaultProcessRow& process : fault_processes()) {
          if (process.needs_topology()) process.mutable_process(c.failure).enabled = false;
        }
        if (c.placement.kind == PlacementKind::kDomainSpread) {
          c.placement.kind = PlacementKind::kEven;
        }
      },
      [](SimulationConfig& c) {
        if (c.topology.racks > 1) c.topology.racks = (c.topology.racks + 1) / 2;
        if (c.topology.zones > c.topology.racks) {
          c.topology.zones = c.topology.racks;
        }
      },
      [](SimulationConfig& c) {
        if (c.topology.zones > 1) c.topology.zones = (c.topology.zones + 1) / 2;
      },
      [](SimulationConfig& c) { c.failure.glitch_dedupe_window = 0.0; },
      [](SimulationConfig& c) { c.failure.min_dwell = 0.0; },
      [](SimulationConfig& c) { c.replication.enabled = false; },
      [](SimulationConfig& c) { c.drift.enabled = false; },
      [](SimulationConfig& c) { c.admission.migration.enabled = false; },
      [](SimulationConfig& c) { c.admission.migration.switch_latency = 0.0; },
      [](SimulationConfig& c) { c.admission.migration.max_chain_length = 1; },
      [](SimulationConfig& c) {
        c.scheduler = SchedulerKind::kEftf;
        c.admission.buffer_aware = false;
      },
      [](SimulationConfig& c) { c.admission.buffer_aware = false; },
      [](SimulationConfig& c) { c.client.staging_fraction = 0.0; },
      [](SimulationConfig& c) { c.client.receive_bandwidth = kInf; },
      [](SimulationConfig& c) {
        c.system.bandwidth_profile.clear();
        c.system.storage_profile.clear();
      },
      [](SimulationConfig& c) { c.placement.kind = PlacementKind::kEven; },
      [](SimulationConfig& c) {
        c.admission.migration.victim = VictimStrategy::kFirstFit;
      },
      [](SimulationConfig& c) { c.zipf_theta = 0.271; },
      [](SimulationConfig& c) { c.system.avg_copies = 1.0; },
      [](SimulationConfig& c) { c.warmup = 0.0; },
      // Shard knobs. shards = 1 does NOT bypass the sharded differential
      // (run_scenario then derives one shard per server) — it tests
      // whether the drawn count mattered; halving probes the boundary
      // density; one drain worker removes pool scheduling from the repro.
      [](SimulationConfig& c) { c.shards = 1; },
      [](SimulationConfig& c) {
        if (c.shards > 2) c.shards = (c.shards + 1) / 2;
      },
      [](SimulationConfig& c) { c.shard_threads = 1; },
      [](SimulationConfig& c) {
        c.duration = 0.5 * c.duration;
        if (c.warmup >= c.duration) c.warmup = 0.0;
      },
      [](SimulationConfig& c) {
        if (c.system.num_servers > 1) {
          c.system.num_servers = (c.system.num_servers + 1) / 2;
          c.system.bandwidth_profile.clear();
          c.system.storage_profile.clear();
          // Every server-indexed knob must keep referencing real servers:
          // shards (a shard owns >= 1 server), correlated group size, and
          // the topology tree all re-clamp together.
          clamp_to_servers(c);
        }
      },
      [](SimulationConfig& c) {
        if (c.system.num_videos > 2) {
          c.system.num_videos = (c.system.num_videos + 1) / 2;
        }
      },
      [](SimulationConfig& c) {
        if (c.load_factor > 0.3) c.load_factor *= 0.5;
      },
  });

  bool changed = true;
  while (changed) {
    changed = false;
    for (const Transform& transform : transforms) {
      SimulationConfig candidate = config;
      transform(candidate);
      // Idempotence check via the printed form — a transform that is
      // already applied must not count as progress, or the loop never ends.
      if (to_gtest_case(candidate, "s") == to_gtest_case(config, "s")) continue;
      try {
        candidate.validate();
      } catch (const std::invalid_argument&) {
        // A shrink that produces an invalid config would "fail" for the
        // wrong reason; skip it rather than chase a fake reproducer.
        continue;
      }
      if (!run_scenario(candidate).passed) {
        config = candidate;
        changed = true;
      }
    }
  }
  return config;
}

std::string to_gtest_case(const SimulationConfig& config,
                          const std::string& name) {
  std::ostringstream out;
  out << "TEST(FuzzRegression, " << name << ") {\n";
  out << "  vodsim::SimulationConfig config;\n";
  out << "  config.system.name = \"fuzz\";\n";
  for (const ConfigField& field : config_fields()) {
    out << "  config." << field.path << " = " << field.literal(config) << ";\n";
  }
  const SystemConfig& system = config.system;
  for (const auto& [name, profile] : {std::pair{"bandwidth", &system.bandwidth_profile},
                                      std::pair{"storage", &system.storage_profile}}) {
    if (profile->empty()) continue;
    out << "  config.system." << name << "_profile = {";
    for (std::size_t i = 0; i < profile->size(); ++i) {
      out << (i > 0 ? ", " : "") << real_literal((*profile)[i]);
    }
    out << "};\n";
  }
  for (const FaultTransition& fault : config.scripted_faults) {
    out << "  config.scripted_faults.push_back({" << real_literal(fault.time) << ", "
        << fault.server << ", " << kFaultTransitionNames[static_cast<int>(fault.kind)].cpp
        << ", " << real_literal(fault.capacity_factor) << "});\n";
  }
  out << "  const vodsim::FuzzResult result = vodsim::run_scenario(config);\n";
  out << "  EXPECT_TRUE(result.passed) << result.failure;\n";
  out << "}\n";
  return out.str();
}

}  // namespace vodsim
