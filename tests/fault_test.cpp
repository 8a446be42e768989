// Fault-injection subsystem tests: schedule generation (binary alternation,
// flap guard, brownout pairing, correlated groups), the bounded retry queue,
// config validation of the fault knobs, idempotent duplicate transitions,
// crash-recovery outcomes (migrate / drop / park), brownout shedding under
// the paranoid auditor, capacity-loss hand-offs between crash, partition
// and brownout, and the retry re-admission acceptance contract:
// readmissions > 0 and strictly fewer permanent drops than retry-disabled.

#include <gtest/gtest.h>

#include <limits>
#include <map>
#include <set>
#include <stdexcept>
#include <vector>

#include "vodsim/engine/vod_simulation.h"
#include "vodsim/fault/retry_queue.h"
#include "vodsim/fault/schedule.h"

namespace vodsim {
namespace {

FailureConfig crash_config(Seconds mtbf, Seconds mttr) {
  FailureConfig config;
  config.enabled = true;
  config.mean_time_between_failures = mtbf;
  config.mean_time_to_repair = mttr;
  return config;
}

/// Events of one server in schedule order.
std::vector<FaultTransition> events_of(const std::vector<FaultTransition>& schedule,
                                       ServerId server) {
  std::vector<FaultTransition> out;
  for (const FaultTransition& event : schedule) {
    if (event.server == server) out.push_back(event);
  }
  return out;
}

std::size_t count_events(const TraceRecorder& trace, TraceEventType type,
                         ServerId server = kNoServer) {
  std::size_t count = 0;
  for (std::size_t i = 0; i < trace.size(); ++i) {
    const TraceEvent& event = trace[i];
    if (event.type == type && (server == kNoServer || event.server == server)) {
      ++count;
    }
  }
  return count;
}

// ------------------------------------------------------------ fault schedule

TEST(FaultSchedule, DisabledConfigYieldsEmptySchedule) {
  FailureConfig config;  // enabled = false
  Rng rng(1);
  EXPECT_TRUE(
      generate_fault_schedule(config, Topology(TopologyConfig{}, 4), hours(100), rng)
          .empty());
}

TEST(FaultSchedule, BinaryEventsAlternatePerServerAndSortGlobally) {
  const FailureConfig config = crash_config(300.0, 100.0);
  Rng rng(7);
  const std::vector<FaultTransition> schedule =
      generate_fault_schedule(config, Topology(TopologyConfig{}, 3), hours(10), rng);
  ASSERT_FALSE(schedule.empty());

  // Global order: nondecreasing time, (server, kind) tiebreak.
  for (std::size_t i = 1; i < schedule.size(); ++i) {
    EXPECT_LE(schedule[i - 1].time, schedule[i].time);
  }

  for (ServerId server = 0; server < 3; ++server) {
    const std::vector<FaultTransition> events = events_of(schedule, server);
    ASSERT_FALSE(events.empty()) << "server " << server << " never failed";
    bool expect_down = true;
    Seconds last = 0.0;
    for (const FaultTransition& event : events) {
      EXPECT_EQ(event.kind, expect_down ? FaultTransitionKind::kDown
                                        : FaultTransitionKind::kUp);
      EXPECT_GT(event.time, last);
      EXPECT_LT(event.time, hours(10));
      last = event.time;
      expect_down = !expect_down;
    }
  }
}

TEST(FaultSchedule, FlapGuardEnforcesMinimumDwell) {
  FailureConfig config = crash_config(1.0, 1.0);  // pathological flapping
  config.min_dwell = 50.0;
  Rng rng(3);
  const std::vector<FaultTransition> schedule =
      generate_fault_schedule(config, Topology(TopologyConfig{}, 2), 2000.0, rng);
  ASSERT_FALSE(schedule.empty());
  for (ServerId server = 0; server < 2; ++server) {
    Seconds last = 0.0;
    for (const FaultTransition& event : events_of(schedule, server)) {
      EXPECT_GE(event.time - last, 50.0 - 1e-9);
      last = event.time;
    }
  }
}

TEST(FaultSchedule, BrownoutsPairUpAndCarryTheFactor) {
  FailureConfig config = crash_config(hours(1e6), hours(1));  // no crashes
  config.brownout.enabled = true;
  config.brownout.mean_time_between = 200.0;
  config.brownout.mean_duration = 100.0;
  config.brownout.capacity_factor = 0.4;
  Rng rng(11);
  const std::vector<FaultTransition> schedule =
      generate_fault_schedule(config, Topology(TopologyConfig{}, 2), hours(5), rng);
  ASSERT_FALSE(schedule.empty());

  for (ServerId server = 0; server < 2; ++server) {
    bool expect_begin = true;
    for (const FaultTransition& event : events_of(schedule, server)) {
      if (expect_begin) {
        EXPECT_EQ(event.kind, FaultTransitionKind::kBrownoutBegin);
        EXPECT_DOUBLE_EQ(event.capacity_factor, 0.4);
      } else {
        EXPECT_EQ(event.kind, FaultTransitionKind::kBrownoutEnd);
      }
      expect_begin = !expect_begin;
    }
  }
}

TEST(FaultSchedule, CorrelatedGroupsCrashAndRepairTogether) {
  FailureConfig config = crash_config(hours(1e6), hours(1));  // no solo crashes
  config.correlated.enabled = true;
  config.correlated.group_size = 2;
  config.correlated.mean_time_between = 300.0;
  config.correlated.mean_duration = 100.0;
  Rng rng(13);
  const std::vector<FaultTransition> schedule =
      generate_fault_schedule(config, Topology(TopologyConfig{}, 4), hours(5), rng);
  ASSERT_FALSE(schedule.empty());

  // Every outage timestamp hits a whole group: {0,1} or {2,3}.
  std::map<Seconds, std::set<ServerId>> downs;
  for (const FaultTransition& event : schedule) {
    if (event.kind == FaultTransitionKind::kDown) {
      downs[event.time].insert(event.server);
    }
  }
  ASSERT_FALSE(downs.empty());
  for (const auto& [time, members] : downs) {
    EXPECT_EQ(members.size(), 2u) << "partial group outage at t=" << time;
    const std::set<ServerId> low = {0, 1}, high = {2, 3};
    EXPECT_TRUE(members == low || members == high);
  }
}

// --------------------------------------------------------------- retry queue

RetryConfig retry_config(std::size_t max_queue, int max_attempts = 6,
                         Seconds base = 5.0, Seconds cap = 300.0) {
  RetryConfig config;
  config.enabled = true;
  config.max_queue = max_queue;
  config.max_attempts = max_attempts;
  config.backoff_base = base;
  config.backoff_cap = cap;
  return config;
}

TEST(RetryQueueTest, BoundedPushCountsOverflow) {
  RetryQueue queue(retry_config(2));
  EXPECT_TRUE(queue.push({1, 0, 3.0, 0.0, 0, 0.0}));
  EXPECT_TRUE(queue.push({2, 0, 3.0, 0.0, 0, 0.0}));
  EXPECT_FALSE(queue.push({3, 0, 3.0, 0.0, 0, 0.0}));
  EXPECT_EQ(queue.size(), 2u);
  EXPECT_EQ(queue.overflow_count(), 1u);
}

TEST(RetryQueueTest, BackoffDoublesExactlyAndSaturatesAtCap) {
  RetryQueue queue(retry_config(4, 6, 5.0, 35.0));
  EXPECT_DOUBLE_EQ(queue.backoff(0), 5.0);
  EXPECT_DOUBLE_EQ(queue.backoff(1), 10.0);
  EXPECT_DOUBLE_EQ(queue.backoff(2), 20.0);
  EXPECT_DOUBLE_EQ(queue.backoff(3), 35.0);   // min(35, 40)
  EXPECT_DOUBLE_EQ(queue.backoff(20), 35.0);  // deep saturation, no overflow
}

TEST(RetryQueueTest, TakeDueKeepsFifoOrderAndForceDrainsEverything) {
  RetryQueue queue(retry_config(8));
  queue.push({1, 0, 3.0, 0.0, 0, 10.0});
  queue.push({2, 0, 3.0, 0.0, 0, 5.0});
  queue.push({3, 0, 3.0, 0.0, 0, 20.0});
  EXPECT_DOUBLE_EQ(queue.next_attempt_time(), 5.0);

  const std::vector<RetryEntry> due = queue.take_due(12.0, /*force=*/false);
  ASSERT_EQ(due.size(), 2u);
  EXPECT_EQ(due[0].request, 1);  // FIFO (push order), not next_attempt order
  EXPECT_EQ(due[1].request, 2);
  EXPECT_DOUBLE_EQ(queue.next_attempt_time(), 20.0);

  const std::vector<RetryEntry> rest = queue.take_due(0.0, /*force=*/true);
  ASSERT_EQ(rest.size(), 1u);
  EXPECT_EQ(rest[0].request, 3);
  EXPECT_TRUE(queue.empty());
  EXPECT_EQ(queue.next_attempt_time(), std::numeric_limits<double>::infinity());
}

TEST(RetryQueueTest, RemoveRequestDropsTheParkedEntryOnly) {
  RetryQueue queue(retry_config(8));
  queue.push({7, 0, 3.0, 0.0, 0, 0.0});
  queue.push({kNoRetryRequest, 1, 3.0, 0.0, 0, 0.0});
  EXPECT_TRUE(queue.remove_request(7));
  EXPECT_FALSE(queue.remove_request(7));
  EXPECT_EQ(queue.size(), 1u);
}

// --------------------------------------------------------- config validation

SimulationConfig tiny_valid_config() {
  SimulationConfig config;
  config.system.num_servers = 3;
  config.system.num_videos = 10;
  config.duration = 100.0;
  config.warmup = 0.0;
  return config;
}

void expect_invalid(void (*mutate)(SimulationConfig&)) {
  SimulationConfig config = tiny_valid_config();
  mutate(config);
  EXPECT_THROW(config.validate(), std::invalid_argument);
}

TEST(FaultConfigValidation, RejectsBadBrownoutKnobs) {
  expect_invalid([](SimulationConfig& c) {
    c.failure.enabled = true;
    c.failure.brownout.enabled = true;
    c.failure.brownout.capacity_factor = 0.0;
  });
  expect_invalid([](SimulationConfig& c) {
    c.failure.enabled = true;
    c.failure.brownout.enabled = true;
    c.failure.brownout.capacity_factor = 1.0;  // must be a *partial* loss
  });
  expect_invalid([](SimulationConfig& c) {
    c.failure.enabled = true;
    c.failure.brownout.enabled = true;
    c.failure.brownout.mean_time_between = 0.0;
  });
  expect_invalid([](SimulationConfig& c) {
    c.failure.enabled = true;
    c.failure.brownout.enabled = true;
    c.failure.brownout.mean_duration = -1.0;
  });
}

TEST(FaultConfigValidation, RejectsBadCorrelatedAndDwellKnobs) {
  expect_invalid([](SimulationConfig& c) {
    c.failure.enabled = true;
    c.failure.correlated.enabled = true;
    c.failure.correlated.group_size = 0;
  });
  expect_invalid([](SimulationConfig& c) {
    c.failure.enabled = true;
    c.failure.correlated.enabled = true;
    c.failure.correlated.mean_duration = 0.0;
  });
  expect_invalid([](SimulationConfig& c) {
    c.failure.enabled = true;
    c.failure.min_dwell = -1.0;
  });
}

TEST(FaultConfigValidation, RejectsBadRetryAndRepairKnobs) {
  // Retry/repair knobs are validated whenever the sub-feature is on, even
  // without random failure injection (they also serve scripted faults).
  expect_invalid([](SimulationConfig& c) {
    c.failure.retry.enabled = true;
    c.failure.retry.max_queue = 0;
  });
  expect_invalid([](SimulationConfig& c) {
    c.failure.retry.enabled = true;
    c.failure.retry.max_attempts = 0;
  });
  expect_invalid([](SimulationConfig& c) {
    c.failure.retry.enabled = true;
    c.failure.retry.backoff_base = 0.0;
  });
  expect_invalid([](SimulationConfig& c) {
    c.failure.retry.enabled = true;
    c.failure.retry.backoff_base = 10.0;
    c.failure.retry.backoff_cap = 5.0;
  });
  expect_invalid([](SimulationConfig& c) {
    c.failure.repair.enabled = true;
    c.failure.repair.down_threshold = 0.0;
  });
}

TEST(FaultConfigValidation, RejectsBadScriptedFaults) {
  expect_invalid([](SimulationConfig& c) {
    c.scripted_faults.push_back({10.0, 99, FaultTransitionKind::kDown, 1.0});
  });
  expect_invalid([](SimulationConfig& c) {
    c.scripted_faults.push_back({-1.0, 0, FaultTransitionKind::kDown, 1.0});
  });
  expect_invalid([](SimulationConfig& c) {
    c.scripted_faults.push_back(
        {10.0, 0, FaultTransitionKind::kBrownoutBegin, 1.5});
  });
}

// -------------------------------------------------------- engine transitions

/// Small loaded world for scripted-fault engine tests. Long videos keep
/// streams alive across the scripted fault window.
SimulationConfig scripted_world(double avg_copies) {
  SimulationConfig config;
  config.system.name = "fault-test";
  config.system.num_servers = 3;
  config.system.server_bandwidth = 15.0;
  config.system.server_storage = gigabytes(5);
  config.system.video_min_duration = 600.0;
  config.system.video_max_duration = 900.0;
  config.system.num_videos = 12;
  config.system.avg_copies = avg_copies;
  config.system.view_bandwidth = 3.0;
  config.client.staging_fraction = 0.2;
  config.client.receive_bandwidth = 30.0;
  config.load_factor = 1.0;
  config.duration = 1200.0;
  config.warmup = 0.0;
  config.seed = 5;
  config.paranoid = true;
  config.trace.enabled = true;
  return config;
}

TEST(FaultTransitions, DuplicateDownAndUpAreIdempotent) {
  SimulationConfig config = scripted_world(2.0);
  config.scripted_faults = {
      {200.0, 0, FaultTransitionKind::kDown, 1.0},
      {250.0, 0, FaultTransitionKind::kDown, 1.0},  // duplicate down
      {500.0, 0, FaultTransitionKind::kUp, 1.0},
      {550.0, 0, FaultTransitionKind::kUp, 1.0},  // duplicate up
  };
  VodSimulation simulation(config);
  const Metrics& metrics = simulation.run();

  // Duplicates are absorbed: one observable down episode, one recovery.
  EXPECT_EQ(metrics.server_downs(), 1u);
  EXPECT_EQ(metrics.server_recoveries(), 1u);
  const TraceRecorder* trace = simulation.trace();
  ASSERT_NE(trace, nullptr);
  EXPECT_EQ(count_events(*trace, TraceEventType::kServerDown, 0), 1u);
  EXPECT_EQ(count_events(*trace, TraceEventType::kServerUp, 0), 1u);
  EXPECT_TRUE(simulation.servers()[0].available());
  EXPECT_LT(metrics.availability(), 1.0);
}

TEST(FaultRecovery, MigratesOrphansToReplicaHolders) {
  SimulationConfig config = scripted_world(2.5);
  config.load_factor = 0.7;  // leave headroom on the survivors
  config.failure.recover_via_migration = true;
  config.scripted_faults = {
      {300.0, 0, FaultTransitionKind::kDown, 1.0},
      {800.0, 0, FaultTransitionKind::kUp, 1.0},
  };
  VodSimulation simulation(config);
  const Metrics& metrics = simulation.run();

  const TraceRecorder* trace = simulation.trace();
  ASSERT_NE(trace, nullptr);
  const std::size_t recovered =
      count_events(*trace, TraceEventType::kStreamRecovered);
  const std::size_t dropped = count_events(*trace, TraceEventType::kStreamDropped);
  EXPECT_GT(recovered, 0u);
  // Every victim is accounted exactly once: recovered or dropped.
  EXPECT_EQ(dropped, metrics.drops());
  // Replicas plus headroom: recovery dominates.
  EXPECT_GE(recovered, dropped);
}

TEST(FaultRecovery, DropsOrphansWhenMigrationDisabled) {
  SimulationConfig config = scripted_world(2.5);
  config.failure.recover_via_migration = false;
  config.scripted_faults = {
      {300.0, 0, FaultTransitionKind::kDown, 1.0},
      {800.0, 0, FaultTransitionKind::kUp, 1.0},
  };
  VodSimulation simulation(config);
  const Metrics& metrics = simulation.run();

  const TraceRecorder* trace = simulation.trace();
  ASSERT_NE(trace, nullptr);
  EXPECT_EQ(count_events(*trace, TraceEventType::kStreamRecovered), 0u);
  EXPECT_GT(metrics.drops(), 0u);
  EXPECT_EQ(count_events(*trace, TraceEventType::kStreamDropped), metrics.drops());
}

TEST(FaultRecovery, ParksSingleCopyOrphansForRetryAndReadmitsOnRepair) {
  SimulationConfig config = scripted_world(1.0);  // no second replica anywhere
  config.failure.recover_via_migration = true;    // nothing to migrate *to*
  config.failure.retry.enabled = true;
  config.failure.retry.max_queue = 32;
  config.failure.retry.backoff_base = 30.0;
  config.failure.retry.backoff_cap = 120.0;
  config.scripted_faults = {
      {300.0, 0, FaultTransitionKind::kDown, 1.0},
      {500.0, 0, FaultTransitionKind::kUp, 1.0},
  };
  VodSimulation simulation(config);
  const Metrics& metrics = simulation.run();

  // Orphans had no feasible migration target, so they parked...
  EXPECT_GT(metrics.retry_enqueued(), 0u);
  // ...and the server-up force-retry re-admitted at least one of them.
  EXPECT_GT(metrics.readmissions(), 0u);
  const TraceRecorder* trace = simulation.trace();
  ASSERT_NE(trace, nullptr);
  EXPECT_EQ(count_events(*trace, TraceEventType::kRetryReadmitted),
            metrics.readmissions());
}

TEST(Brownout, ShedsOverloadAndRecoversUnderParanoidAudit) {
  SimulationConfig config = scripted_world(2.5);
  config.load_factor = 1.2;  // keep server 0 committed well above 30%
  config.scripted_faults = {
      {200.0, 0, FaultTransitionKind::kBrownoutBegin, 0.3},
      {700.0, 0, FaultTransitionKind::kBrownoutEnd, 1.0},
  };
  VodSimulation simulation(config);  // paranoid: every event audited
  const Metrics& metrics = simulation.run();

  EXPECT_GT(metrics.sheds(), 0u);
  EXPECT_LT(metrics.availability(), 1.0);
  EXPECT_DOUBLE_EQ(simulation.servers()[0].capacity_factor(), 1.0);
  const TraceRecorder* trace = simulation.trace();
  ASSERT_NE(trace, nullptr);
  EXPECT_EQ(count_events(*trace, TraceEventType::kStreamShed), metrics.sheds());
  EXPECT_EQ(count_events(*trace, TraceEventType::kBrownoutBegin, 0), 1u);
  EXPECT_EQ(count_events(*trace, TraceEventType::kBrownoutEnd, 0), 1u);
}

// Capacity-loss hand-offs on one server, against hand-computed integrals.
// At most one cause charges at a time, by precedence down > partition >
// brownout, and a crash interval runs unsplit through a partition that
// begins inside it.
TEST(CapacityLoss, HandOffsChargeOneCauseAtATime) {
  SimulationConfig config = scripted_world(2.5);
  config.topology.enabled = true;
  config.topology.racks = 3;  // one server per rack
  config.scripted_faults = {
      {100.0, 0, FaultTransitionKind::kBrownoutBegin, 0.5},
      {200.0, 0, FaultTransitionKind::kDown, 1.0},
      {300.0, 0, FaultTransitionKind::kPartitionBegin, 1.0},  // while down
      {400.0, 0, FaultTransitionKind::kUp, 1.0},  // up into the partition
      {500.0, 0, FaultTransitionKind::kPartitionEnd, 1.0},  // brownout persists
      {700.0, 0, FaultTransitionKind::kBrownoutEnd, 1.0},
  };
  VodSimulation simulation(config);
  const Metrics& metrics = simulation.run();

  // Server 0's 15 Mb/s link: brownout [100, 200) at 7.5, crash [200, 400)
  // at 15, partition [400, 500) at 15, brownout [500, 700) at 7.5.
  const Megabits lost = 7.5 * 100.0 + 15.0 * 200.0 + 15.0 * 100.0 + 7.5 * 200.0;
  ASSERT_EQ(lost, 6750.0);
  EXPECT_EQ(metrics.availability(), 1.0 - lost / (45.0 * 1200.0));  // 0.875
  EXPECT_EQ(metrics.rack_availability(0), 1.0 - lost / (15.0 * 1200.0));  // 0.625
  EXPECT_EQ(metrics.rack_availability(1), 1.0);
  EXPECT_EQ(metrics.rack_availability(2), 1.0);
  EXPECT_EQ(metrics.zone_availability(0), metrics.availability());
  EXPECT_EQ(metrics.recovery_time().count(), 1u);
  EXPECT_EQ(metrics.recovery_time().mean(), 200.0);
  EXPECT_EQ(metrics.partition_time().mean(), 200.0);  // [300, 500)
  EXPECT_EQ(metrics.server_downs(), 1u);
  EXPECT_EQ(metrics.partitions(), 1u);
  EXPECT_EQ(metrics.partition_heals(), 1u);
}

// ----------------------------------------------------- acceptance: retry wins

// The PR's acceptance contract: under a brownout, retry re-admission must
// actually help — readmissions happen, and strictly fewer streams are
// permanently lost than with retry disabled, on the same seed.
TEST(RetryAcceptance, BrownoutWithRetryBeatsRetryDisabled) {
  SimulationConfig config = scripted_world(1.0);  // sheds cannot migrate
  config.load_factor = 1.2;
  config.scripted_faults = {
      {100.0, 0, FaultTransitionKind::kBrownoutBegin, 0.3},
      {300.0, 0, FaultTransitionKind::kBrownoutEnd, 1.0},
      {100.0, 1, FaultTransitionKind::kBrownoutBegin, 0.3},
      {300.0, 1, FaultTransitionKind::kBrownoutEnd, 1.0},
  };

  SimulationConfig with_retry = config;
  with_retry.failure.retry.enabled = true;
  with_retry.failure.retry.max_queue = 64;
  with_retry.failure.retry.backoff_base = 10.0;
  with_retry.failure.retry.backoff_cap = 60.0;

  VodSimulation retry_on(with_retry);
  const Metrics& metrics_on = retry_on.run();
  VodSimulation retry_off(config);
  const Metrics& metrics_off = retry_off.run();

  EXPECT_GT(metrics_on.readmissions(), 0u);
  EXPECT_GT(metrics_off.drops(), 0u);
  EXPECT_LT(metrics_on.drops(), metrics_off.drops());
}

// ------------------------------------------------- flapping-domain retries

// A rack that flaps down/up (and partitions/heals) faster than any backoff
// can drain is the retry queue's worst case: every heal force-drains the
// queue, every new outage re-parks the survivors. The accounting must stay
// exact — no parked stream leaks (every kMigrating request at the end is
// still queued), no entry exceeds max_attempts, and every parked orphan is
// eventually readmitted, abandoned, or still waiting.
TEST(RetryAcceptance, FlappingRackKeepsRetryAccountingExact) {
  SimulationConfig config = scripted_world(1.0);  // victims cannot migrate
  config.system.num_servers = 4;
  config.topology.enabled = true;
  config.topology.racks = 2;
  config.topology.zones = 2;
  config.load_factor = 1.3;
  config.failure.retry.enabled = true;
  config.failure.retry.max_queue = 64;
  config.failure.retry.max_attempts = 3;
  config.failure.retry.backoff_base = 5.0;
  config.failure.retry.backoff_cap = 40.0;
  // Rack 0 flaps: crash/repair cycles interleaved with partition episodes,
  // each dwell far shorter than a queued entry's worst-case backoff.
  for (int cycle = 0; cycle < 6; ++cycle) {
    const Seconds base = 200.0 + 120.0 * cycle;
    for (ServerId s = 0; s < 2; ++s) {
      config.scripted_faults.push_back({base, s, FaultTransitionKind::kDown, 1.0});
      config.scripted_faults.push_back({base + 40.0, s, FaultTransitionKind::kUp, 1.0});
      config.scripted_faults.push_back(
          {base + 60.0, s, FaultTransitionKind::kPartitionBegin, 1.0});
      config.scripted_faults.push_back(
          {base + 90.0, s, FaultTransitionKind::kPartitionEnd, 1.0});
    }
  }
  VodSimulation simulation(config);  // paranoid via scripted_world
  const Metrics& metrics = simulation.run();

  EXPECT_GT(metrics.retry_enqueued(), 0u);
  EXPECT_GT(metrics.readmissions(), 0u);

  const TraceRecorder* trace = simulation.trace();
  ASSERT_NE(trace, nullptr);
  // Attempts accounting: an abandoned entry used exactly max_attempts.
  for (const TraceEvent& event : trace->snapshot()) {
    if (event.type == TraceEventType::kRetryAbandoned) {
      EXPECT_EQ(event.a, static_cast<double>(config.failure.retry.max_attempts));
    }
  }
  // No leaked kMigrating streams: every request still parked at the end is
  // backed by a live retry-queue entry.
  std::size_t migrating = 0;
  for (const Request& request : simulation.requests()) {
    if (request.state() == RequestState::kMigrating) ++migrating;
  }
  ASSERT_NE(simulation.retry_queue(), nullptr);
  EXPECT_LE(migrating, simulation.retry_queue()->size());
  // Per-orphan conservation: every stream that was ever parked ends the run
  // readmitted (streaming/finished), abandoned (kDone via the drop path),
  // or still legitimately queued (kMigrating, bounded by the queue above).
  std::set<RequestId> parked;
  for (const TraceEvent& event : trace->snapshot()) {
    if (event.type == TraceEventType::kRetryEnqueued && event.request >= 0) {
      parked.insert(event.request);
    }
  }
  EXPECT_FALSE(parked.empty());
  for (RequestId id : parked) {
    const Request& request =
        simulation.requests()[static_cast<std::size_t>(id)];
    const RequestState state = request.state();
    EXPECT_TRUE(state == RequestState::kMigrating ||
                state == RequestState::kStreaming ||
                state == RequestState::kTxComplete ||
                state == RequestState::kDone)
        << "parked request " << id << " leaked in state "
        << static_cast<int>(state);
  }
}

// --------------------------------------------------- glitch dedupe window

// Interruption dedupe must change only the *count*, never the starved
// seconds: a stream glitching twice inside one window is one viewer-facing
// interruption with its full glitch-seconds. Window 0 disables dedupe, and
// a run-length window collapses each stream to at most one interruption.
TEST(GlitchDedupe, WindowDedupesCountsButNeverSeconds) {
  SimulationConfig config = scripted_world(1.0);
  config.load_factor = 1.2;
  config.client.staging_fraction = 0.02;  // ~12 s cover: every park glitches
  config.failure.retry.enabled = true;
  config.failure.retry.max_queue = 64;
  config.failure.retry.backoff_base = 5.0;
  config.failure.retry.backoff_cap = 20.0;
  // Repeated short outages: re-admitted streams re-glitch near their shed.
  for (int cycle = 0; cycle < 4; ++cycle) {
    const Seconds base = 150.0 + 200.0 * cycle;
    config.scripted_faults.push_back({base, 0, FaultTransitionKind::kDown, 1.0});
    config.scripted_faults.push_back(
        {base + 60.0, 0, FaultTransitionKind::kUp, 1.0});
  }

  auto run_with_window = [&](Seconds window) {
    SimulationConfig c = config;
    c.failure.glitch_dedupe_window = window;
    VodSimulation simulation(c);
    const Metrics& metrics = simulation.run();
    std::set<RequestId> glitched;
    for (const TraceEvent& event : simulation.trace()->snapshot()) {
      if (event.type == TraceEventType::kUnderflow) glitched.insert(event.request);
    }
    struct Out {
      std::uint64_t interruptions;
      Seconds glitch_seconds;
      std::size_t glitched_streams;
    };
    return Out{metrics.interruptions(), metrics.glitch_seconds(),
               glitched.size()};
  };

  const auto off = run_with_window(0.0);
  const auto window1 = run_with_window(1.0);
  const auto whole_run = run_with_window(1e9);

  ASSERT_GT(off.interruptions, 0u);
  // Seconds are dedupe-invariant.
  EXPECT_DOUBLE_EQ(off.glitch_seconds, window1.glitch_seconds);
  EXPECT_DOUBLE_EQ(off.glitch_seconds, whole_run.glitch_seconds);
  // Counts only ever shrink as the window grows.
  EXPECT_GE(off.interruptions, window1.interruptions);
  EXPECT_GE(window1.interruptions, whole_run.interruptions);
  // A run-length window counts each glitching stream exactly once.
  EXPECT_EQ(whole_run.interruptions, whole_run.glitched_streams);
  // And without dedupe, some stream glitched more than once, so dedupe
  // actually removed double counting in this scenario.
  EXPECT_GT(off.interruptions, whole_run.interruptions);
}

}  // namespace
}  // namespace vodsim
