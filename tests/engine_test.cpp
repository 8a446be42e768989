// Tests for engine support modules: configuration presets/validation,
// metrics windowing, the Figure 6 policy matrix, failure timelines.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <functional>
#include <limits>
#include <new>
#include <set>
#include <string>
#include <vector>

#include "vodsim/engine/config.h"
#include "vodsim/engine/config_schema.h"
#include "vodsim/fault/schedule.h"
#include "vodsim/engine/metrics.h"
#include "vodsim/engine/policy_matrix.h"

// Counts heap allocations so a test can assert a call makes none. Kept out
// of line so GCC does not pair an inlined free() with a new-expression and
// warn (-Wmismatched-new-delete) about a replacement it cannot see through.
static std::atomic<long> g_allocations{0};

[[gnu::noinline]] void* operator new(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}
[[gnu::noinline]] void operator delete(void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete(void* p, std::size_t) noexcept { std::free(p); }

namespace vodsim {
namespace {

// --------------------------------------------------------------- config

TEST(Config, SmallSystemPreset) {
  const SystemConfig system = SystemConfig::small_system();
  EXPECT_EQ(system.num_servers, 5);
  EXPECT_DOUBLE_EQ(system.server_bandwidth, 100.0);
  EXPECT_DOUBLE_EQ(system.server_storage, gigabytes(100));
  EXPECT_DOUBLE_EQ(system.video_min_duration, minutes(10));
  EXPECT_DOUBLE_EQ(system.video_max_duration, minutes(30));
  EXPECT_DOUBLE_EQ(system.avg_copies, 2.2);
  EXPECT_NEAR(system.svbr(), 33.33, 0.01);
  EXPECT_DOUBLE_EQ(system.total_bandwidth(), 500.0);
}

TEST(Config, LargeSystemPreset) {
  const SystemConfig system = SystemConfig::large_system();
  EXPECT_EQ(system.num_servers, 20);
  EXPECT_DOUBLE_EQ(system.server_bandwidth, 300.0);
  EXPECT_DOUBLE_EQ(system.svbr(), 100.0);
  EXPECT_DOUBLE_EQ(system.total_bandwidth(), 6000.0);
  EXPECT_DOUBLE_EQ(system.mean_video_duration(), hours(1.5));
}

TEST(Config, StoragePhysicallyFitsPresetCatalogs) {
  // The replica budget must fit on disk for both presets — this pins the
  // catalog-size assumption documented in DESIGN.md.
  for (const SystemConfig& system :
       {SystemConfig::small_system(), SystemConfig::large_system()}) {
    const double copies = static_cast<double>(system.num_videos) * system.avg_copies;
    const double bits_needed = copies * system.mean_video_size();
    const double bits_available =
        static_cast<double>(system.num_servers) * system.server_storage;
    EXPECT_LT(bits_needed, bits_available) << system.name;
  }
}

TEST(Config, ArrivalRateSaturatesCapacity) {
  SimulationConfig config;
  config.system = SystemConfig::small_system();
  // rate * mean video size == aggregate bandwidth.
  EXPECT_NEAR(config.arrival_rate() * config.system.mean_video_size(),
              config.system.total_bandwidth(), 1e-9);
  config.load_factor = 0.5;
  EXPECT_NEAR(config.arrival_rate() * config.system.mean_video_size(),
              config.system.total_bandwidth() * 0.5, 1e-9);
}

TEST(Config, StagingCapacityFromFraction) {
  SimulationConfig config;
  config.system = SystemConfig::small_system();
  config.client.staging_fraction = 0.2;
  EXPECT_DOUBLE_EQ(config.staging_capacity(),
                   0.2 * config.system.mean_video_size());
}

TEST(Config, ValidationCatchesNonsense) {
  SimulationConfig good;
  good.system = SystemConfig::small_system();
  EXPECT_NO_THROW(good.validate());

  auto expect_invalid = [](auto mutate) {
    SimulationConfig config;
    config.system = SystemConfig::small_system();
    mutate(config);
    EXPECT_THROW(config.validate(), std::invalid_argument);
  };
  expect_invalid([](SimulationConfig& c) { c.system.num_servers = 0; });
  expect_invalid([](SimulationConfig& c) { c.system.server_bandwidth = -1.0; });
  expect_invalid([](SimulationConfig& c) { c.system.view_bandwidth = 200.0; });
  expect_invalid([](SimulationConfig& c) { c.system.avg_copies = 0.5; });
  expect_invalid([](SimulationConfig& c) { c.client.staging_fraction = -0.1; });
  expect_invalid([](SimulationConfig& c) { c.client.receive_bandwidth = 1.0; });
  expect_invalid([](SimulationConfig& c) { c.load_factor = 0.0; });
  expect_invalid([](SimulationConfig& c) { c.warmup = c.duration; });
  expect_invalid([](SimulationConfig& c) {
    c.system.bandwidth_profile = {1.0, 2.0};  // wrong size for 5 servers
  });
  expect_invalid([](SimulationConfig& c) {
    c.failure.enabled = true;
    c.failure.mean_time_between_failures = 0.0;
  });
}

TEST(Config, EveryRejectableFieldRejectsWithAUsefulMessage) {
  // One row per way SimulationConfig::validate() can fail (a field-table
  // range or a written-out relation): the mutation that trips it and a
  // substring the thrown message must carry, so a user staring at the
  // error can tell *which* field is wrong.
  struct Row {
    const char* what;
    std::function<void(SimulationConfig&)> mutate;
    const char* expect;
  };
  const std::vector<Row> rows = {
      {"num_servers", [](SimulationConfig& c) { c.system.num_servers = 0; },
       "num_servers"},
      {"server_bandwidth",
       [](SimulationConfig& c) { c.system.server_bandwidth = 0.0; },
       "server_bandwidth"},
      {"server_storage",
       [](SimulationConfig& c) { c.system.server_storage = -1.0; },
       "server_storage"},
      {"video_min_duration",
       [](SimulationConfig& c) { c.system.video_min_duration = 0.0; },
       "video_min_duration"},
      {"duration order",
       [](SimulationConfig& c) {
         c.system.video_max_duration = c.system.video_min_duration / 2.0;
       },
       "video_max_duration"},
      {"num_videos", [](SimulationConfig& c) { c.system.num_videos = 0; },
       "num_videos"},
      {"avg_copies", [](SimulationConfig& c) { c.system.avg_copies = 0.9; },
       "avg_copies"},
      {"view_bandwidth",
       [](SimulationConfig& c) { c.system.view_bandwidth = 0.0; },
       "view_bandwidth"},
      {"view > server bandwidth",
       [](SimulationConfig& c) {
         c.system.view_bandwidth = c.system.server_bandwidth * 2.0;
       },
       "cannot sustain"},
      {"bandwidth_profile size",
       [](SimulationConfig& c) { c.system.bandwidth_profile = {1.0}; },
       "bandwidth_profile"},
      {"storage_profile size",
       [](SimulationConfig& c) { c.system.storage_profile = {1.0}; },
       "storage_profile"},
      {"staging_fraction",
       [](SimulationConfig& c) { c.client.staging_fraction = -0.01; },
       "staging_fraction"},
      {"receive below view",
       [](SimulationConfig& c) { c.client.receive_bandwidth = 0.1; },
       "client.receive_bandwidth"},
      {"load_factor", [](SimulationConfig& c) { c.load_factor = 0.0; },
       "load_factor"},
      {"duration", [](SimulationConfig& c) { c.duration = 0.0; }, "duration"},
      {"warmup", [](SimulationConfig& c) { c.warmup = c.duration * 2.0; },
       "warmup"},
      {"max_chain_length",
       [](SimulationConfig& c) { c.admission.migration.max_chain_length = -1; },
       "max_chain_length"},
      {"buffer-aware scheduler pairing",
       [](SimulationConfig& c) {
         c.admission.buffer_aware = true;
         c.scheduler = SchedulerKind::kEftf;
       },
       "intermittent"},
      {"intermittent_safety_cover",
       [](SimulationConfig& c) { c.intermittent_safety_cover = -1.0; },
       "intermittent_safety_cover"},
      {"switch_latency",
       [](SimulationConfig& c) { c.admission.migration.switch_latency = -1.0; },
       "switch_latency"},
      {"MTBF",
       [](SimulationConfig& c) {
         c.failure.enabled = true;
         c.failure.mean_time_between_failures = 0.0;
       },
       "failure.mean_time_between_failures"},
      {"MTTR",
       [](SimulationConfig& c) {
         c.failure.enabled = true;
         c.failure.mean_time_between_failures = 100.0;
         c.failure.mean_time_to_repair = 0.0;
       },
       "failure.mean_time_to_repair"},
      {"min_dwell",
       [](SimulationConfig& c) {
         c.failure.enabled = true;
         c.failure.mean_time_between_failures = 100.0;
         c.failure.min_dwell = -1.0;
       },
       "min_dwell"},
      {"brownout mean_time_between",
       [](SimulationConfig& c) {
         c.failure.enabled = true;
         c.failure.mean_time_between_failures = 100.0;
         c.failure.brownout.enabled = true;
         c.failure.brownout.mean_time_between = 0.0;
       },
       "failure.brownout.mean_time_between"},
      {"brownout mean_duration",
       [](SimulationConfig& c) {
         c.failure.enabled = true;
         c.failure.mean_time_between_failures = 100.0;
         c.failure.brownout.enabled = true;
         c.failure.brownout.mean_duration = 0.0;
       },
       "failure.brownout.mean_duration"},
      {"brownout capacity_factor",
       [](SimulationConfig& c) {
         c.failure.enabled = true;
         c.failure.mean_time_between_failures = 100.0;
         c.failure.brownout.enabled = true;
         c.failure.brownout.capacity_factor = 1.0;
       },
       "capacity_factor"},
      {"correlated group_size",
       [](SimulationConfig& c) {
         c.failure.enabled = true;
         c.failure.mean_time_between_failures = 100.0;
         c.failure.correlated.enabled = true;
         c.failure.correlated.group_size = 0;
       },
       "group_size"},
      {"correlated mean_time_between",
       [](SimulationConfig& c) {
         c.failure.enabled = true;
         c.failure.mean_time_between_failures = 100.0;
         c.failure.correlated.enabled = true;
         c.failure.correlated.mean_time_between = 0.0;
       },
       "failure.correlated.mean_time_between"},
      {"correlated mean_duration",
       [](SimulationConfig& c) {
         c.failure.enabled = true;
         c.failure.mean_time_between_failures = 100.0;
         c.failure.correlated.enabled = true;
         c.failure.correlated.mean_duration = 0.0;
       },
       "failure.correlated.mean_duration"},
      {"correlated group larger than the cluster",
       [](SimulationConfig& c) {
         c.failure.enabled = true;
         c.failure.mean_time_between_failures = 100.0;
         c.failure.correlated.enabled = true;
         c.failure.correlated.group_size = c.system.num_servers + 1;
       },
       "failure.correlated.group_size must not exceed system.num_servers"},
      {"rack outage without topology",
       [](SimulationConfig& c) {
         c.failure.enabled = true;
         c.failure.domains.rack_outage.enabled = true;
       },
       "failure.domains.rack_outage requires topology.enabled"},
      {"zone brownout without topology",
       [](SimulationConfig& c) {
         c.failure.enabled = true;
         c.failure.domains.zone_brownout.enabled = true;
       },
       "failure.domains.zone_brownout requires topology.enabled"},
      {"partition without topology",
       [](SimulationConfig& c) {
         c.failure.enabled = true;
         c.failure.domains.partition.enabled = true;
       },
       "failure.domains.partition requires topology.enabled"},
      {"retry max_queue",
       [](SimulationConfig& c) {
         c.failure.retry.enabled = true;
         c.failure.retry.max_queue = 0;
       },
       "max_queue"},
      {"retry max_attempts",
       [](SimulationConfig& c) {
         c.failure.retry.enabled = true;
         c.failure.retry.max_attempts = 0;
       },
       "max_attempts"},
      {"retry backoff_base",
       [](SimulationConfig& c) {
         c.failure.retry.enabled = true;
         c.failure.retry.backoff_base = 0.0;
       },
       "backoff_base"},
      {"retry backoff_cap",
       [](SimulationConfig& c) {
         c.failure.retry.enabled = true;
         c.failure.retry.backoff_base = 10.0;
         c.failure.retry.backoff_cap = 5.0;
       },
       "backoff_cap"},
      {"repair down_threshold",
       [](SimulationConfig& c) {
         c.failure.repair.enabled = true;
         c.failure.repair.down_threshold = 0.0;
       },
       "down_threshold"},
      {"scripted fault server range",
       [](SimulationConfig& c) {
         c.scripted_faults.push_back({10.0, 99, FaultTransitionKind::kDown, 1.0});
       },
       "out-of-range server"},
      {"scripted fault time",
       [](SimulationConfig& c) {
         c.scripted_faults.push_back({-1.0, 0, FaultTransitionKind::kDown, 1.0});
       },
       "time must be >= 0"},
      {"scripted brownout factor",
       [](SimulationConfig& c) {
         c.scripted_faults.push_back(
             {10.0, 0, FaultTransitionKind::kBrownoutBegin, 1.5});
       },
       "capacity_factor"},
      {"drift period",
       [](SimulationConfig& c) {
         c.drift.enabled = true;
         c.drift.period = 0.0;
       },
       "drift.period"},
      {"pauses_per_hour",
       [](SimulationConfig& c) {
         c.interactivity.enabled = true;
         c.interactivity.pauses_per_hour = 0.0;
       },
       "pauses_per_hour"},
      {"mean_pause_duration",
       [](SimulationConfig& c) {
         c.interactivity.enabled = true;
         c.interactivity.pauses_per_hour = 6.0;
         c.interactivity.mean_pause_duration = 0.0;
       },
       "mean_pause_duration"},
      {"rejection_threshold",
       [](SimulationConfig& c) {
         c.replication.enabled = true;
         c.replication.rejection_threshold = 0;
       },
       "rejection_threshold"},
      {"replication window",
       [](SimulationConfig& c) {
         c.replication.enabled = true;
         c.replication.window = 0.0;
       },
       "replication.window"},
      {"transfer_bandwidth",
       [](SimulationConfig& c) {
         c.replication.enabled = true;
         c.replication.transfer_bandwidth = 0.0;
       },
       "transfer_bandwidth"},
      {"replication max_concurrent",
       [](SimulationConfig& c) {
         c.replication.enabled = true;
         c.replication.max_concurrent = 0;
       },
       "max_concurrent"},
      {"trace capacity",
       [](SimulationConfig& c) {
         c.trace.enabled = true;
         c.trace.capacity = 0;
       },
       "trace.capacity"},
      {"probe period",
       [](SimulationConfig& c) {
         c.probe.enabled = true;
         c.probe.period = 0.0;
       },
       "probe.period"},
      {"zipf_theta", [](SimulationConfig& c) { c.zipf_theta = 1.5; }, "zipf_theta"},
      {"partial_head_fraction",
       [](SimulationConfig& c) { c.placement.partial_head_fraction = 0.0; },
       "placement.partial_head_fraction"},
      {"partial_tail_shift",
       [](SimulationConfig& c) { c.placement.partial_tail_shift = 1.0; },
       "placement.partial_tail_shift"},
      {"max_search_nodes",
       [](SimulationConfig& c) { c.admission.migration.max_search_nodes = 0; },
       "admission.migration.max_search_nodes"},
      {"max_hops_per_request",
       [](SimulationConfig& c) { c.admission.migration.max_hops_per_request = -2; },
       "admission.migration.max_hops_per_request"},
  };

  for (const Row& row : rows) {
    SimulationConfig config;
    config.system = SystemConfig::small_system();
    row.mutate(config);
    try {
      config.validate();
      ADD_FAILURE() << row.what << ": expected validate() to throw";
    } catch (const std::invalid_argument& error) {
      EXPECT_NE(std::string(error.what()).find(row.expect), std::string::npos)
          << row.what << ": message \"" << error.what()
          << "\" does not mention \"" << row.expect << "\"";
    }
  }
}

TEST(Config, ValidateOfAValidConfigDoesNotAllocate) {
  // VodSimulation's constructor validates, so this cost sits in every
  // trial's setup; error messages are built only on failure.
  SimulationConfig config;
  config.system = SystemConfig::small_system();
  config.failure.enabled = true;  // open a few gates
  config.failure.retry.enabled = true;
  config.validate();  // warm any lazy statics
  const long before = g_allocations.load();
  config.validate();
  EXPECT_EQ(g_allocations.load(), before);
}

TEST(ConfigSchema, PathsAreUniqueAndGatesAreBoolRows) {
  std::set<std::string> paths;
  std::set<std::string> flags;
  for (const ConfigField& field : config_fields()) {
    EXPECT_TRUE(paths.insert(field.path).second) << "duplicate row " << field.path;
    EXPECT_EQ(find_config_field(field.path), &field);
    if (field.cli.name != nullptr) {
      EXPECT_TRUE(flags.insert(field.cli.name).second) << "duplicate flag " << field.cli.name;
    }
    if (field.gate != nullptr) {
      const ConfigField* gate = gate_of(field);
      ASSERT_NE(gate, nullptr) << field.path << " names a missing gate " << field.gate;
      EXPECT_EQ(gate->kind, FieldKind::kBool) << field.path;
    }
  }
  EXPECT_EQ(find_config_field("no.such.field"), nullptr);
}

TEST(Config, ValidationRejectsNonFiniteFields) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  const std::vector<std::function<void(SimulationConfig&)>> mutations = {
      [=](SimulationConfig& c) { c.system.server_bandwidth = nan; },
      [=](SimulationConfig& c) { c.system.server_storage = nan; },
      [=](SimulationConfig& c) { c.system.video_min_duration = nan; },
      [=](SimulationConfig& c) { c.system.video_max_duration = inf; },
      [=](SimulationConfig& c) { c.system.avg_copies = nan; },
      [=](SimulationConfig& c) { c.system.view_bandwidth = nan; },
      [=](SimulationConfig& c) { c.client.staging_fraction = nan; },
      [=](SimulationConfig& c) { c.client.receive_bandwidth = nan; },
      [=](SimulationConfig& c) { c.zipf_theta = nan; },
      [=](SimulationConfig& c) { c.load_factor = nan; },
      [=](SimulationConfig& c) { c.load_factor = inf; },
      [=](SimulationConfig& c) { c.duration = nan; },
      [=](SimulationConfig& c) { c.warmup = nan; },
      [=](SimulationConfig& c) { c.intermittent_safety_cover = nan; },
      [=](SimulationConfig& c) {
        c.system.bandwidth_profile = {1.0, 1.0, nan, 1.0, 1.0};
      },
      [=](SimulationConfig& c) {
        c.system.storage_profile = {1.0, 1.0, 1.0, inf, 1.0};
      },
  };
  for (std::size_t i = 0; i < mutations.size(); ++i) {
    SimulationConfig config;
    config.system = SystemConfig::small_system();
    mutations[i](config);
    EXPECT_THROW(config.validate(), std::invalid_argument) << "mutation " << i;
  }
  // The documented exception: receive_bandwidth = +infinity means "no cap".
  SimulationConfig uncapped;
  uncapped.system = SystemConfig::small_system();
  uncapped.client.receive_bandwidth = inf;
  EXPECT_NO_THROW(uncapped.validate());
}

TEST(Config, NormalizeProfileKeepsTotals) {
  const auto normalized = normalize_profile({1.0, 2.0, 3.0}, 3);
  EXPECT_NEAR(normalized[0] + normalized[1] + normalized[2], 3.0, 1e-12);
  EXPECT_NEAR(normalized[2] / normalized[0], 3.0, 1e-12);
  EXPECT_THROW(normalize_profile({1.0}, 3), std::invalid_argument);
  EXPECT_THROW(normalize_profile({1.0, -1.0, 1.0}, 3), std::invalid_argument);
}

TEST(Config, MakeServersAppliesProfiles) {
  SystemConfig system = SystemConfig::small_system();
  system.bandwidth_profile = {1.0, 1.0, 1.0, 1.0, 6.0};
  const auto servers = make_servers(system);
  ASSERT_EQ(servers.size(), 5u);
  double total = 0.0;
  for (const Server& server : servers) total += server.bandwidth();
  EXPECT_NEAR(total, system.total_bandwidth(), 1e-6);
  EXPECT_GT(servers[4].bandwidth(), servers[0].bandwidth());
}

TEST(Config, MakeServersHomogeneousByDefault) {
  const auto servers = make_servers(SystemConfig::large_system());
  for (const Server& server : servers) {
    EXPECT_DOUBLE_EQ(server.bandwidth(), 300.0);
    EXPECT_DOUBLE_EQ(server.storage_capacity(), gigabytes(150));
  }
}

// --------------------------------------------------------------- metrics

TEST(Metrics, UtilizationClipsToWindow) {
  Metrics metrics(/*window_start=*/100.0, /*window_end=*/200.0,
                  /*total_bandwidth=*/10.0);
  metrics.record_transmission(0.0, 300.0, 10.0);  // only [100,200] counts
  EXPECT_DOUBLE_EQ(metrics.utilization(), 1.0);
  EXPECT_DOUBLE_EQ(metrics.transmitted(), 1000.0);
}

TEST(Metrics, PartialOverlapCounts) {
  Metrics metrics(100.0, 200.0, 10.0);
  metrics.record_transmission(150.0, 250.0, 4.0);  // 50 s inside
  EXPECT_DOUBLE_EQ(metrics.transmitted(), 200.0);
  EXPECT_DOUBLE_EQ(metrics.utilization(), 0.2);
}

TEST(Metrics, OutsideWindowIgnored) {
  Metrics metrics(100.0, 200.0, 10.0);
  metrics.record_transmission(0.0, 99.0, 10.0);
  metrics.record_transmission(200.0, 300.0, 10.0);
  metrics.record_arrival(50.0);
  metrics.record_rejection(250.0);
  EXPECT_DOUBLE_EQ(metrics.transmitted(), 0.0);
  EXPECT_EQ(metrics.arrivals(), 0u);
  EXPECT_EQ(metrics.rejects(), 0u);
}

TEST(Metrics, RatiosFromCounts) {
  Metrics metrics(0.0, 100.0, 10.0);
  for (int i = 0; i < 8; ++i) metrics.record_arrival(10.0);
  for (int i = 0; i < 6; ++i) metrics.record_acceptance(10.0, i % 2 == 0);
  for (int i = 0; i < 2; ++i) metrics.record_rejection(10.0);
  metrics.record_migration_chain(10.0, 2);
  EXPECT_DOUBLE_EQ(metrics.rejection_ratio(), 0.25);
  EXPECT_EQ(metrics.accepts_via_migration(), 3u);
  EXPECT_DOUBLE_EQ(metrics.migrations_per_arrival(), 0.25);
}

TEST(Metrics, ZeroRateIgnored) {
  Metrics metrics(0.0, 100.0, 10.0);
  metrics.record_transmission(0.0, 100.0, 0.0);
  EXPECT_DOUBLE_EQ(metrics.transmitted(), 0.0);
}

TEST(Metrics, EmptyRatiosAreZero) {
  Metrics metrics(0.0, 100.0, 10.0);
  EXPECT_DOUBLE_EQ(metrics.rejection_ratio(), 0.0);
  EXPECT_DOUBLE_EQ(metrics.migrations_per_arrival(), 0.0);
}

TEST(Metrics, UnderflowAndDrops) {
  Metrics metrics(0.0, 100.0, 10.0);
  metrics.record_underflow(5.0, 12.0);
  metrics.record_drop(6.0);
  metrics.record_completion(7.0);
  EXPECT_EQ(metrics.underflow_events(), 1u);
  EXPECT_DOUBLE_EQ(metrics.underflow_megabits(), 12.0);
  EXPECT_EQ(metrics.drops(), 1u);
  EXPECT_EQ(metrics.completions(), 1u);
}

// --------------------------------------------------------------- policy matrix

TEST(PolicyMatrix, EightPoliciesInPaperOrder) {
  const auto& policies = figure6_policies();
  ASSERT_EQ(policies.size(), 8u);
  EXPECT_EQ(policies[0].label, "P1");
  EXPECT_EQ(policies[7].label, "P8");
  // P1-P4 even, P5-P8 predictive.
  for (int i = 0; i < 4; ++i) {
    EXPECT_EQ(policies[static_cast<std::size_t>(i)].placement, PlacementKind::kEven);
    EXPECT_EQ(policies[static_cast<std::size_t>(i + 4)].placement,
              PlacementKind::kPredictive);
  }
  // Migration on P3, P4, P7, P8.
  EXPECT_FALSE(policies[0].migration);
  EXPECT_FALSE(policies[1].migration);
  EXPECT_TRUE(policies[2].migration);
  EXPECT_TRUE(policies[3].migration);
  // Staging 20% on even indices P2, P4, P6, P8.
  EXPECT_DOUBLE_EQ(policies[1].staging_fraction, 0.2);
  EXPECT_DOUBLE_EQ(policies[3].staging_fraction, 0.2);
  EXPECT_DOUBLE_EQ(policies[0].staging_fraction, 0.0);
}

TEST(PolicyMatrix, ApplyPolicySetsKnobs) {
  SimulationConfig base;
  base.system = SystemConfig::small_system();
  base.client.receive_bandwidth = 30.0;
  const SimulationConfig p4 = apply_policy(base, figure6_policies()[3]);
  EXPECT_EQ(p4.placement.kind, PlacementKind::kEven);
  EXPECT_TRUE(p4.admission.migration.enabled);
  EXPECT_EQ(p4.admission.migration.max_chain_length, 1);
  EXPECT_EQ(p4.admission.migration.max_hops_per_request, 1);
  EXPECT_DOUBLE_EQ(p4.client.staging_fraction, 0.2);
  EXPECT_DOUBLE_EQ(p4.client.receive_bandwidth, 30.0);  // preserved
}

TEST(PolicyMatrix, DescriptionsReadable) {
  EXPECT_EQ(figure6_policies()[3].description(), "even + migration + 20% buffer");
  EXPECT_EQ(figure6_policies()[4].description(),
            "predictive + no-migration + 0% buffer");
}

// --------------------------------------------------------------- failure timeline

TEST(FailureTimeline, DisabledIsEmpty) {
  FailureConfig config;
  Rng rng(1);
  EXPECT_TRUE(
      generate_fault_schedule(config, Topology(TopologyConfig{}, 10), hours(100), rng)
          .empty());
}

TEST(FailureTimeline, AlternatesPerServerAndSorted) {
  FailureConfig config;
  config.enabled = true;
  config.mean_time_between_failures = hours(10);
  config.mean_time_to_repair = hours(1);
  Rng rng(2);
  const auto events =
      generate_fault_schedule(config, Topology(TopologyConfig{}, 4), hours(200), rng);
  ASSERT_FALSE(events.empty());
  Seconds last = 0.0;
  std::vector<bool> down(4, false);
  for (const FaultTransition& event : events) {
    EXPECT_GE(event.time, last);
    last = event.time;
    ASSERT_GE(event.server, 0);
    ASSERT_LT(event.server, 4);
    // Per server: down, up, down, up...
    const auto s = static_cast<std::size_t>(event.server);
    const bool up = event.kind == FaultTransitionKind::kUp;
    ASSERT_TRUE(up || event.kind == FaultTransitionKind::kDown);
    EXPECT_EQ(up, down[s]);
    down[s] = !up;
  }
}

TEST(FailureTimeline, RateRoughlyMatchesMtbf) {
  FailureConfig config;
  config.enabled = true;
  config.mean_time_between_failures = hours(10);
  config.mean_time_to_repair = hours(0.1);
  Rng rng(3);
  const auto events =
      generate_fault_schedule(config, Topology(TopologyConfig{}, 1), hours(10000), rng);
  int failures = 0;
  for (const FaultTransition& event : events) {
    if (event.kind == FaultTransitionKind::kDown) ++failures;
  }
  // ~1000 expected failures; allow wide slack.
  EXPECT_GT(failures, 800);
  EXPECT_LT(failures, 1200);
}

}  // namespace
}  // namespace vodsim
