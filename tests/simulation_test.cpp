// End-to-end simulation tests: determinism, conservation and continuity
// invariants (parameterized sweeps), analytical cross-validation against
// Erlang-B, and the paper's qualitative dominance relations.

#include <gtest/gtest.h>

#include <cmath>

#include "vodsim/analysis/svbr.h"
#include "vodsim/engine/vod_simulation.h"
#include "vodsim/stats/accumulator.h"
#include "vodsim/workload/request_generator.h"
#include "vodsim/workload/trace.h"

namespace vodsim {
namespace {

/// Fast config: the paper's small system at a short horizon.
SimulationConfig fast_config(double theta = 0.271, std::uint64_t seed = 1) {
  SimulationConfig config;
  config.system = SystemConfig::small_system();
  config.zipf_theta = theta;
  config.duration = hours(20);
  config.warmup = hours(2);
  config.seed = seed;
  return config;
}

double run_utilization(const SimulationConfig& config) {
  VodSimulation simulation(config);
  return simulation.run().utilization();
}

// --------------------------------------------------------------- determinism

TEST(Simulation, DeterministicFromSeed) {
  const SimulationConfig config = fast_config();
  VodSimulation a(config);
  VodSimulation b(config);
  a.run();
  b.run();
  EXPECT_DOUBLE_EQ(a.metrics().utilization(), b.metrics().utilization());
  EXPECT_EQ(a.metrics().arrivals(), b.metrics().arrivals());
  EXPECT_EQ(a.metrics().rejects(), b.metrics().rejects());
  EXPECT_EQ(a.metrics().migration_steps(), b.metrics().migration_steps());
  EXPECT_EQ(a.simulator().executed_count(), b.simulator().executed_count());
}

TEST(Simulation, DifferentSeedsDiffer) {
  SimulationConfig config = fast_config();
  const double u1 = run_utilization(config);
  config.seed = 2;
  const double u2 = run_utilization(config);
  EXPECT_NE(u1, u2);
}

// --------------------------------------------------------------- invariants

struct InvariantCase {
  double theta;
  double staging;
  bool migration;
  std::uint64_t seed;
};

class SimulationInvariants : public ::testing::TestWithParam<InvariantCase> {};

TEST_P(SimulationInvariants, HoldEndToEnd) {
  const InvariantCase param = GetParam();
  SimulationConfig config = fast_config(param.theta, param.seed);
  config.client.staging_fraction = param.staging;
  config.client.receive_bandwidth = 30.0;
  config.admission.migration.enabled = param.migration;
  config.admission.migration.max_hops_per_request = 1;

  VodSimulation simulation(config);
  const Metrics& metrics = simulation.run();

  // Utilization is a fraction of achievable bandwidth.
  EXPECT_GE(metrics.utilization(), 0.0);
  EXPECT_LE(metrics.utilization(), 1.0 + 1e-9);

  // Every windowed arrival was either accepted or rejected.
  EXPECT_EQ(metrics.accepts() + metrics.rejects(), metrics.arrivals());

  // Minimum-flow + instantaneous switching: playback never starves.
  EXPECT_EQ(simulation.continuity_violations(), 0u);
  EXPECT_EQ(metrics.underflow_events(), 0u);

  // Per-request audit.
  const Seconds horizon = config.duration;
  for (const Request& request : simulation.requests()) {
    // Hops respect the configured limit.
    if (param.migration) {
      EXPECT_LE(request.hops(), 1);
    } else {
      EXPECT_EQ(request.hops(), 0);
    }
    // Buffers stay within capacity.
    EXPECT_GE(request.buffer_level(), 0.0);
    EXPECT_LE(request.buffer_level(),
              request.buffer_capacity() + fluid_detail::kLevelTolerance);
    // Completed requests received all of their data (bit conservation);
    // only horizon truncation leaves data in flight.
    if (request.state() == RequestState::kDone &&
        request.playback_end() <= horizon) {
      EXPECT_LE(request.remaining(), Request::kRemainingTolerance)
          << "request " << request.id() << " finished playback without data";
    }
  }

  // Server accounting is consistent at the end of the run.
  for (const Server& server : simulation.servers()) {
    double committed = 0.0;
    for (const Request* request : server.active_requests()) {
      EXPECT_EQ(request->state(), RequestState::kStreaming);
      EXPECT_EQ(request->server(), server.id());
      committed += request->view_bandwidth();
    }
    EXPECT_NEAR(server.committed_bandwidth(), committed, 1e-6);
    EXPECT_LE(committed, server.bandwidth() + 1e-6);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, SimulationInvariants,
    ::testing::Values(InvariantCase{1.0, 0.0, false, 11},
                      InvariantCase{1.0, 0.2, true, 12},
                      InvariantCase{0.271, 0.0, false, 13},
                      InvariantCase{0.271, 0.02, false, 14},
                      InvariantCase{0.271, 0.2, true, 15},
                      InvariantCase{0.0, 0.2, false, 16},
                      InvariantCase{0.0, 1.0, true, 17},
                      InvariantCase{-0.5, 0.2, true, 18},
                      InvariantCase{-1.5, 0.0, true, 19},
                      InvariantCase{-1.5, 1.0, false, 20}),
    [](const ::testing::TestParamInfo<InvariantCase>& info) {
      const InvariantCase& param = info.param;
      std::string name = "theta";
      name += param.theta < 0 ? "m" : "";
      name += std::to_string(static_cast<int>(std::fabs(param.theta) * 100));
      name += "_stage" + std::to_string(static_cast<int>(param.staging * 100));
      name += param.migration ? "_mig" : "_nomig";
      name += "_s" + std::to_string(param.seed);
      return name;
    });

TEST(Simulation, OccupancyConsistentWithUtilization) {
  // Without workahead every active stream transmits at exactly b_view, so
  // utilization == mean_active * b_view / server_bandwidth.
  SimulationConfig config = fast_config(1.0, 41);
  VodSimulation simulation(config);
  const Metrics& metrics = simulation.run();
  const auto occupancy = simulation.occupancy();
  const double implied = occupancy.mean_active * config.system.view_bandwidth /
                         config.system.server_bandwidth;
  EXPECT_NEAR(implied, metrics.utilization(), 0.01);
  EXPECT_GE(occupancy.max_server_mean, occupancy.min_server_mean);
  // Uniform demand + least-loaded assignment: servers stay well balanced.
  EXPECT_LT(occupancy.imbalance, 0.3);
}

// ------------------------------------------------- analytical cross-check

TEST(Simulation, SingleServerMatchesErlangB) {
  // One server, SVBR = 10, no staging, no migration, every video on the
  // server: an M/G/c/c loss system. The paper validates its simulator the
  // same way (full version, [5]).
  SimulationConfig config;
  config.system.name = "erlang";
  config.system.num_servers = 1;
  config.system.server_bandwidth = 30.0;  // c = 10 streams
  config.system.server_storage = gigabytes(1000);
  config.system.num_videos = 20;
  config.system.avg_copies = 1.0;
  config.system.video_min_duration = minutes(10);
  config.system.video_max_duration = minutes(30);
  config.zipf_theta = 1.0;
  config.duration = hours(400);
  config.warmup = hours(20);

  Accumulator observed;
  for (std::uint64_t seed = 1; seed <= 3; ++seed) {
    config.seed = seed;
    observed.add(run_utilization(config));
  }
  const double expected = analytical_utilization(10, 1.0);
  EXPECT_NEAR(observed.mean(), expected, 0.02);
}

TEST(Simulation, HalfLoadIsHalfUtilization) {
  SimulationConfig config = fast_config(1.0);
  config.load_factor = 0.5;
  const double u = run_utilization(config);
  EXPECT_NEAR(u, 0.5, 0.05);
}

TEST(Simulation, OverloadRejectsButSaturates) {
  SimulationConfig config = fast_config(1.0);
  config.load_factor = 1.5;
  config.client.staging_fraction = 0.2;
  config.client.receive_bandwidth = 30.0;
  VodSimulation simulation(config);
  const Metrics& metrics = simulation.run();
  EXPECT_GT(metrics.utilization(), 0.9);
  EXPECT_LE(metrics.utilization(), 1.0 + 1e-9);
  EXPECT_GT(metrics.rejection_ratio(), 0.2);
}

// ------------------------------------------------- qualitative dominance

TEST(Simulation, ZeroStagingEqualsContinuousScheduler) {
  // With no client buffers EFTF degenerates to continuous transmission —
  // bit-for-bit, not just statistically.
  SimulationConfig eftf = fast_config(0.271, 3);
  eftf.client.staging_fraction = 0.0;
  SimulationConfig continuous = eftf;
  continuous.scheduler = SchedulerKind::kContinuous;
  EXPECT_DOUBLE_EQ(run_utilization(eftf), run_utilization(continuous));
}

TEST(Simulation, MigrationNeverHurts) {
  for (std::uint64_t seed : {21, 22, 23}) {
    SimulationConfig off = fast_config(0.271, seed);
    SimulationConfig on = off;
    on.admission.migration.enabled = true;
    on.admission.migration.max_hops_per_request = 1;
    EXPECT_GE(run_utilization(on), run_utilization(off) - 0.01)
        << "seed " << seed;
  }
}

TEST(Simulation, StagingImprovesSmallSystem) {
  SimulationConfig none = fast_config(0.5, 31);
  none.client.receive_bandwidth = 30.0;
  SimulationConfig staged = none;
  staged.client.staging_fraction = 0.2;
  EXPECT_GT(run_utilization(staged), run_utilization(none) + 0.01);
}

TEST(Simulation, MoreStagingNeverHurtsMuch) {
  SimulationConfig base = fast_config(0.5, 32);
  base.client.receive_bandwidth = 30.0;
  double previous = 0.0;
  for (double fraction : {0.0, 0.02, 0.2, 1.0}) {
    base.client.staging_fraction = fraction;
    const double u = run_utilization(base);
    EXPECT_GE(u, previous - 0.01) << "fraction " << fraction;
    previous = u;
  }
}

TEST(Simulation, EftfBeatsLftf) {
  SimulationConfig eftf = fast_config(0.5, 33);
  eftf.client.staging_fraction = 0.2;
  eftf.client.receive_bandwidth = 30.0;
  SimulationConfig lftf = eftf;
  lftf.scheduler = SchedulerKind::kLftf;
  EXPECT_GE(run_utilization(eftf), run_utilization(lftf) - 0.005);
}

TEST(Simulation, PredictiveBeatsEvenUnderExtremeSkew) {
  SimulationConfig even = fast_config(-1.5, 34);
  SimulationConfig predictive = even;
  predictive.placement.kind = PlacementKind::kPredictive;
  EXPECT_GT(run_utilization(predictive), run_utilization(even) + 0.05);
}

TEST(Simulation, UnlimitedHopsAtLeastAsGoodAsOne) {
  SimulationConfig one = fast_config(0.0, 35);
  one.admission.migration.enabled = true;
  one.admission.migration.max_hops_per_request = 1;
  SimulationConfig unlimited = one;
  unlimited.admission.migration.max_hops_per_request = -1;
  EXPECT_GE(run_utilization(unlimited), run_utilization(one) - 0.01);
}

TEST(Simulation, DeepMigrationChainsNeverOvercommit) {
  // Regression: chain >= 2 search may revisit a server (migration cycles);
  // a request must never be planned to move twice, or a server ends up
  // over-committed and utilization exceeds 1.
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    SimulationConfig config = fast_config(0.0, seed);
    config.client.staging_fraction = 0.2;
    config.client.receive_bandwidth = 30.0;
    config.admission.migration.enabled = true;
    config.admission.migration.max_chain_length = 3;
    config.admission.migration.max_hops_per_request = 1;
    VodSimulation simulation(config);
    const Metrics& metrics = simulation.run();
    EXPECT_LE(metrics.utilization(), 1.0 + 1e-9) << "seed " << seed;
    for (const Server& server : simulation.servers()) {
      EXPECT_LE(server.committed_bandwidth(), server.bandwidth() + 1e-6);
    }
  }
}

// ------------------------------------------------- switch latency

TEST(Simulation, SwitchLatencyWithCoverIsSafe) {
  SimulationConfig config = fast_config(0.271, 36);
  config.client.staging_fraction = 0.2;
  config.client.receive_bandwidth = 30.0;
  config.admission.migration.enabled = true;
  config.admission.migration.switch_latency = 5.0;
  VodSimulation simulation(config);
  const Metrics& metrics = simulation.run();
  // Victims are only chosen when their buffer covers the pause, so no
  // continuity violations even with a 5-second outage per migration.
  EXPECT_EQ(simulation.continuity_violations(), 0u);
  EXPECT_GT(metrics.migration_steps(), 0u);
}

// ------------------------------------------------- failure injection

TEST(Simulation, FailuresDropStreamsWithoutRecovery) {
  SimulationConfig config = fast_config(0.5, 37);
  config.failure.enabled = true;
  config.failure.mean_time_between_failures = hours(10);
  config.failure.mean_time_to_repair = hours(1);
  config.failure.recover_via_migration = false;
  VodSimulation simulation(config);
  const Metrics& metrics = simulation.run();
  EXPECT_GT(metrics.drops(), 0u);
}

TEST(Simulation, MigrationRecoveryReducesDrops) {
  SimulationConfig config = fast_config(0.5, 38);
  config.client.staging_fraction = 0.2;
  config.client.receive_bandwidth = 30.0;
  config.failure.enabled = true;
  config.failure.mean_time_between_failures = hours(10);
  config.failure.mean_time_to_repair = hours(1);

  config.failure.recover_via_migration = false;
  VodSimulation no_recovery(config);
  const std::uint64_t drops_without = no_recovery.run().drops();

  config.failure.recover_via_migration = true;
  VodSimulation with_recovery(config);
  const std::uint64_t drops_with = with_recovery.run().drops();

  EXPECT_LT(drops_with, drops_without);
}

// ------------------------------------------------- heterogeneity & drift

TEST(Simulation, HeterogeneousProfilesRun) {
  SimulationConfig config = fast_config(0.271, 39);
  config.system.bandwidth_profile = {0.5, 0.75, 1.0, 1.25, 1.5};
  config.system.storage_profile = {1.5, 1.25, 1.0, 0.75, 0.5};
  config.admission.migration.enabled = true;
  VodSimulation simulation(config);
  const Metrics& metrics = simulation.run();
  EXPECT_GT(metrics.utilization(), 0.5);
  EXPECT_EQ(simulation.continuity_violations(), 0u);
}

TEST(Simulation, DriftRunsAndEvenPlacementIsOblivious) {
  SimulationConfig config = fast_config(0.0, 40);
  config.drift.enabled = true;
  config.drift.period = hours(4);
  config.drift.step = 30;
  config.admission.migration.enabled = true;
  config.client.staging_fraction = 0.2;
  config.client.receive_bandwidth = 30.0;

  const double with_drift = run_utilization(config);
  config.drift.enabled = false;
  const double without_drift = run_utilization(config);
  // Even placement does not care which titles are hot — drift barely moves
  // the needle.
  EXPECT_NEAR(with_drift, without_drift, 0.05);
}

// ------------------------------------------------- trace replay

TEST(Simulation, TraceReplayIsDeterministic) {
  StaticZipfPopularity popularity(300, 0.271);
  SimulationConfig config = fast_config();
  RequestGenerator generator(PoissonProcess(config.arrival_rate()), popularity, 99);
  const RequestTrace trace = RequestTrace::record_until(generator, config.duration);

  VodSimulation a(config, trace);
  VodSimulation b(config, trace);
  a.run();
  b.run();
  EXPECT_DOUBLE_EQ(a.metrics().utilization(), b.metrics().utilization());
  EXPECT_EQ(a.metrics().arrivals(), b.metrics().arrivals());
}

TEST(Simulation, TraceReplayPairsPolicies) {
  StaticZipfPopularity popularity(300, 0.271);
  SimulationConfig config = fast_config();
  RequestGenerator generator(PoissonProcess(config.arrival_rate()), popularity, 98);
  const RequestTrace trace = RequestTrace::record_until(generator, config.duration);

  VodSimulation plain(config, trace);
  const std::uint64_t arrivals_plain = plain.run().arrivals();

  SimulationConfig with_migration = config;
  with_migration.admission.migration.enabled = true;
  VodSimulation migrated(with_migration, trace);
  const std::uint64_t arrivals_migrated = migrated.run().arrivals();

  // Identical arrival streams: the policies see exactly the same demand.
  EXPECT_EQ(arrivals_plain, arrivals_migrated);
}

}  // namespace
}  // namespace vodsim
