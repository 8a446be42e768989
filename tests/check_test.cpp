// The check subsystem's own tests: the invariant auditor must reject
// fabricated broken states (it is not vacuous), full engine runs under
// paranoid mode must pass it, and the reference oracle must agree with the
// engine on configurations inside its scope.

#include <gtest/gtest.h>

#include <stdexcept>
#include <string_view>

#include "vodsim/check/fuzzer.h"
#include "vodsim/check/invariant_auditor.h"
#include "vodsim/check/reference_oracle.h"
#include "vodsim/cluster/request.h"
#include "vodsim/cluster/server.h"
#include "vodsim/cluster/video.h"
#include "vodsim/engine/policy_matrix.h"
#include "vodsim/engine/vod_simulation.h"
#include "vodsim/fault/schedule.h"
#include "vodsim/util/env.h"

namespace vodsim {
namespace {

// --- auditor negatives on fabricated states ------------------------------
// Each test builds a tiny broken world by hand and expects the specific
// static check to throw. Positive control first: a healthy state passes.

Video test_video() {
  Video video;
  video.id = 0;
  video.duration = 100.0;
  video.view_bandwidth = 3.0;
  return video;
}

ClientProfile test_client() {
  ClientProfile client;
  client.buffer_capacity = 10.0;
  client.receive_bandwidth = 30.0;
  return client;
}

TEST(InvariantAuditorChecks, HealthyServerPasses) {
  Server server(0, /*bandwidth=*/10.0, /*storage=*/1000.0);
  Request request(0, test_video(), /*arrival=*/0.0, test_client());
  request.begin_streaming(0.0, server.id());
  server.attach(request);
  request.set_allocation(0.0, 3.0);

  InvariantAuditor::ServerExpectations expect;
  EXPECT_NO_THROW(InvariantAuditor::check_server(server, expect));
}

TEST(InvariantAuditorChecks, DetectsLinkOvercommit) {
  // Two 6 Mb/s streams on a 10 Mb/s link: only reachable when capacity
  // enforcement is off (buffer-aware admission), and then the *allocations*
  // must still fit the physical link.
  Video video = test_video();
  video.view_bandwidth = 6.0;
  Server server(0, 10.0, 1000.0);
  Request a(0, video, 0.0, test_client());
  Request b(1, video, 0.0, test_client());
  a.begin_streaming(0.0, server.id());
  b.begin_streaming(0.0, server.id());
  server.attach(a, /*enforce_capacity=*/false);
  server.attach(b, /*enforce_capacity=*/false);
  a.set_allocation(0.0, 6.0);
  b.set_allocation(0.0, 6.0);

  InvariantAuditor::ServerExpectations expect;
  expect.enforce_capacity = false;  // commitments are allowed to exceed...
  EXPECT_THROW(InvariantAuditor::check_server(server, expect),
               AuditFailure);  // ...but physical allocations are not.

  // With capacity enforcement promised, the commitment itself is the
  // violation even before looking at allocations.
  expect.enforce_capacity = true;
  EXPECT_THROW(InvariantAuditor::check_server(server, expect), AuditFailure);
}

TEST(InvariantAuditorChecks, DetectsMinimumFlowDeficit) {
  Server server(0, 10.0, 1000.0);
  Request request(0, test_video(), 0.0, test_client());
  request.begin_streaming(0.0, server.id());
  server.attach(request);
  request.set_allocation(0.0, 1.0);  // below the 3 Mb/s view rate

  InvariantAuditor::ServerExpectations expect;
  expect.minimum_flow = true;
  EXPECT_THROW(InvariantAuditor::check_server(server, expect), AuditFailure);

  // The same state is legal under a scheduler that does not promise
  // minimum flow (intermittent feeding).
  expect.minimum_flow = false;
  EXPECT_NO_THROW(InvariantAuditor::check_server(server, expect));
}

TEST(InvariantAuditorChecks, DetectsStreamsOnFailedServer) {
  Server server(0, 10.0, 1000.0);
  Request request(0, test_video(), 0.0, test_client());
  request.begin_streaming(0.0, server.id());
  server.attach(request);
  request.set_allocation(0.0, 3.0);
  server.set_available(false);

  InvariantAuditor::ServerExpectations expect;
  EXPECT_THROW(InvariantAuditor::check_server(server, expect), AuditFailure);
}

TEST(InvariantAuditorChecks, DetectsStaleBackPointer) {
  Server host(0, 10.0, 1000.0);
  Server other(1, 10.0, 1000.0);
  Request request(0, test_video(), 0.0, test_client());
  request.begin_streaming(0.0, other.id());  // points at the wrong server
  host.attach(request);
  request.set_allocation(0.0, 3.0);

  EXPECT_THROW(InvariantAuditor::check_request(request, host, 0), AuditFailure);
}

TEST(InvariantAuditorChecks, DetectsActiveIndexMismatch) {
  Server server(0, 10.0, 1000.0);
  Request request(0, test_video(), 0.0, test_client());
  request.begin_streaming(0.0, server.id());
  server.attach(request);
  request.set_allocation(0.0, 3.0);

  EXPECT_THROW(InvariantAuditor::check_request(request, server, /*index=*/5),
               AuditFailure);
}

// The timer check is a pure function of (lane keys, armed key): these feed
// it doctored lanes directly, with no engine in the loop.
TEST(InvariantAuditorChecks, PredictionTimerMustSitAtTheEarliestKey) {
  Server server(0, 10.0, 1000.0);
  Request first(0, test_video(), 0.0, test_client());
  Request second(1, test_video(), 0.0, test_client());
  for (Request* request : {&first, &second}) {
    request->begin_streaming(0.0, server.id());
    server.attach(*request);
  }
  // An idle timer over a lane with no live key is consistent.
  EXPECT_NO_THROW(InvariantAuditor::check_prediction_timer(server, kNoEventKey));

  const EventKey late{50.0, 3};
  const EventKey early{20.0, 7};
  const EventKey tie{20.0, 9};  // same time, later seq: loses the tie
  server.lane().set_predictions(first.active_index, {late, kNoEventKey, tie});
  server.lane().set_predictions(second.active_index,
                                {kNoEventKey, early, kNoEventKey});
  EXPECT_NO_THROW(InvariantAuditor::check_prediction_timer(server, early));
  for (const EventKey armed : {late, tie, kNoEventKey, EventKey{20.0, 6}}) {
    EXPECT_THROW(InvariantAuditor::check_prediction_timer(server, armed),
                 AuditFailure)
        << "armed at (" << armed.time << ", " << armed.seq << ")";
  }

  // Dropping every key leaves a timer that should have been cancelled.
  server.lane().set_predictions(first.active_index, kNoPredictions);
  server.lane().set_predictions(second.active_index, kNoPredictions);
  EXPECT_THROW(InvariantAuditor::check_prediction_timer(server, early),
               AuditFailure);
}

TEST(InvariantAuditorChecks, DetectsPredictionOfNonStreamingRequest) {
  Server server(0, 10.0, 1000.0);
  Request request(0, test_video(), 0.0, test_client());
  // mark_done, mark_tx_complete and begin_migration assert that the request
  // was detached; a request that never began streaming can still be
  // attached and then rejected, which leaves it attached and not streaming.
  server.attach(request, /*enforce_capacity=*/false);
  request.mark_rejected();
  const EventKey key{30.0, 4};
  server.lane().set_predictions(request.active_index,
                                {key, kNoEventKey, kNoEventKey});
  // Armed exactly at the key: only the holder's state is wrong.
  EXPECT_THROW(InvariantAuditor::check_prediction_timer(server, key),
               AuditFailure);
}

// The lane's tracked earliest must name a slot that holds the armed key. A
// lane keeps that true under every operation the engine uses; this one is
// fabricated by two slots sharing one key (the engine never reuses a seq)
// and removing the tracked holder straight from the lane, past
// Server::detach's no-live-key assert. The duplicate keeps the armed key
// the lane's earliest, so only the holder check can fail.
TEST(InvariantAuditorChecks, DetectsTrackedHolderInTheWrongSlot) {
  Server server(0, 10.0, 1000.0);
  Request requests[] = {Request(0, test_video(), 0.0, test_client()),
                        Request(1, test_video(), 0.0, test_client()),
                        Request(2, test_video(), 0.0, test_client())};
  for (Request& request : requests) {
    request.begin_streaming(0.0, server.id());
    server.attach(request, /*enforce_capacity=*/false);
  }
  FluidLane& lane = server.lane();
  const EventKey early{20.0, 5};
  const EventKey late{50.0, 9};
  lane.set_predictions(0, {early, kNoEventKey, kNoEventKey});  // the holder
  lane.set_predictions(1, {early, kNoEventKey, kNoEventKey});
  lane.set_predictions(2, {late, kNoEventKey, kNoEventKey});
  EXPECT_NO_THROW(InvariantAuditor::check_prediction_timer(server, early));

  lane.remove(0);  // slot 0 now holds `late`; the tracking still says 0
  ASSERT_NE(lane.tracked_prediction(), nullptr);
  ASSERT_EQ(lane.tracked_prediction()->slot, 0u);
  ASSERT_EQ(lane.tracked_prediction()->key, early);
  EXPECT_THROW(InvariantAuditor::check_prediction_timer(server, early),
               AuditFailure);
}

TEST(InvariantAuditorChecks, DetectsStalePredictionTracking) {
  Server server(0, 10.0, 1000.0);
  Request request(0, test_video(), 0.0, test_client());
  request.begin_streaming(0.0, server.id());
  server.attach(request, /*enforce_capacity=*/false);
  const EventKey key{30.0, 4};
  server.lane().set_predictions(0, {key, kNoEventKey, kNoEventKey});
  server.lane().set_predictions(0, {key, kNoEventKey, kNoEventKey});
  // Rewriting the holder marks the tracking stale until the next query.
  ASSERT_EQ(server.lane().tracked_prediction(), nullptr);
  EXPECT_THROW(InvariantAuditor::check_prediction_timer(server, key),
               AuditFailure);
  server.lane().next_prediction();
  EXPECT_NO_THROW(InvariantAuditor::check_prediction_timer(server, key));
}

// --- paranoid engine runs -------------------------------------------------

SimulationConfig paranoid_base(std::uint64_t seed) {
  SimulationConfig config;
  config.system = SystemConfig::small_system();
  config.zipf_theta = 0.271;
  config.client.receive_bandwidth = 30.0;
  config.duration = hours(0.25);
  config.warmup = 0.0;
  config.seed = seed;
  config.paranoid = true;
  return config;
}

TEST(ParanoidMode, GoldenPolicyMatrixPassesTheAuditor) {
  for (const PolicySpec& policy : figure6_policies()) {
    SCOPED_TRACE(policy.label);
    SimulationConfig config = apply_policy(paranoid_base(7), policy);
    VodSimulation simulation(config);
    ASSERT_NO_THROW(simulation.run());
    ASSERT_NE(simulation.auditor(), nullptr);
    EXPECT_GT(simulation.auditor()->events_audited(), 0u);
    EXPECT_GT(simulation.auditor()->checks_run(),
              simulation.auditor()->events_audited());
  }
}

TEST(ParanoidMode, FeatureConfigsPassTheAuditor) {
  // Failure injection with DRM recovery.
  SimulationConfig failure = paranoid_base(11);
  failure.failure.enabled = true;
  failure.failure.mean_time_between_failures = hours(0.05);
  failure.failure.mean_time_to_repair = hours(0.02);
  EXPECT_NO_THROW(VodSimulation(failure).run());

  // Dynamic replication under overload.
  SimulationConfig replication = paranoid_base(13);
  replication.load_factor = 2.0;
  replication.system.avg_copies = 1.0;
  replication.replication.enabled = true;
  replication.replication.rejection_threshold = 1;
  replication.replication.window = 600.0;
  EXPECT_NO_THROW(VodSimulation(replication).run());

  // VCR interactivity (pauses shift deadlines; full buffers go slack).
  SimulationConfig interactivity = paranoid_base(17);
  interactivity.client.staging_fraction = 0.2;
  interactivity.interactivity.enabled = true;
  interactivity.interactivity.pauses_per_hour = 40.0;
  interactivity.interactivity.mean_pause_duration = 30.0;
  EXPECT_NO_THROW(VodSimulation(interactivity).run());

  // Intermittent transmission with staging (no minimum-flow promise).
  SimulationConfig intermittent = paranoid_base(19);
  intermittent.client.staging_fraction = 0.2;
  intermittent.scheduler = SchedulerKind::kIntermittent;
  intermittent.intermittent_safety_cover = 5.0;
  EXPECT_NO_THROW(VodSimulation(intermittent).run());
}

// The engine hands every rejection its admission controller served from
// the rejection memo to check_memoized_rejection, which re-decides it on a
// fresh controller. A saturated DRM run with retries repeats rejections at
// one cluster version; after it, doctored memo decisions must fail.
TEST(ParanoidMode, MemoizedRejectionsMustMatchAFreshDecision) {
  SimulationConfig config = paranoid_base(29);
  config.load_factor = 2.0;
  config.client.staging_fraction = 0.2;
  config.admission.migration.enabled = true;
  config.admission.migration.max_chain_length = 2;
  config.failure.enabled = true;
  config.failure.mean_time_between_failures = hours(0.1);
  config.failure.mean_time_to_repair = hours(0.02);
  config.failure.retry.enabled = true;
  VodSimulation simulation(config);
  ASSERT_NO_THROW(simulation.run());
  ASSERT_NE(simulation.auditor(), nullptr);

  // At the horizon the cluster is saturated: fresh decisions reject, and a
  // memo charging the same search passes while one charging another fails.
  const AdmissionController fresh(simulation.controller().config(),
                                  simulation.directory());
  int rejected = 0;
  for (const Video& video : simulation.catalog().videos()) {
    Rng rng(1);
    const AdmissionDecision decision =
        fresh.decide(0.0, video.id, video.view_bandwidth, simulation.servers(), rng);
    if (decision.accepted) continue;
    ++rejected;
    AdmissionDecision memoized;
    memoized.memoized = true;
    memoized.search_nodes = decision.search_nodes;
    EXPECT_NO_THROW(simulation.auditor()->check_memoized_rejection(
        video.id, video.view_bandwidth, memoized));
    memoized.search_nodes = decision.search_nodes + 1;
    EXPECT_THROW(simulation.auditor()->check_memoized_rejection(
                     video.id, video.view_bandwidth, memoized),
                 AuditFailure);
  }
  EXPECT_GT(rejected, 0);

  // Before any arrival every holder has room: a memo that rejects what a
  // fresh decision accepts fails.
  const VodSimulation idle(config);
  const Video& video = idle.catalog().videos().front();
  AdmissionDecision memoized;
  memoized.memoized = true;
  EXPECT_THROW(idle.auditor()->check_memoized_rejection(video.id,
                                                        video.view_bandwidth, memoized),
               AuditFailure);
}

TEST(ParanoidMode, AuditedRunIsBitIdenticalToPlainRun) {
  SimulationConfig config = paranoid_base(23);
  config.client.staging_fraction = 0.2;
  config.admission.migration.enabled = true;

  VodSimulation audited(config);
  audited.run();
  config.paranoid = false;
  VodSimulation plain(config);
  plain.run();

  EXPECT_EQ(audited.metrics().utilization(), plain.metrics().utilization());
  EXPECT_EQ(audited.metrics().transmitted(), plain.metrics().transmitted());
  EXPECT_EQ(audited.metrics().arrivals(), plain.metrics().arrivals());
  EXPECT_EQ(audited.metrics().accepts(), plain.metrics().accepts());
  EXPECT_EQ(audited.metrics().rejects(), plain.metrics().rejects());
  EXPECT_EQ(audited.metrics().migration_steps(), plain.metrics().migration_steps());
  // Unless the environment forces paranoia on (the CI Debug job sets
  // VODSIM_PARANOID=1 for the whole suite), the plain run has no auditor.
  if (env_long("VODSIM_PARANOID", 0) == 0) {
    EXPECT_EQ(plain.auditor(), nullptr);
  }
}

// --- reference oracle -----------------------------------------------------

SimulationConfig oracle_config(std::uint64_t seed) {
  SimulationConfig config;
  config.system.num_servers = 3;
  config.system.server_bandwidth = 15.0;
  config.system.server_storage = 3000.0;
  config.system.video_min_duration = 60.0;
  config.system.video_max_duration = 180.0;
  config.system.num_videos = 12;
  config.system.avg_copies = 1.5;
  config.system.view_bandwidth = 1.5;
  config.zipf_theta = 0.271;
  config.load_factor = 1.1;
  config.duration = 300.0;
  config.warmup = 0.0;
  config.seed = seed;
  return config;
}

void expect_oracle_agreement(const SimulationConfig& config) {
  ASSERT_TRUE(oracle_supports(config));
  const RequestTrace trace = engine_trace(config);
  VodSimulation engine(config, trace);
  engine.run();
  ASSERT_GT(engine.metrics().arrivals(), 0u);
  const OracleResult oracle = run_reference(config, trace);
  EXPECT_EQ(compare_against_engine(engine, oracle), "");
}

TEST(ReferenceOracle, AgreesOnContinuousTransmission) {
  expect_oracle_agreement(oracle_config(1));
}

TEST(ReferenceOracle, AgreesOnStagingAndMigration) {
  SimulationConfig config = oracle_config(2);
  config.client.staging_fraction = 0.2;
  config.client.receive_bandwidth = 3.0;
  config.admission.migration.enabled = true;
  config.admission.migration.max_chain_length = 2;
  expect_oracle_agreement(config);
}

TEST(ReferenceOracle, AgreesOnIntermittentScheduling) {
  SimulationConfig config = oracle_config(3);
  config.client.staging_fraction = 0.2;
  config.scheduler = SchedulerKind::kIntermittent;
  config.intermittent_safety_cover = 3.0;
  expect_oracle_agreement(config);
}

TEST(ReferenceOracle, AgreesOnFailuresAndReplication) {
  SimulationConfig config = oracle_config(4);
  config.failure.enabled = true;
  config.failure.mean_time_between_failures = 200.0;
  config.failure.mean_time_to_repair = 50.0;
  config.replication.enabled = true;
  config.replication.rejection_threshold = 1;
  config.replication.window = 120.0;
  config.load_factor = 1.3;
  expect_oracle_agreement(config);
}

TEST(ReferenceOracle, DeclaresItsExclusions) {
  SimulationConfig interactivity = oracle_config(5);
  interactivity.interactivity.enabled = true;
  EXPECT_FALSE(oracle_supports(interactivity));
  EXPECT_THROW(run_reference(interactivity, engine_trace(interactivity)),
               std::invalid_argument);

  SimulationConfig buffer_aware = oracle_config(6);
  buffer_aware.client.staging_fraction = 0.2;
  buffer_aware.admission.buffer_aware = true;
  EXPECT_FALSE(oracle_supports(buffer_aware));

  EXPECT_TRUE(oracle_supports(oracle_config(7)));

  // Of the fault processes, only crash/repair at server or group scope
  // (correlated group outages) is within the oracle's scope.
  for (const FaultProcessRow& process : fault_processes()) {
    SimulationConfig faulty = oracle_config(8);
    process.mutable_process(faulty.failure).enabled = true;
    EXPECT_EQ(oracle_supports(faulty),
              std::string_view(process.path) == "failure.correlated")
        << process.path;
  }
}

TEST(ReferenceOracle, RecordedTraceMatchesGeneratedWorkload) {
  // engine_trace must reproduce the engine's own arrival stream: a run fed
  // the recorded trace is bit-identical to one generating arrivals live.
  const SimulationConfig config = oracle_config(8);
  VodSimulation live(config);
  live.run();
  const RequestTrace trace = engine_trace(config);  // must outlive the engine
  VodSimulation replayed(config, trace);
  replayed.run();
  EXPECT_EQ(live.metrics().arrivals(), replayed.metrics().arrivals());
  EXPECT_EQ(live.metrics().accepts(), replayed.metrics().accepts());
  EXPECT_EQ(live.metrics().utilization(), replayed.metrics().utilization());
  EXPECT_EQ(live.metrics().transmitted(), replayed.metrics().transmitted());
}

// --- fuzzer plumbing ------------------------------------------------------

TEST(Fuzzer, ScenarioGenerationIsDeterministic) {
  Rng a(99), b(99);
  for (int i = 0; i < 20; ++i) {
    const SimulationConfig first = random_scenario(a);
    const SimulationConfig second = random_scenario(b);
    EXPECT_EQ(to_gtest_case(first, "x"), to_gtest_case(second, "x"));
    EXPECT_NO_THROW(first.validate());
  }
}

TEST(Fuzzer, PathologyCorpusPasses) {
  for (const SimulationConfig& config : pathology_corpus()) {
    const FuzzResult result = run_scenario(config);
    EXPECT_TRUE(result.passed) << result.failure;
  }
}

TEST(Fuzzer, ShrinkerPreservesPassingConfigs) {
  // A passing config is returned unchanged (nothing to shrink toward).
  const SimulationConfig config = oracle_config(9);
  const SimulationConfig shrunk = shrink_scenario(config);
  EXPECT_EQ(to_gtest_case(config, "x"), to_gtest_case(shrunk, "x"));
}

TEST(Fuzzer, GtestRenderingIsComplete) {
  Rng rng(7);
  const SimulationConfig config = random_scenario(rng);
  const std::string code = to_gtest_case(config, "Rendered");
  EXPECT_NE(code.find("TEST(FuzzRegression, Rendered)"), std::string::npos);
  EXPECT_NE(code.find("run_scenario"), std::string::npos);
  EXPECT_NE(code.find("config.seed"), std::string::npos);
}

}  // namespace
}  // namespace vodsim
