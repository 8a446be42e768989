// Golden-determinism regression: same seed => bit-identical results.
//
// The allocation-free hot path (slab event queue, scratch-buffer schedulers,
// dirty-epoch recompute memo) is only acceptable because it provably does not
// perturb simulation output. This test pins that property: a fig7-style
// policy-matrix trial must produce bit-identical TrialResult fields when run
// twice in-process, and when run through the multi-threaded ExperimentRunner
// (scheduling order across the pool must not leak into per-trial results).
//
// Comparisons use exact equality on doubles on purpose — "close enough" would
// silently absorb the very regressions this guards against (reordered FP
// accumulation, skipped recomputes that matter, event-order drift).

#include <gtest/gtest.h>

#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>
#include <utility>
#include <vector>

#include "vodsim/engine/experiment.h"
#include "vodsim/engine/policy_matrix.h"
#include "vodsim/engine/sweep_context.h"
#include "vodsim/engine/vod_simulation.h"
#include "vodsim/fault/schedule.h"

namespace vodsim {
namespace {

/// Small fig7-style config: small system, paper client settings, short
/// horizon. Kept small so the full matrix stays fast under ctest.
SimulationConfig golden_config(const PolicySpec& policy, std::uint64_t seed) {
  SimulationConfig config;
  config.system = SystemConfig::small_system();
  config.zipf_theta = 0.271;
  config.client.receive_bandwidth = 30.0;
  config.duration = hours(0.25);
  config.warmup = 0.0;
  config.seed = seed;
  return apply_policy(std::move(config), policy);
}

TrialResult run_once(const SimulationConfig& config) {
  VodSimulation simulation(config);
  simulation.run();
  return TrialResult::from(simulation);
}

void expect_bit_identical(const TrialResult& a, const TrialResult& b) {
  // Exact compares, including the doubles — see file comment.
  EXPECT_EQ(a.utilization, b.utilization);
  EXPECT_EQ(a.rejection_ratio, b.rejection_ratio);
  EXPECT_EQ(a.migrations_per_arrival, b.migrations_per_arrival);
  EXPECT_EQ(a.arrivals, b.arrivals);
  EXPECT_EQ(a.accepts, b.accepts);
  EXPECT_EQ(a.rejects, b.rejects);
  EXPECT_EQ(a.migration_steps, b.migration_steps);
  EXPECT_EQ(a.drops, b.drops);
  EXPECT_EQ(a.underflow_events, b.underflow_events);
  EXPECT_EQ(a.continuity_violations, b.continuity_violations);
}

TEST(GoldenDeterminism, RepeatedRunsAreBitIdentical) {
  for (const PolicySpec& policy : figure6_policies()) {
    const SimulationConfig config = golden_config(policy, 7);
    const TrialResult first = run_once(config);
    const TrialResult second = run_once(config);
    SCOPED_TRACE(policy.label);
    ASSERT_GT(first.arrivals, 0u);  // the trial actually exercised the engine
    expect_bit_identical(first, second);
  }
}

TEST(GoldenDeterminism, ThreadedRunnerMatchesDirectRuns) {
  // Two trials through a 2-thread pool must equal the same trials run
  // directly, trial by trial: worker scheduling cannot affect results.
  const PolicySpec policy = figure6_policies().front();
  const std::uint64_t master_seed = 42;
  constexpr int kTrials = 2;

  std::vector<TrialResult> direct;
  for (int trial = 0; trial < kTrials; ++trial) {
    SimulationConfig config =
        golden_config(policy, ExperimentRunner::derive_seed(master_seed, trial));
    direct.push_back(run_once(config));
  }

  ExperimentRunner runner(2);
  const ExperimentPoint point =
      runner.run_point(golden_config(policy, 0), kTrials, master_seed);
  ASSERT_EQ(point.trials.size(), static_cast<std::size_t>(kTrials));
  for (int trial = 0; trial < kTrials; ++trial) {
    SCOPED_TRACE(trial);
    expect_bit_identical(point.trials[static_cast<std::size_t>(trial)],
                         direct[static_cast<std::size_t>(trial)]);
  }
}

// --- feature-config golden runs ------------------------------------------
// The base matrix above exercises the paper's eight policies; these configs
// pin bit-exactness on the extension subsystems, each asserting the feature
// actually fired so the comparison is not vacuous.

TEST(GoldenDeterminism, FailureInjectionIsBitIdentical) {
  SimulationConfig config = golden_config(figure6_policies().front(), 11);
  config.failure.enabled = true;
  config.failure.mean_time_between_failures = hours(0.05);
  config.failure.mean_time_to_repair = hours(0.02);

  VodSimulation first(config);
  first.run();
  ASSERT_FALSE(first.failure_timeline().empty());  // failures actually fired

  const TrialResult a = TrialResult::from(first);
  const TrialResult b = run_once(config);
  expect_bit_identical(a, b);
}

TEST(GoldenDeterminism, DynamicReplicationIsBitIdentical) {
  // Overload a single-copy catalog so rejections trigger replication.
  SimulationConfig config = golden_config(figure6_policies()[2], 13);
  config.load_factor = 2.0;
  config.system.avg_copies = 1.0;
  config.replication.enabled = true;
  config.replication.rejection_threshold = 1;
  config.replication.window = 600.0;

  VodSimulation first(config);
  first.run();
  ASSERT_GT(first.metrics().replications(), 0u);  // copies actually made

  const TrialResult a = TrialResult::from(first);
  const TrialResult b = run_once(config);
  expect_bit_identical(a, b);
  EXPECT_EQ(first.metrics().replications(), [&] {
    VodSimulation again(config);
    again.run();
    return again.metrics().replications();
  }());
}

TEST(GoldenDeterminism, InteractivityIsBitIdentical) {
  SimulationConfig config = golden_config(figure6_policies()[2], 17);
  config.interactivity.enabled = true;
  config.interactivity.pauses_per_hour = 40.0;
  config.interactivity.mean_pause_duration = 30.0;

  VodSimulation first(config);
  first.run();
  ASSERT_GT(first.pauses_started(), 0u);  // pauses actually fired

  const TrialResult a = TrialResult::from(first);
  const TrialResult b = run_once(config);
  expect_bit_identical(a, b);
}

TEST(GoldenDeterminism, ParanoidRunIsBitIdentical) {
  // The auditor observes only: attaching it cannot perturb a single bit of
  // the result (the audit hooks run outside the fluid arithmetic).
  const SimulationConfig plain = golden_config(figure6_policies().front(), 7);
  SimulationConfig paranoid = plain;
  paranoid.paranoid = true;
  expect_bit_identical(run_once(plain), run_once(paranoid));
}

// --- sharded determinism contract ----------------------------------------
// The sharded engine's promise is weaker than bit-identity with the
// single-queue run (the shard/single differential in check_fuzz_test.cpp
// pins that agreement, counters exact / fluid within tolerance) but strict
// on its own terms: for a FIXED shard count, the result is bit-identical at
// ANY worker thread count, and across repeat runs. Each shard drains its
// window serially whatever the pool width, the coordinator steps alone, and
// metrics merge in shard-index order — thread count only changes who runs a
// drain, never what it computes or the order results are combined.

/// A traced run: its results plus the merged trace of every context.
struct TracedRun {
  TrialResult result;
  std::vector<TraceEvent> events;
};

/// Runs \p config with tracing on. Every event must carry the tag of the
/// context that ran it: the coordinator (-1), or the shard owning the
/// event's server. The predicted events (tx-complete, buffer-full,
/// buffer-low) only ever run on their server's owner, so a callback that
/// captured the wrong context records into the wrong ring and fails here.
TracedRun run_traced(SimulationConfig config) {
  config.trace.enabled = true;
  VodSimulation simulation(config);
  simulation.run();
  TracedRun run{TrialResult::from(simulation), simulation.merged_trace_events()};
  for (const TraceEvent& event : run.events) {
    const int owner = config.shards > 1 && event.server != kNoServer
                          ? simulation.shard_of_server(event.server)
                          : -1;
    const bool predicted = event.type == TraceEventType::kTxComplete ||
                           event.type == TraceEventType::kBufferFull ||
                           event.type == TraceEventType::kBufferLow;
    EXPECT_TRUE(event.shard == owner || (!predicted && event.shard == -1))
        << to_string(event.type) << " tagged " << event.shard << " on server "
        << event.server << " at " << event.time;
  }
  return run;
}

void expect_same_trace(const std::vector<TraceEvent>& a,
                       const std::vector<TraceEvent>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    SCOPED_TRACE(i);
    EXPECT_EQ(a[i].seq, b[i].seq);
    EXPECT_EQ(a[i].time, b[i].time);
    EXPECT_EQ(a[i].type, b[i].type);
    EXPECT_EQ(a[i].server, b[i].server);
    EXPECT_EQ(a[i].request, b[i].request);
    EXPECT_EQ(a[i].video, b[i].video);
    EXPECT_EQ(a[i].a, b[i].a);
    EXPECT_EQ(a[i].b, b[i].b);
    EXPECT_EQ(a[i].shard, b[i].shard);
  }
}

TEST(GoldenDeterminism, ShardedIsReproducibleAcrossThreadCounts) {
  for (const PolicySpec& policy :
       {figure6_policies().front(), figure6_policies()[2],
        figure6_policies()[3]}) {
    SCOPED_TRACE(policy.label);
    SimulationConfig config = golden_config(policy, 7);

    // shards == 1: the coordinator owns every server and runs every event.
    const TracedRun single = run_traced(config);
    ASSERT_GT(single.events.size(), 0u);

    config.shards = 4;
    config.shard_threads = 1;
    const TracedRun serial = run_traced(config);
    ASSERT_GT(serial.result.arrivals, 0u);
    EXPECT_TRUE(std::any_of(serial.events.begin(), serial.events.end(),
                            [](const TraceEvent& e) { return e.shard >= 0; }));

    // More workers than shards at 8: some sit idle. The repeat run pins
    // repeat-run stability.
    for (const int threads : {2, 8, 8}) {
      SCOPED_TRACE(threads);
      config.shard_threads = threads;
      const TracedRun run = run_traced(config);
      expect_bit_identical(serial.result, run.result);
      expect_same_trace(serial.events, run.events);
    }
  }
}

TEST(GoldenDeterminism, ShardedArenaMatchesSingleArenaExactly) {
  // The request arena's pool split is pure storage: the only difference
  // from the single-queue run is shard scheduling — so counters must match
  // exactly and fluid aggregates within merge-order tolerance, same
  // contract the fuzzer's shard differential enforces.
  for (const PolicySpec& policy :
       {figure6_policies().front(), figure6_policies()[3]}) {
    SCOPED_TRACE(policy.label);
    SimulationConfig config = golden_config(policy, 17);
    const TrialResult single = run_once(config);
    ASSERT_GT(single.arrivals, 0u);

    config.shards = 4;
    config.shard_threads = 2;
    const TrialResult sharded = run_once(config);

    EXPECT_EQ(single.arrivals, sharded.arrivals);
    EXPECT_EQ(single.accepts, sharded.accepts);
    EXPECT_EQ(single.rejects, sharded.rejects);
    EXPECT_EQ(single.migration_steps, sharded.migration_steps);
    EXPECT_EQ(single.drops, sharded.drops);
    EXPECT_EQ(single.underflow_events, sharded.underflow_events);
    EXPECT_EQ(single.continuity_violations, sharded.continuity_violations);
    EXPECT_NEAR(single.utilization, sharded.utilization,
                1e-9 + 1e-9 * std::abs(single.utilization));
    EXPECT_NEAR(single.rejection_ratio, sharded.rejection_ratio,
                1e-9 + 1e-9 * std::abs(single.rejection_ratio));
  }
}

TEST(GoldenDeterminism, TracedRunIsBitIdentical) {
  // The trace recorder and probe samplers observe only: they read state on
  // the way past, schedule no simulator events and touch no RNG, so turning
  // them on — alone or together with the auditor — cannot perturb a bit.
  // Use a policy with migration enabled so the admission/migration emission
  // sites actually run.
  const SimulationConfig plain = golden_config(figure6_policies()[2], 7);

  SimulationConfig traced = plain;
  traced.trace.enabled = true;
  traced.probe.enabled = true;
  traced.probe.period = 30.0;

  SimulationConfig everything = traced;
  everything.paranoid = true;

  const TrialResult base = run_once(plain);

  VodSimulation traced_sim(traced);
  traced_sim.run();
  ASSERT_NE(traced_sim.trace(), nullptr);
  ASSERT_GT(traced_sim.trace()->emitted(), 0u);  // tracing actually fired
  ASSERT_NE(traced_sim.probes(), nullptr);
  ASSERT_GT(traced_sim.probes()->rows().size(), 0u);
  expect_bit_identical(base, TrialResult::from(traced_sim));

  VodSimulation everything_sim(everything);
  everything_sim.run();
  ASSERT_NE(everything_sim.auditor(), nullptr);
  expect_bit_identical(base, TrialResult::from(everything_sim));

  // Category filtering only mutes emission sites; it cannot change results
  // either.
  SimulationConfig filtered = plain;
  filtered.trace.enabled = true;
  filtered.trace.categories = kTraceAdmission | kTraceMigration;
  expect_bit_identical(base, run_once(filtered));
}

TEST(GoldenDeterminism, SweepContextTrialsMatchPlainConstruction) {
  // Every (config x trial) cell built from a shared SweepContext must be
  // bit-identical to the same cell built standalone — the context memoizes
  // world construction, it must not perturb it. The config set is chosen to
  // exercise every memoized path: two placement kinds, a drifting
  // popularity model, and the partial-predictive policy.
  std::vector<SimulationConfig> configs;
  configs.push_back(golden_config(figure6_policies().front(), 0));
  SimulationConfig predictive = golden_config(figure6_policies().front(), 0);
  predictive.placement.kind = PlacementKind::kPredictive;
  configs.push_back(predictive);
  SimulationConfig drifting = golden_config(figure6_policies().front(), 0);
  drifting.drift.enabled = true;
  drifting.drift.period = hours(0.05);
  drifting.drift.step = 10;
  configs.push_back(drifting);
  SimulationConfig partial = golden_config(figure6_policies().front(), 0);
  partial.placement.kind = PlacementKind::kPartialPredictive;
  configs.push_back(partial);

  constexpr int kTrials = 2;
  const std::uint64_t master_seed = 42;
  SweepContext context;
  context.prepare(configs, kTrials, master_seed);

  // Deduplication actually happened: all four configs share one catalog per
  // trial seed; popularity is static-vs-drifting; placements are one per
  // (kind, popularity, trial seed) — even, predictive, drifting-even,
  // partial, times two trials.
  EXPECT_EQ(context.catalog_count(), static_cast<std::size_t>(kTrials));
  EXPECT_EQ(context.popularity_count(), 2u);
  EXPECT_EQ(context.placement_count(), 4u * kTrials);

  for (const SimulationConfig& base : configs) {
    for (int trial = 0; trial < kTrials; ++trial) {
      SimulationConfig config = base;
      config.seed = ExperimentRunner::derive_seed(master_seed, trial);
      SCOPED_TRACE(std::to_string(config.seed));
      const TrialResult plain = run_once(config);
      VodSimulation shared_world(config, &context);
      shared_world.run();
      ASSERT_GT(plain.arrivals, 0u);
      expect_bit_identical(plain, TrialResult::from(shared_world));
    }
  }

  // A config the context has never seen must still run (lookup miss →
  // local construction), bit-identically.
  SimulationConfig unseen = golden_config(figure6_policies().front(), 12345);
  VodSimulation fallback(unseen, &context);
  fallback.run();
  expect_bit_identical(run_once(unseen), TrialResult::from(fallback));
}

TEST(GoldenDeterminism, DistinctSeedsDiverge) {
  // Sanity check that the comparisons above are not vacuous: different
  // seeds must actually change the outcome.
  const PolicySpec policy = figure6_policies().front();
  const TrialResult a = run_once(golden_config(policy, 7));
  const TrialResult b = run_once(golden_config(policy, 8));
  EXPECT_NE(a.arrivals, b.arrivals);
}

// --- pinned hexfloat goldens ----------------------------------------------
// The tests above prove run-vs-run stability *within* one build; they cannot
// catch a change that perturbs every run the same way (a reordered FP
// accumulation, a comparator rewrite, an event retimed through a different
// code path). The table in determinism_goldens.inc pins the absolute output
// of a 29-config matrix — every figure-6 policy at two seeds, all five
// schedulers, and the feature subsystems (failure, replication,
// interactivity, drift, partial placement, heterogeneity) — as exact
// hexfloat renderings captured before the incremental-recompute work landed.
// Any bit of drift in any config fails the diff.
//
// To regenerate after an *intentional* output change, run this binary with
// VODSIM_UPDATE_GOLDENS=/path/to/determinism_goldens.inc (or
// /path/to/fault_goldens.inc or /path/to/schedule_goldens.inc for the
// tables below) and commit the
// rewritten table (the test still compares, so an update run on an
// unchanged build passes).

struct GoldenEntry {
  const char* label;
  const char* expected;
};

constexpr GoldenEntry kGoldenMatrix[] = {
#include "determinism_goldens.inc"
};

/// Compares \p rendered against the pinned \p table, row by row and label
/// by label. When VODSIM_UPDATE_GOLDENS names a path ending in \p file_name,
/// first rewrites that file from \p rendered; \p matrix names the function
/// listing the configs, for the file's header.
template <std::size_t N>
void expect_golden_table(const GoldenEntry (&table)[N], const std::string& file_name,
                         const std::string& matrix,
                         const std::vector<std::string>& labels,
                         const std::vector<std::string>& rendered) {
  const char* path = std::getenv("VODSIM_UPDATE_GOLDENS");
  const std::string target = path != nullptr ? path : "";
  if (target.size() >= file_name.size() &&
      target.compare(target.size() - file_name.size(), file_name.size(),
                     file_name) == 0) {
    std::ofstream out(target);
    ASSERT_TRUE(out) << "cannot open " << target;
    out << "// Generated by determinism_test with VODSIM_UPDATE_GOLDENS.\n"
        << "// One entry per " << matrix << " config, same order. Doubles are\n"
        << "// hexfloats (printf %a): exact, locale-free, portable across\n"
        << "// correctly-rounded libms.\n";
    for (std::size_t i = 0; i < labels.size(); ++i) {
      out << "{\"" << labels[i] << "\", \"" << rendered[i] << "\"},\n";
    }
    ASSERT_TRUE(out.good());
  }

  ASSERT_EQ(labels.size(), N) << "config matrix and golden table drifted apart";
  for (std::size_t i = 0; i < N; ++i) {
    SCOPED_TRACE(labels[i]);
    EXPECT_STREQ(table[i].label, labels[i].c_str());
    EXPECT_STREQ(table[i].expected, rendered[i].c_str());
  }
}

/// Renders every TrialResult field exactly: doubles as hexfloats ("%a" is
/// lossless — two doubles render equal iff they are the same bits, modulo
/// -0.0/+0.0 which cannot arise from these non-negative ratios), counters
/// in decimal.
std::string render_result(const TrialResult& r) {
  char buf[256];
  std::snprintf(buf, sizeof(buf),
                "%a %a %a %" PRIu64 " %" PRIu64 " %" PRIu64 " %" PRIu64
                " %" PRIu64 " %" PRIu64 " %" PRIu64,
                r.utilization, r.rejection_ratio, r.migrations_per_arrival,
                r.arrivals, r.accepts, r.rejects, r.migration_steps, r.drops,
                r.underflow_events, r.continuity_violations);
  return buf;
}

/// The 29 pinned configurations, in table order. Labels are part of the
/// golden data: a reordering or a silently dropped config fails the match.
std::vector<std::pair<std::string, SimulationConfig>> golden_matrix() {
  std::vector<std::pair<std::string, SimulationConfig>> out;

  // 16 configs: the full figure-6 policy matrix at two seeds (EFTF).
  for (const std::uint64_t seed : {std::uint64_t{7}, std::uint64_t{9}}) {
    for (const PolicySpec& policy : figure6_policies()) {
      out.emplace_back(policy.label + "/seed" + std::to_string(seed),
                       golden_config(policy, seed));
    }
  }

  // 5 configs: every scheduler on the staged+migration policy (P4), which
  // exercises receive caps, staging buffers and migration interplay.
  for (const SchedulerKind kind :
       {SchedulerKind::kEftf, SchedulerKind::kContinuous,
        SchedulerKind::kProportional, SchedulerKind::kLftf,
        SchedulerKind::kIntermittent}) {
    SimulationConfig config = golden_config(figure6_policies()[3], 11);
    config.scheduler = kind;
    out.emplace_back("sched-" + to_string(kind) + "/seed11",
                     std::move(config));
  }

  // 8 configs: one per extension subsystem / config axis.
  {
    SimulationConfig config = golden_config(figure6_policies().front(), 11);
    config.failure.enabled = true;
    config.failure.mean_time_between_failures = hours(0.05);
    config.failure.mean_time_to_repair = hours(0.02);
    out.emplace_back("failure/seed11", std::move(config));
  }
  {
    SimulationConfig config = golden_config(figure6_policies()[2], 13);
    config.load_factor = 2.0;
    config.system.avg_copies = 1.0;
    config.replication.enabled = true;
    config.replication.rejection_threshold = 1;
    config.replication.window = 600.0;
    out.emplace_back("replication/seed13", std::move(config));
  }
  {
    SimulationConfig config = golden_config(figure6_policies()[2], 17);
    config.interactivity.enabled = true;
    config.interactivity.pauses_per_hour = 40.0;
    config.interactivity.mean_pause_duration = 30.0;
    out.emplace_back("interactivity/seed17", std::move(config));
  }
  {
    SimulationConfig config = golden_config(figure6_policies()[3], 17);
    config.scheduler = SchedulerKind::kIntermittent;
    config.interactivity.enabled = true;
    config.interactivity.pauses_per_hour = 40.0;
    config.interactivity.mean_pause_duration = 30.0;
    out.emplace_back("intermittent-interactivity/seed17", std::move(config));
  }
  {
    SimulationConfig config = golden_config(figure6_policies()[2], 19);
    config.drift.enabled = true;
    config.drift.period = hours(0.05);
    config.drift.step = 10;
    out.emplace_back("drift/seed19", std::move(config));
  }
  {
    SimulationConfig config = golden_config(figure6_policies()[2], 23);
    config.placement.kind = PlacementKind::kPartialPredictive;
    out.emplace_back("partial-predictive/seed23", std::move(config));
  }
  {
    SimulationConfig config = golden_config(figure6_policies()[6], 29);
    config.system.bandwidth_profile = {0.5, 0.75, 1.0, 1.25, 1.5};
    config.system.storage_profile = {1.5, 1.25, 1.0, 0.75, 0.5};
    out.emplace_back("heterogeneous/seed29", std::move(config));
  }
  {
    SimulationConfig config = golden_config(figure6_policies()[1], 31);
    config.scheduler = SchedulerKind::kProportional;
    config.load_factor = 1.5;
    out.emplace_back("proportional-overload/seed31", std::move(config));
  }

  return out;
}

TEST(GoldenDeterminism, MatrixMatchesPinnedHexfloatGoldens) {
  const auto matrix = golden_matrix();
  std::vector<std::string> labels;
  std::vector<std::string> rendered;
  for (const auto& [label, config] : matrix) {
    SCOPED_TRACE(label);
    labels.push_back(label);
    rendered.push_back(render_result(run_once(config)));
  }
  expect_golden_table(kGoldenMatrix, "determinism_goldens.inc", "golden_matrix()",
                      labels, rendered);
}

TEST(GoldenDeterminism, ObserversMatchPinnedGoldensPerScheduler) {
  // One config per scheduler, re-run with the auditor and the tracer+probes
  // attached: the observers must reproduce the *pinned* output, not merely
  // agree with a plain run from the same build.
  const auto matrix = golden_matrix();
  for (std::size_t i = 16; i < 21; ++i) {  // the five sched-*/seed11 rows
    ASSERT_LT(i, sizeof(kGoldenMatrix) / sizeof(kGoldenMatrix[0]));
    SCOPED_TRACE(matrix[i].first);

    SimulationConfig paranoid = matrix[i].second;
    paranoid.paranoid = true;
    EXPECT_STREQ(kGoldenMatrix[i].expected,
                 render_result(run_once(paranoid)).c_str());

    SimulationConfig traced = matrix[i].second;
    traced.trace.enabled = true;
    traced.probe.enabled = true;
    traced.probe.period = 30.0;
    EXPECT_STREQ(kGoldenMatrix[i].expected,
                 render_result(run_once(traced)).c_str());
  }
}

TEST(GoldenDeterminism, ShardsOneMatchesPinnedHexfloatGoldens) {
  // shards = 1 runs the shared engine path with one execution context: the
  // coordinator owns every server, so the window loop only steps its queue
  // and every handler gets context 0. The full golden matrix must
  // re-render bit-for-bit with the field set explicitly (and an inert
  // thread count), which pins that path — context routing, run loop and
  // end-of-run flush — to the goldens.
  const auto matrix = golden_matrix();
  constexpr std::size_t kPinned =
      sizeof(kGoldenMatrix) / sizeof(kGoldenMatrix[0]);
  ASSERT_EQ(matrix.size(), kPinned);
  for (std::size_t i = 0; i < matrix.size(); ++i) {
    SCOPED_TRACE(matrix[i].first);
    SimulationConfig config = matrix[i].second;
    config.shards = 1;
    config.shard_threads = 4;  // must be inert when shards == 1
    EXPECT_STREQ(kGoldenMatrix[i].expected,
                 render_result(run_once(config)).c_str());
  }
}

// --- pinned fault goldens -------------------------------------------------
// TrialResult carries no resilience field, so the matrix above pins the
// fault layer only through failure/seed11's crash-only utilization. This
// table pins the fault path itself: the capacity-loss integral (cluster,
// per rack, per zone), recovery and partition durations, glitches, and
// every shed/drop/retry/repair counter, on configs that drive brownout
// shedding, correlated crashes under switch latency and flap guards, and
// all three domain fault classes with repair and replication (single-queue
// and sharded). A crash interval split at a partition-begin inside it,
// or a brownout charged over a crash, moves the availability bits here.

constexpr GoldenEntry kFaultGoldens[] = {
#include "fault_goldens.inc"
};

/// Renders the resilience side of a run exactly: doubles as hexfloats,
/// per-domain availabilities in rack then zone order, counters in decimal.
std::string render_resilience(const Metrics& m) {
  std::string out;
  char buf[64];
  const auto add_double = [&](double value) {
    std::snprintf(buf, sizeof(buf), "%a ", value);
    out += buf;
  };
  const auto add_count = [&](std::uint64_t value) {
    std::snprintf(buf, sizeof(buf), "%" PRIu64 " ", value);
    out += buf;
  };
  add_double(m.utilization());
  add_double(m.availability());
  add_double(m.glitch_seconds());
  add_double(m.recovery_time().mean());
  add_double(m.partition_time().mean());
  out += "racks ";
  for (int rack = 0; rack < m.metric_racks(); ++rack) {
    add_double(m.rack_availability(rack));
  }
  out += "zones ";
  for (int zone = 0; zone < m.metric_zones(); ++zone) {
    add_double(m.zone_availability(zone));
  }
  for (const std::uint64_t count :
       {m.interruptions(), m.drops(), m.sheds(), m.sheds_migrated(),
        m.retry_enqueued(), m.readmissions(), m.retry_abandoned(), m.repairs(),
        m.server_downs(), m.partitions(), m.partition_heals()}) {
    add_count(count);
  }
  out.pop_back();
  return out;
}

/// The pinned fault configurations, in table order.
std::vector<std::pair<std::string, SimulationConfig>> fault_matrix() {
  std::vector<std::pair<std::string, SimulationConfig>> out;
  out.reserve(4);
  const PolicySpec& staged_migration = figure6_policies()[3];  // P4

  {
    // Crashes plus frequent brownouts: shedding (migrate, park, drop) and
    // forced retry drains on brownout-end and server-up.
    SimulationConfig config = golden_config(staged_migration, 41);
    config.duration = hours(1.0);
    config.load_factor = 1.2;
    config.failure.enabled = true;
    config.failure.mean_time_between_failures = hours(0.5);
    config.failure.mean_time_to_repair = hours(0.05);
    config.failure.brownout.enabled = true;
    config.failure.brownout.mean_time_between = hours(0.1);
    config.failure.brownout.mean_duration = minutes(5);
    config.failure.brownout.capacity_factor = 0.4;
    config.failure.retry.enabled = true;
    out.emplace_back("brownout-shed-retry/seed41", std::move(config));
  }
  {
    // Correlated pair outages under break-before-make migration and flap
    // guards: destinations crash mid-switch, and the stranded streams move
    // to another holder, park or drop.
    SimulationConfig config = golden_config(staged_migration, 43);
    config.duration = hours(1.0);
    config.load_factor = 1.2;
    config.system.avg_copies = 3.0;
    config.admission.migration.switch_latency = 30.0;
    config.failure.enabled = true;
    config.failure.mean_time_between_failures = hours(0.1);
    config.failure.mean_time_to_repair = hours(0.05);
    config.failure.min_dwell = 30.0;
    config.failure.correlated.enabled = true;
    config.failure.correlated.group_size = 2;
    config.failure.correlated.mean_time_between = hours(0.3);
    config.failure.correlated.mean_duration = minutes(5);
    config.failure.retry.enabled = true;
    out.emplace_back("correlated-switch-dwell-retry/seed43", std::move(config));
  }
  {
    // 5 racks / 2 zones with every domain fault class, repair and dynamic
    // replication on a domain-spread placement: crashes overlap rack
    // outages, partitions and zone brownouts on the same servers.
    SimulationConfig config = golden_config(staged_migration, 47);
    config.duration = hours(1.0);
    config.load_factor = 1.2;
    config.system.avg_copies = 1.2;
    config.placement.kind = PlacementKind::kDomainSpread;
    config.topology.enabled = true;
    config.topology.racks = 5;
    config.topology.zones = 2;
    config.replication.enabled = true;
    config.failure.enabled = true;
    config.failure.mean_time_between_failures = hours(0.5);
    config.failure.mean_time_to_repair = hours(0.1);
    config.failure.domains.rack_outage.enabled = true;
    config.failure.domains.rack_outage.mean_time_between = hours(0.5);
    config.failure.domains.rack_outage.mean_duration = minutes(10);
    config.failure.domains.zone_brownout.enabled = true;
    config.failure.domains.zone_brownout.mean_time_between = hours(0.25);
    config.failure.domains.zone_brownout.mean_duration = minutes(8);
    config.failure.domains.partition.enabled = true;
    config.failure.domains.partition.mean_time_between = hours(0.2);
    config.failure.domains.partition.mean_duration = minutes(6);
    config.failure.repair.enabled = true;
    config.failure.repair.down_threshold = minutes(3);
    config.failure.retry.enabled = true;
    out.emplace_back("domains-repair-replication/seed47", config);
    config.shards = 5;
    config.shard_threads = 2;
    out.emplace_back("domains-repair-replication-shards5/seed47",
                     std::move(config));
  }
  return out;
}

TEST(FaultGoldens, ResilienceMatchesPinnedHexfloatGoldens) {
  const auto matrix = fault_matrix();
  std::vector<std::string> labels;
  std::vector<std::string> rendered;
  for (const auto& [label, config] : matrix) {
    SCOPED_TRACE(label);
    VodSimulation simulation(config);
    labels.push_back(label);
    rendered.push_back(render_resilience(simulation.run()));
  }
  expect_golden_table(kFaultGoldens, "fault_goldens.inc", "fault_matrix()", labels,
                      rendered);
}

// --- pinned fault-schedule goldens ----------------------------------------
// The fault table above pins what a schedule does to a run; this one pins
// the schedule generator's draw order itself. Every config enables the
// binary crash phase and all five episode processes at once on an uneven
// tree (17 servers, 5 racks, 2 zones; correlated groups of 3 and 7, which
// do not divide 17), so swapping any two phases, or the order of domain
// ranges within one, shifts every later draw and moves the digest. Each
// row renders the transition count per kind, an FNV-1a digest of the full
// (time, server, kind, factor) list in hexfloat, and the next uniform draw
// left on the failure RNG.

constexpr GoldenEntry kScheduleGoldens[] = {
#include "schedule_goldens.inc"
};

std::string render_schedule(const std::vector<FaultTransition>& schedule, Rng& rng) {
  std::uint64_t digest = 14695981039346656037ull;  // FNV-1a offset basis
  std::uint64_t per_kind[std::size(kFaultTransitionNames)] = {};
  char buf[128];
  for (const FaultTransition& t : schedule) {
    ++per_kind[static_cast<std::size_t>(t.kind)];
    const int n = std::snprintf(buf, sizeof(buf), "%a %d %d %a;", t.time, t.server,
                                static_cast<int>(t.kind), t.capacity_factor);
    for (int i = 0; i < n; ++i) {
      digest = (digest ^ static_cast<unsigned char>(buf[i])) * 1099511628211ull;
    }
  }
  std::string out = std::to_string(schedule.size()) + " transitions";
  for (std::size_t kind = 0; kind < std::size(per_kind); ++kind) {
    out += std::string(" ") + kFaultTransitionNames[kind].cli + "=" +
           std::to_string(per_kind[kind]);
  }
  std::snprintf(buf, sizeof(buf), " fnv1a=%016" PRIx64 " next=%a", digest,
                rng.uniform());
  return out + buf;
}

/// Every fault process at once, at rates giving each a handful of episodes
/// per domain over the horizon.
FailureConfig schedule_golden_config(Seconds min_dwell, int group_size) {
  FailureConfig config;
  config.enabled = true;
  config.mean_time_between_failures = hours(5);
  config.mean_time_to_repair = hours(0.5);
  config.min_dwell = min_dwell;
  config.brownout.enabled = true;
  config.brownout.mean_time_between = hours(4);
  config.brownout.mean_duration = minutes(20);
  config.brownout.capacity_factor = 0.6;
  config.correlated.enabled = true;
  config.correlated.group_size = group_size;
  config.correlated.mean_time_between = hours(6);
  config.correlated.mean_duration = minutes(30);
  config.domains.rack_outage.enabled = true;
  config.domains.rack_outage.mean_time_between = hours(8);
  config.domains.rack_outage.mean_duration = minutes(30);
  config.domains.zone_brownout.enabled = true;
  config.domains.zone_brownout.mean_time_between = hours(5);
  config.domains.zone_brownout.mean_duration = minutes(20);
  config.domains.zone_brownout.capacity_factor = 0.3;
  config.domains.partition.enabled = true;
  config.domains.partition.mean_time_between = hours(6);
  config.domains.partition.mean_duration = minutes(10);
  return config;
}

TEST(ScheduleGoldens, DrawOrderMatchesPinnedHexfloatGoldens) {
  constexpr int kServers = 17;
  const Topology topology(TopologyConfig{true, 5, 2}, kServers);
  std::vector<std::string> labels;
  std::vector<std::string> rendered;
  std::uint64_t seed = 61;
  for (const Seconds min_dwell : {0.0, 120.0}) {
    for (const int group_size : {3, 7}) {
      const std::string label = "all-processes-dwell" +
                                std::to_string(static_cast<int>(min_dwell)) +
                                "-group" + std::to_string(group_size) + "/seed" +
                                std::to_string(seed);
      SCOPED_TRACE(label);
      Rng rng(seed++);
      const auto schedule = generate_fault_schedule(
          schedule_golden_config(min_dwell, group_size), topology, hours(20), rng);
      labels.push_back(label);
      rendered.push_back(render_schedule(schedule, rng));
    }
  }
  {
    // No topology: the server- and group-scoped phases draw alone.
    FailureConfig config = schedule_golden_config(120.0, 7);
    config.domains.rack_outage.enabled = false;
    config.domains.zone_brownout.enabled = false;
    config.domains.partition.enabled = false;
    Rng rng(seed);
    const auto schedule = generate_fault_schedule(
        config, Topology(TopologyConfig{}, kServers), hours(20), rng);
    labels.push_back("no-topology-dwell120-group7/seed" + std::to_string(seed));
    rendered.push_back(render_schedule(schedule, rng));
  }
  expect_golden_table(kScheduleGoldens, "schedule_goldens.inc", "schedule golden",
                      labels, rendered);
}

}  // namespace
}  // namespace vodsim
