// Bounded fuzzing under ctest: the pathology corpus plus a fixed batch of
// random scenarios, every one run through the engine with the invariant
// auditor attached and — where supported — diffed against the reference
// oracle. The seed is pinned so the batch is reproducible; use the
// standalone `vodsim_fuzz` tool for open-ended exploration.

#include <gtest/gtest.h>

#include <cstdlib>

#include "vodsim/check/fuzzer.h"
#include "vodsim/util/rng.h"

namespace vodsim {
namespace {

TEST(ScenarioFuzz, CorpusAndRandomBatchPass) {
  int oracle_checked = 0;
  int shard_checked = 0;

  for (const SimulationConfig& config : pathology_corpus()) {
    const FuzzResult result = run_scenario(config);
    if (result.oracle_checked) ++oracle_checked;
    if (result.shard_checked) ++shard_checked;
    ASSERT_TRUE(result.passed)
        << "corpus seed=" << config.seed << ": " << result.failure
        << "\n"
        << to_gtest_case(shrink_scenario(config), "ShrunkCorpusReproducer");
  }

  const int corpus_size = static_cast<int>(pathology_corpus().size());

  constexpr int kScenarios = 250;
  Rng rng(42);
  for (int i = 0; i < kScenarios; ++i) {
    const SimulationConfig config = random_scenario(rng);
    const FuzzResult result = run_scenario(config);
    if (result.oracle_checked) ++oracle_checked;
    if (result.shard_checked) ++shard_checked;
    ASSERT_TRUE(result.passed)
        << "scenario " << i << " seed=" << config.seed << ": " << result.failure
        << "\n"
        << to_gtest_case(shrink_scenario(config), "ShrunkReproducer");
  }

  // The oracle's exclusions (interactivity, buffer-aware admission, retry/
  // repair/brownout fault extensions, and failure-domain topology) must
  // not hollow out the differential side of the batch: a solid plurality
  // of scenarios stays within its scope. (Every scenario still goes
  // through the sharded/single differential below.)
  EXPECT_GE(oracle_checked, 2 * kScenarios / 5);

  // The sharded/single differential has no exclusions: every passing
  // scenario must have been re-run on the sharded engine and diffed
  // against the single-queue baseline.
  EXPECT_EQ(shard_checked, corpus_size + kScenarios);
}

// Chaos configs (crashes + brownouts + retry + repair + correlated groups)
// go through the same sharded/single differential: the sharded engine must
// agree with the single-queue one through shed/drop/readmission churn, not
// just steady-state streaming.
TEST(ScenarioFuzz, ChaosBatchPassesBothModes) {
  constexpr int kScenarios = 25;
  Rng rng(777);
  for (int i = 0; i < kScenarios; ++i) {
    const SimulationConfig config = random_fault_scenario(rng);
    const FuzzResult result = run_scenario(config);
    ASSERT_TRUE(result.passed)
        << "chaos scenario " << i << " seed=" << config.seed << ": "
        << result.failure;
    EXPECT_TRUE(result.shard_checked) << "chaos scenario " << i;
  }
}

// Negative control for the sharded/single differential: seed a cross-mode
// aggregation bug (VODSIM_TEST_SHARD_BUG scales the shard-metrics merge by
// 0.999 — biased low, invisible to the single-mode auditor because it only
// exists in the sharded leg) and require the shard/single diff to fire.
// Uses corpus entry 12 (cross-shard migration chains, shards = 4) so the
// seeded bug lands on a run with real cross-shard traffic.
TEST(ScenarioFuzz, DifferentialCatchesSeededShardMergeBug) {
  const std::vector<SimulationConfig> corpus = pathology_corpus();
  SimulationConfig sharded;
  bool found = false;
  for (const SimulationConfig& config : corpus) {
    if (config.shards > 1) {
      sharded = config;
      found = true;
      break;
    }
  }
  ASSERT_TRUE(found) << "corpus must seed at least one sharded pathology";

  ASSERT_EQ(setenv("VODSIM_TEST_SHARD_BUG", "1", 1), 0);
  const FuzzResult result = run_scenario(sharded);
  ASSERT_EQ(unsetenv("VODSIM_TEST_SHARD_BUG"), 0);

  ASSERT_FALSE(result.passed)
      << "seeded shard-merge aggregation bug was not detected";
  EXPECT_NE(result.failure.find("shard/single mismatch"), std::string::npos)
      << "unexpected failure channel: " << result.failure;
  EXPECT_NE(result.failure.find("transmitted"), std::string::npos)
      << "diff should implicate the merged transmission integral: "
      << result.failure;

  // And the harness recovers: the same scenario passes with the bug unset.
  EXPECT_TRUE(run_scenario(sharded).passed);
}

// Regression: the shrinker's num_servers-halving transform used to clamp
// only the shard count, so a shrunk chaos reproducer could declare a
// correlated group (or a topology tree) referencing servers beyond its own
// num_servers — the emitted gtest case then failed validation or, worse,
// described faults on servers that do not exist. clamp_to_servers is the
// extracted fix; every server-indexed knob must come back in range and the
// clamped config must validate.
TEST(ScenarioShrink, HalvingClampsServerIndexedKnobs) {
  SimulationConfig config;
  config.system.num_servers = 8;
  config.shards = 8;
  config.topology.enabled = true;
  config.topology.racks = 8;
  config.topology.zones = 6;
  config.failure.enabled = true;
  config.failure.correlated.enabled = true;
  config.failure.correlated.group_size = 6;
  config.validate();  // sane before the shrink

  // What the halving transform does to the world size…
  config.system.num_servers = 2;
  // …must be followed by the clamp, or the knobs dangle past the cluster.
  clamp_to_servers(config);

  EXPECT_LE(config.shards, config.system.num_servers);
  EXPECT_LE(config.failure.correlated.group_size, config.system.num_servers);
  EXPECT_LE(config.topology.racks, config.system.num_servers);
  EXPECT_LE(config.topology.zones, config.topology.racks);
  EXPECT_NO_THROW(config.validate());
}

}  // namespace
}  // namespace vodsim
