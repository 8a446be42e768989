// Bounded fuzzing under ctest: the pathology corpus plus a fixed batch of
// random scenarios, every one run through the engine with the invariant
// auditor attached and — where supported — diffed against the reference
// oracle. The seed is pinned so the batch is reproducible; use the
// standalone `vodsim_fuzz` tool for open-ended exploration.

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "vodsim/check/fuzzer.h"
#include "vodsim/check/reference_oracle.h"
#include "vodsim/engine/config_schema.h"
#include "vodsim/engine/vod_simulation.h"
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

// Negative control for the sharded/single differential: run a sharded
// corpus entry (cross-shard migration chains) both ways, then seed a
// cross-mode aggregation bug — one transmission interval the single-queue
// run never made, as a faulty shard merge would add — into a copy of the
// sharded Metrics, and require diff_runs to implicate the transmission
// integral. The unseeded pair must agree.
TEST(ScenarioFuzz, DifferentialCatchesSeededShardMergeBug) {
  const std::vector<SimulationConfig> corpus = pathology_corpus();
  const auto sharded = std::find_if(corpus.begin(), corpus.end(),
                                    [](const SimulationConfig& c) { return c.shards > 1; });
  ASSERT_NE(sharded, corpus.end()) << "corpus must seed at least one sharded pathology";
  SimulationConfig single = *sharded;
  single.shards = 1;
  const RequestTrace trace = engine_trace(single);
  VodSimulation single_run(single, trace);
  VodSimulation sharded_run(*sharded, trace);
  const Metrics& single_metrics = single_run.run();
  const Metrics& sharded_metrics = sharded_run.run();
  EXPECT_EQ(diff_runs(single_metrics, single_run.continuity_violations(), sharded_metrics,
                      sharded_run.continuity_violations(), "single", "sharded"),
            "");

  Metrics seeded = sharded_metrics;
  seeded.record_transmission(single.warmup, single.warmup + 1.0,
                             single.system.view_bandwidth);
  const std::string diff =
      diff_runs(single_metrics, single_run.continuity_violations(), seeded,
                sharded_run.continuity_violations(), "single", "sharded");
  EXPECT_NE(diff.find("transmitted"), std::string::npos)
      << "diff should implicate the merged transmission integral: " << diff;
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

// A shrunk repro is only useful if it rebuilds the config it claims to.
// Reads a rendered case back: each `config.<path> = <literal>;` line
// through the field table, the profile and scripted-fault lines by hand.
// Counts table rows assigned into \p paths.
SimulationConfig rebuild(const std::string& code, std::multiset<std::string>& paths) {
  const auto split = [](const std::string& list) {
    std::vector<std::string> items;
    std::stringstream in(list);
    for (std::string item; std::getline(in, item, ',');) {
      items.push_back(item.substr(item.find_first_not_of(' ')));
    }
    return items;
  };
  SimulationConfig config;
  config.system.name = "fuzz";
  const std::string kPush = "  config.scripted_faults.push_back({";
  std::istringstream in(code);
  for (std::string line; std::getline(in, line);) {
    if (line.rfind(kPush, 0) == 0) {
      const auto items = split(line.substr(kPush.size(), line.size() - kPush.size() - 3));
      EXPECT_EQ(items.size(), 4u) << line;
      if (items.size() != 4) continue;
      FaultTransition fault;
      fault.time = std::stod(items[0]);
      fault.server = std::stoi(items[1]);
      for (std::size_t k = 0; k < std::size(kFaultTransitionNames); ++k) {
        if (items[2] == kFaultTransitionNames[k].cpp) {
          fault.kind = static_cast<FaultTransitionKind>(k);
        }
      }
      fault.capacity_factor = std::stod(items[3]);
      config.scripted_faults.push_back(fault);
      continue;
    }
    const std::size_t eq = line.find(" = ");
    if (line.rfind("  config.", 0) != 0 || eq == std::string::npos) continue;
    const std::string path = line.substr(9, eq - 9);
    const std::string value = line.substr(eq + 3, line.size() - eq - 4);
    if (path == "system.name") continue;
    if (path == "system.bandwidth_profile" || path == "system.storage_profile") {
      std::vector<double>& profile = path == "system.bandwidth_profile"
                                         ? config.system.bandwidth_profile
                                         : config.system.storage_profile;
      for (const std::string& item : split(value.substr(1, value.size() - 2))) {
        profile.push_back(std::stod(item));
      }
      continue;
    }
    const ConfigField* field = find_config_field(path);
    EXPECT_NE(field, nullptr) << "no table row for " << path;
    if (field == nullptr) continue;
    EXPECT_TRUE(field->parse(config, value)) << line;
    paths.insert(path);
  }
  return config;
}

TEST(ScenarioRepro, RenderedCaseRebuildsTheConfigExactly) {
  std::vector<SimulationConfig> configs = pathology_corpus();
  Rng rng(1);
  for (int i = 0; i < 200; ++i) configs.push_back(random_scenario(rng));
  Rng chaos(2);
  for (int i = 0; i < 100; ++i) configs.push_back(random_fault_scenario(chaos));
  // No draw scripts faults or sets both profiles; render one that does.
  SimulationConfig scripted = configs.back();
  scripted.system.bandwidth_profile.assign(scripted.system.num_servers, 0.1);
  scripted.system.storage_profile.assign(scripted.system.num_servers, 1.0 / 3.0);
  scripted.scripted_faults = {{10.0, 0, FaultTransitionKind::kDown, 1.0},
                              {25.5, 1, FaultTransitionKind::kBrownoutBegin, 0.4},
                              {1e-3, 0, FaultTransitionKind::kPartitionEnd, 1.0}};
  configs.push_back(scripted);

  bool saw_infinity = false;
  bool saw_big_seed = false;
  bool saw_scripted = false;
  for (std::size_t i = 0; i < configs.size(); ++i) {
    const std::string code = to_gtest_case(configs[i], "RoundTrip");
    std::multiset<std::string> paths;
    const SimulationConfig rebuilt = rebuild(code, paths);
    ASSERT_EQ(to_gtest_case(rebuilt, "RoundTrip"), code) << "config " << i;
    // A lossy literal would re-render identically; the values must match too.
    for (const ConfigField& field : config_fields()) {
      ASSERT_EQ(field.get(rebuilt), field.get(configs[i])) << field.path;
    }
    ASSERT_EQ(rebuilt.system.bandwidth_profile, configs[i].system.bandwidth_profile);
    ASSERT_EQ(rebuilt.system.storage_profile, configs[i].system.storage_profile);
    ASSERT_EQ(rebuilt.scripted_faults.size(), configs[i].scripted_faults.size());
    for (std::size_t f = 0; f < configs[i].scripted_faults.size(); ++f) {
      ASSERT_EQ(rebuilt.scripted_faults[f].time, configs[i].scripted_faults[f].time);
      ASSERT_EQ(rebuilt.scripted_faults[f].capacity_factor,
                configs[i].scripted_faults[f].capacity_factor);
    }
    // Every table row is assigned, exactly once.
    ASSERT_EQ(paths.size(), config_fields().size()) << "config " << i;
    for (const ConfigField& field : config_fields()) {
      ASSERT_EQ(paths.count(field.path), 1u) << field.path;
    }
    saw_infinity |= code.find("infinity()") != std::string::npos;
    saw_big_seed |= configs[i].seed > (std::uint64_t{1} << 53);
    saw_scripted |= !configs[i].scripted_faults.empty();
  }
  // The literals that are easy to get wrong were all exercised.
  EXPECT_TRUE(saw_infinity);
  EXPECT_TRUE(saw_big_seed);
  EXPECT_TRUE(saw_scripted);
}

}  // namespace
}  // namespace vodsim
