#pragma once

/// \file fuzzer.h
/// \brief Randomized differential testing of the simulation engine.
///
/// The fuzzer samples small randomized SimulationConfigs across the whole
/// feature cross-product — schedulers × placement × migration × failures ×
/// replication × drift × interactivity × heterogeneity — and runs each one
/// through three independent harnesses:
///
///   1. the engine with the invariant auditor attached (every scenario),
///   2. the naive reference oracle (scenarios within `oracle_supports`),
///      diffing end-of-run counters and fluid integrals, and
///   3. the sharded engine on the same arrival trace (every scenario),
///      diffed against the single-queue run.
///
/// On a failure, `shrink_scenario` greedily minimizes the configuration —
/// disabling features, halving sizes — while the failure reproduces, and
/// `to_gtest_case` renders the survivor as a ready-to-paste regression test.
///
/// Scenarios are deliberately tiny (a few servers, minutes of simulated
/// time): the oracle is quadratic-ish by design, and small worlds shrink
/// better. Coverage comes from the count of scenarios, not their size.

#include <cstdint>
#include <string>
#include <vector>

#include "vodsim/engine/config.h"
#include "vodsim/engine/metrics.h"
#include "vodsim/util/rng.h"

namespace vodsim {

/// Outcome of one fuzz scenario.
struct FuzzResult {
  bool passed = true;
  /// True when the scenario was also cross-checked against the reference
  /// oracle (i.e. oracle_supports() held), not just audited.
  bool oracle_checked = false;
  /// True when the scenario was additionally re-run on the sharded engine
  /// (config.shards when drawn > 1, else one shard per server) and
  /// differentially compared against the single-queue run (every passing
  /// scenario; the single-mode leg carries the auditor).
  bool shard_checked = false;
  /// Empty when passed; otherwise the auditor's message, the oracle diff,
  /// or the shard-vs-single diff.
  std::string failure;
};

/// Samples one randomized tiny scenario. Always returns a configuration
/// that passes SimulationConfig::validate(). Consumes a deterministic
/// number of draws per call, so a fixed \p rng seed yields a fixed
/// scenario sequence.
SimulationConfig random_scenario(Rng& rng);

/// Samples one randomized scenario with the fault subsystem forced on:
/// crashes plus at least one partial-fault feature (brownout or retry),
/// with correlated groups and repair re-replication mixed in. The chaos
/// smoke in CI runs these under sanitizers with the auditor attached.
SimulationConfig random_fault_scenario(Rng& rng);

/// Hand-written pathological scenarios seeding every fuzz run: threshold
/// chattering under intermittent scheduling, reschedule-heavy tiny-buffer
/// churn, deep migration chains, failure/repair churn with replication,
/// buffer-aware overcommit, brownout shed churn, crash/retry storms on a
/// single-copy catalog, and correlated group failures with repair.
std::vector<SimulationConfig> pathology_corpus();

/// Runs \p config through the engine with the auditor forced on, and — when
/// the oracle supports it — diffs the run against the reference oracle.
/// Every scenario (chaos configs included) is then re-run on the *sharded*
/// engine with the same arrival trace
/// (config.shards when > 1, else one shard per server so every
/// cross-server interaction crosses a shard boundary) and diffed against
/// the single-queue run with the same discipline: discrete counters exact,
/// fluid integrals within the oracle tolerance. Exceptions (AuditFailure
/// included) are captured into the result, never propagated.
FuzzResult run_scenario(const SimulationConfig& config);

/// The sharded/single differential's comparison of two runs of one
/// scenario: every discrete counter and the continuity-violation counts
/// must match exactly, fluid integrals within the reference oracle's
/// relative tolerance. Returns "" when they agree, else one
/// "<name>: <a_label> <value> vs <b_label> <value>; " clause per mismatch.
std::string diff_runs(const Metrics& am, std::uint64_t a_continuity_violations,
                      const Metrics& bm, std::uint64_t b_continuity_violations,
                      const char* a_label, const char* b_label);

/// Greedily minimizes a failing \p config: repeatedly applies shrinking
/// transforms (disable a feature, halve a size, drop a policy back to its
/// default) and keeps each one that still fails, until a fixpoint. Returns
/// \p config unchanged if it does not fail in the first place.
SimulationConfig shrink_scenario(SimulationConfig config);

/// Re-clamps every server-indexed knob to the current num_servers: the
/// shard count, the correlated group size, and the topology tree (racks <=
/// num_servers, zones <= racks). The shrinker's num_servers-halving
/// transform calls this so a shrunk reproducer never references servers
/// beyond the cluster it declares — without the clamp a halved chaos
/// scenario could emit correlated groups or rack spans past server_count.
/// Exposed so the clamp itself is regression-testable.
void clamp_to_servers(SimulationConfig& config);

/// Renders \p config as a complete gtest TEST(FuzzRegression, <name>) case
/// that rebuilds the exact configuration and asserts run_scenario passes:
/// one `config.<path> = <literal>;` line per config_fields() row (%.17g
/// doubles), then the profiles and scripted faults. Paste into
/// tests/check_fuzz_test.cpp.
std::string to_gtest_case(const SimulationConfig& config,
                          const std::string& name);

}  // namespace vodsim
