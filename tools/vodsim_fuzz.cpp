/// \file vodsim_fuzz.cpp
/// \brief Scenario fuzzer driver: randomized differential testing of the
/// engine against the invariant auditor and the reference oracle.
///
/// Runs the hand-written pathology corpus first, then `--scenarios` random
/// configurations drawn from `--seed`. Every scenario runs through the
/// engine with the auditor forced on; scenarios inside the oracle's scope
/// are additionally diffed against the naive reference simulator. On the
/// first failure the configuration is shrunk to a minimal reproducer and
/// printed as a ready-to-paste gtest case, and the process exits nonzero.
///
/// Usage:
///   vodsim_fuzz [--scenarios 500] [--seed 42] [--chaos]
///
/// With `--chaos`, random scenarios come from random_fault_scenario():
/// failure injection is always on, with brownouts / retry / correlated
/// outages / repair mixed in. CI's chaos-smoke job runs this mode under
/// ASan/UBSan with the auditor and tracing forced on.

#include <cstdio>

#include "vodsim/check/fuzzer.h"
#include "vodsim/util/cli.h"
#include "vodsim/util/rng.h"

namespace {

/// Shrinks, renders, and reports one failing configuration. Returns the
/// process exit code (always 1).
int report_failure(const vodsim::SimulationConfig& config,
                   const vodsim::FuzzResult& result, const char* origin) {
  using namespace vodsim;
  std::fprintf(stderr, "FAIL [%s] seed=%llu: %s\n", origin,
               static_cast<unsigned long long>(config.seed),
               result.failure.c_str());
  std::fprintf(stderr, "shrinking...\n");
  const SimulationConfig minimal = shrink_scenario(config);
  const FuzzResult shrunk = run_scenario(minimal);
  std::fprintf(stderr, "minimal reproducer fails with: %s\n",
               shrunk.failure.c_str());
  std::fprintf(stderr,
               "\n// Paste into tests/check_fuzz_test.cpp:\n%s\n",
               to_gtest_case(minimal, "ShrunkReproducer").c_str());
  return 1;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace vodsim;
  CliParser cli("vodsim_fuzz", "differential scenario fuzzer for the engine");
  cli.add_flag("scenarios", "500", "number of random scenarios after the corpus");
  cli.add_flag("seed", "42", "RNG seed for scenario generation");
  cli.add_flag("chaos", "0", "draw fault-enabled scenarios (random_fault_scenario)");
  if (!cli.parse(argc, argv)) return cli.error().empty() ? 0 : 2;

  const long scenarios = cli.get_long("scenarios");
  const long seed = cli.get_long("seed");
  const long chaos_flag = cli.get_long("chaos");
  const char* usage_error = nullptr;
  if (scenarios < 0) usage_error = "--scenarios must be >= 0";
  if (seed < 0) usage_error = "--seed must be >= 0";
  if (chaos_flag != 0 && chaos_flag != 1) usage_error = "--chaos must be 0 or 1";
  if (usage_error != nullptr) {
    std::fprintf(stderr, "vodsim_fuzz: %s\n", usage_error);
    return 2;
  }
  const bool chaos = chaos_flag != 0;
  std::uint64_t oracle_checked = 0;
  std::uint64_t shard_checked = 0;

  const std::vector<SimulationConfig> corpus = pathology_corpus();
  for (std::size_t i = 0; i < corpus.size(); ++i) {
    const FuzzResult result = run_scenario(corpus[i]);
    if (result.oracle_checked) ++oracle_checked;
    if (result.shard_checked) ++shard_checked;
    if (!result.passed) return report_failure(corpus[i], result, "corpus");
  }
  std::printf("corpus: %zu scenarios ok\n", corpus.size());

  Rng rng(static_cast<std::uint64_t>(seed));
  for (long i = 0; i < scenarios; ++i) {
    const SimulationConfig config =
        chaos ? random_fault_scenario(rng) : random_scenario(rng);
    const FuzzResult result = run_scenario(config);
    if (result.oracle_checked) ++oracle_checked;
    if (result.shard_checked) ++shard_checked;
    if (!result.passed) {
      return report_failure(config, result, chaos ? "chaos" : "random");
    }
    if ((i + 1) % 100 == 0) {
      std::printf("%ld/%ld scenarios ok (%llu oracle-checked)\n", i + 1,
                  scenarios, static_cast<unsigned long long>(oracle_checked));
    }
  }
  std::printf(
      "done: %zu corpus + %ld random scenarios passed, %llu oracle-checked, "
      "%llu shard-checked\n",
      corpus.size(), scenarios, static_cast<unsigned long long>(oracle_checked),
      static_cast<unsigned long long>(shard_checked));
  return 0;
}
