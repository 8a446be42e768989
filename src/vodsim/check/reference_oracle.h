#pragma once

/// \file reference_oracle.h
/// \brief Naive reference simulator for differential testing of the engine.
///
/// The production engine earns its speed from machinery that is easy to get
/// subtly wrong: a slab event queue with lazy cancellation, one timer per
/// server for its predicted events, a persistent per-server grant order,
/// reused scratch buffers. The oracle re-implements the same fluid
/// semantics with none of it — an outer fixed timestep for periodic
/// self-checks, and within each step a brute-force rescan of every pending
/// transition (no event queue, no grant-order cache, fresh scheduler
/// scratch per reallocation). On small scenarios the two must agree: event
/// counts exactly, fluid integrals to float accumulation error.
///
/// Faithfulness requires mirroring *where* the engine observes state, not
/// just what it computes. Admission and victim selection read fluid state
/// that is advanced lazily per server, so the oracle advances lazily at the
/// same call sites. Likewise, predicted transition times (tx-complete,
/// buffer-full, buffer-low) are computed once per allocation change and
/// frozen until the next one — that caching is engine *semantics*, not an
/// optimization: re-deriving the times from advanced state gives answers
/// off by float ulps, and discrete decisions downstream (victim sorts over
/// exactly-tied buffer levels, the intermittent urgency latch at its
/// threshold) amplify an ulp into materially different runs. The oracle
/// therefore caches the same times at the same instants, but still scans
/// them brute-force instead of keeping a queue. Two features are excluded
/// (`oracle_supports`): interactivity, whose RNG draw order depends on
/// event interleaving the oracle does not reproduce, and buffer-aware
/// admission, whose feasibility test reads stale buffer levels that only
/// the engine's exact advance pattern produces.

#include <cstdint>
#include <string>

#include "vodsim/engine/config.h"
#include "vodsim/workload/trace.h"

namespace vodsim {

class VodSimulation;

/// Outcomes of one oracle run, aligned with the engine's Metrics plus the
/// engine-level continuity counter.
struct OracleResult {
  std::uint64_t arrivals = 0;
  std::uint64_t accepts = 0;
  std::uint64_t rejects = 0;
  std::uint64_t migration_steps = 0;
  std::uint64_t completions = 0;
  std::uint64_t drops = 0;
  std::uint64_t underflow_events = 0;
  std::uint64_t replications = 0;
  std::uint64_t continuity_violations = 0;
  double utilization = 0.0;
  double rejection_ratio = 0.0;
  Megabits transmitted = 0.0;
  Megabits underflow_megabits = 0.0;
};

/// True when the oracle can faithfully replay \p config (see file comment
/// for the exclusions).
bool oracle_supports(const SimulationConfig& config);

/// The arrival trace the engine would generate for \p config — same seed
/// derivation (SeedPlan), recorded up to config.duration. Feed the same
/// trace to both the engine (trace constructor) and run_reference so the
/// two see identical workloads.
RequestTrace engine_trace(const SimulationConfig& config);

/// Runs the naive reference simulation of \p config over \p trace.
/// \param max_step outer fixed-timestep granularity (seconds); transitions
///        within a step are still resolved exactly, the grid only paces the
///        oracle's own sanity sweeps.
/// Throws std::invalid_argument when !oracle_supports(config), and
/// std::logic_error if the oracle's internal sanity sweep fails.
OracleResult run_reference(const SimulationConfig& config,
                           const RequestTrace& trace, Seconds max_step = 1.0);

/// Compares a finished engine run against an oracle run of the same config
/// and trace. Returns an empty string on agreement, otherwise a diagnostic
/// naming every mismatched quantity. Counts must match exactly; fluid
/// integrals (utilization, transmitted megabits) to accumulation tolerance.
std::string compare_against_engine(const VodSimulation& engine,
                                   const OracleResult& oracle);

}  // namespace vodsim
