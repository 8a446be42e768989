#pragma once

/// \file experiment.h
/// \brief Multi-trial experiment runner.
///
/// Paper methodology (§4.1): every data point is the average of several
/// independent trials. The runner derives trial seeds from a master seed so
/// that trial k sees the *same* arrival stream under every configuration in
/// a sweep (paired comparison — variance reduction for policy contrasts),
/// and fans trials out across a thread pool.

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "vodsim/engine/config.h"
#include "vodsim/engine/vod_simulation.h"
#include "vodsim/stats/accumulator.h"
#include "vodsim/util/thread_pool.h"

namespace vodsim {

/// Scalar outcomes of one trial.
struct TrialResult {
  double utilization = 0.0;
  double rejection_ratio = 0.0;
  double migrations_per_arrival = 0.0;

  // Measured-vs-bound gap block (analysis/bounds.h): the achievability
  // envelope of the trial's world and the measured distance from it.
  double bound_utilization = 1.0;  ///< utilization no policy can exceed
  double bound_rejection = 0.0;    ///< rejection ratio no policy can beat
  double utilization_gap = 0.0;    ///< bound_utilization - utilization
  double rejection_gap = 0.0;      ///< rejection_ratio - bound_rejection

  std::uint64_t arrivals = 0;
  std::uint64_t accepts = 0;
  std::uint64_t rejects = 0;
  std::uint64_t migration_steps = 0;
  std::uint64_t drops = 0;
  std::uint64_t underflow_events = 0;
  std::uint64_t continuity_violations = 0;

  // Resilience block (all zero / 1.0 in fault-free runs).
  double availability = 1.0;
  Seconds glitch_seconds = 0.0;
  std::uint64_t interruptions = 0;
  std::uint64_t server_downs = 0;
  std::uint64_t sheds = 0;
  std::uint64_t sheds_migrated = 0;
  std::uint64_t retry_enqueued = 0;
  std::uint64_t readmissions = 0;
  std::uint64_t retry_abandoned = 0;
  std::uint64_t repairs = 0;
  double mean_recovery_time = 0.0;  ///< mean seconds down per episode

  // Failure-domain block (empty / zero unless config.topology.enabled).
  // Per-domain vectors are indexed by rack/zone id; availability is the
  // bandwidth-weighted fraction of the window the domain's servers were
  // serviceable, glitch seconds are attributed to the victim's domain.
  std::uint64_t partitions = 0;       ///< partition episodes begun
  std::uint64_t partition_heals = 0;  ///< partition episodes healed
  double mean_partition_time = 0.0;   ///< mean seconds per healed episode
  std::vector<double> rack_availability;
  std::vector<double> zone_availability;
  std::vector<double> rack_glitch_seconds;
  std::vector<double> zone_glitch_seconds;

  // Sharded-engine block (DESIGN.md §12; shard_events is 0 when shards=1).
  // coordinator / (coordinator + shard) is the coordinator's share of
  // events — a count share, not a time share, so it does not bound the
  // parallel speedup (a coordinator event costs far more than a shard one).
  std::uint64_t coordinator_events = 0;  ///< events on the coordinator queue
  std::uint64_t shard_events = 0;        ///< events drained by all shards

  static TrialResult from(const VodSimulation& simulation);
};

/// Aggregation of the trials behind one data point.
struct ExperimentPoint {
  Accumulator utilization;
  Accumulator rejection_ratio;
  Accumulator migrations_per_arrival;
  Accumulator drops;
  Accumulator utilization_gap;  ///< headroom to the achievable bound
  Accumulator rejection_gap;    ///< excess over the rejection lower bound
  std::vector<TrialResult> trials;

  void add(const TrialResult& trial);
};

/// Writes one CSV row per (point, trial) with the measured scalars AND the
/// bound/gap columns, so every sweep artifact reports its distance from
/// theory. \p labels names each point (same length as \p points); header
/// included. Columns: label, trial, utilization, bound_utilization,
/// utilization_gap, rejection_ratio, bound_rejection, rejection_gap,
/// migrations_per_arrival, arrivals, accepts, rejects, drops,
/// underflow_events, availability, glitch_seconds.
void write_sweep_csv(std::ostream& out, const std::vector<std::string>& labels,
                     const std::vector<ExperimentPoint>& points);

class ExperimentRunner {
 public:
  /// \param threads worker threads (0 = hardware concurrency).
  explicit ExperimentRunner(std::size_t threads = 0);

  /// Runs \p trials independent trials of \p config and aggregates them.
  /// Trial k uses seed derive_seed(master_seed, k) regardless of config, so
  /// points produced with the same master seed are paired.
  ExperimentPoint run_point(const SimulationConfig& config, int trials,
                            std::uint64_t master_seed = 42);

  /// Runs every config x trial combination across the pool. Throws
  /// std::invalid_argument when \p trials < 1 or a config fails validation.
  std::vector<ExperimentPoint> run_sweep(const std::vector<SimulationConfig>& configs,
                                         int trials, std::uint64_t master_seed = 42);

  /// Deterministic per-trial seed derivation (exposed for tests).
  static std::uint64_t derive_seed(std::uint64_t master_seed, int trial);

 private:
  ThreadPool pool_;
};

}  // namespace vodsim
