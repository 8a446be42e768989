#include "vodsim/engine/experiment.h"

#include <cassert>
#include <ostream>
#include <stdexcept>

#include "vodsim/util/csv.h"
#include "vodsim/util/rng.h"

namespace vodsim {

TrialResult TrialResult::from(const VodSimulation& simulation) {
  const Metrics& metrics = simulation.metrics();
  TrialResult result;
  result.utilization = metrics.utilization();
  result.rejection_ratio = metrics.rejection_ratio();
  result.migrations_per_arrival = metrics.migrations_per_arrival();
  result.bound_utilization = metrics.bound_utilization();
  result.bound_rejection = metrics.bound_rejection();
  result.utilization_gap = metrics.utilization_gap();
  result.rejection_gap = metrics.rejection_gap();
  result.arrivals = metrics.arrivals();
  result.accepts = metrics.accepts();
  result.rejects = metrics.rejects();
  result.migration_steps = metrics.migration_steps();
  result.drops = metrics.drops();
  result.underflow_events = metrics.underflow_events();
  result.continuity_violations = simulation.continuity_violations();
  result.availability = metrics.availability();
  result.glitch_seconds = metrics.glitch_seconds();
  result.interruptions = metrics.interruptions();
  result.server_downs = metrics.server_downs();
  result.sheds = metrics.sheds();
  result.sheds_migrated = metrics.sheds_migrated();
  result.retry_enqueued = metrics.retry_enqueued();
  result.readmissions = metrics.readmissions();
  result.retry_abandoned = metrics.retry_abandoned();
  result.repairs = metrics.repairs();
  result.mean_recovery_time = metrics.recovery_time().mean();
  result.partitions = metrics.partitions();
  result.partition_heals = metrics.partition_heals();
  result.mean_partition_time = metrics.partition_time().mean();
  result.rack_availability.reserve(static_cast<std::size_t>(metrics.metric_racks()));
  result.rack_glitch_seconds.reserve(
      static_cast<std::size_t>(metrics.metric_racks()));
  for (int r = 0; r < metrics.metric_racks(); ++r) {
    result.rack_availability.push_back(metrics.rack_availability(r));
    result.rack_glitch_seconds.push_back(metrics.rack_glitch_seconds(r));
  }
  result.zone_availability.reserve(static_cast<std::size_t>(metrics.metric_zones()));
  result.zone_glitch_seconds.reserve(
      static_cast<std::size_t>(metrics.metric_zones()));
  for (int z = 0; z < metrics.metric_zones(); ++z) {
    result.zone_availability.push_back(metrics.zone_availability(z));
    result.zone_glitch_seconds.push_back(metrics.zone_glitch_seconds(z));
  }
  result.coordinator_events = simulation.coordinator_events();
  result.shard_events = simulation.shard_events();
  return result;
}

void ExperimentPoint::add(const TrialResult& trial) {
  utilization.add(trial.utilization);
  rejection_ratio.add(trial.rejection_ratio);
  migrations_per_arrival.add(trial.migrations_per_arrival);
  drops.add(static_cast<double>(trial.drops));
  utilization_gap.add(trial.utilization_gap);
  rejection_gap.add(trial.rejection_gap);
  trials.push_back(trial);
}

void write_sweep_csv(std::ostream& out, const std::vector<std::string>& labels,
                     const std::vector<ExperimentPoint>& points) {
  assert(labels.size() == points.size());
  CsvWriter csv(out);
  csv.write_row({"label", "trial", "utilization", "bound_utilization",
                 "utilization_gap", "rejection_ratio", "bound_rejection",
                 "rejection_gap", "migrations_per_arrival", "arrivals",
                 "accepts", "rejects", "drops", "underflow_events",
                 "availability", "glitch_seconds"});
  for (std::size_t p = 0; p < points.size(); ++p) {
    const std::string& label = p < labels.size() ? labels[p] : "";
    for (std::size_t t = 0; t < points[p].trials.size(); ++t) {
      const TrialResult& trial = points[p].trials[t];
      csv.write_row({label, CsvWriter::field(static_cast<std::uint64_t>(t)),
                     CsvWriter::field(trial.utilization),
                     CsvWriter::field(trial.bound_utilization),
                     CsvWriter::field(trial.utilization_gap),
                     CsvWriter::field(trial.rejection_ratio),
                     CsvWriter::field(trial.bound_rejection),
                     CsvWriter::field(trial.rejection_gap),
                     CsvWriter::field(trial.migrations_per_arrival),
                     CsvWriter::field(trial.arrivals),
                     CsvWriter::field(trial.accepts),
                     CsvWriter::field(trial.rejects),
                     CsvWriter::field(trial.drops),
                     CsvWriter::field(trial.underflow_events),
                     CsvWriter::field(trial.availability),
                     CsvWriter::field(trial.glitch_seconds)});
    }
  }
}

ExperimentRunner::ExperimentRunner(std::size_t threads) : pool_(threads) {}

std::uint64_t ExperimentRunner::derive_seed(std::uint64_t master_seed, int trial) {
  std::uint64_t state = master_seed;
  std::uint64_t seed = 0;
  for (int i = 0; i <= trial; ++i) seed = splitmix64_next(state);
  return seed;
}

ExperimentPoint ExperimentRunner::run_point(const SimulationConfig& config,
                                            int trials, std::uint64_t master_seed) {
  auto points = run_sweep({config}, trials, master_seed);
  return std::move(points.front());
}

std::vector<ExperimentPoint> ExperimentRunner::run_sweep(
    const std::vector<SimulationConfig>& configs, int trials,
    std::uint64_t master_seed) {
  if (trials < 1) throw std::invalid_argument("trials must be >= 1");
  const std::size_t n_configs = configs.size();
  std::vector<std::vector<TrialResult>> results(
      n_configs, std::vector<TrialResult>(static_cast<std::size_t>(trials)));

  // Every cell builds its own world inside the pool: construction is a
  // pure function of the cell's config and trial seed, so cells stay
  // bit-identical to standalone runs whatever thread they land on.
  pool_.parallel_for(n_configs * static_cast<std::size_t>(trials),
                     [&](std::size_t task) {
                       const std::size_t c = task / static_cast<std::size_t>(trials);
                       const int t = static_cast<int>(
                           task % static_cast<std::size_t>(trials));
                       SimulationConfig config = configs[c];
                       config.seed = derive_seed(master_seed, t);
                       VodSimulation simulation(std::move(config));
                       simulation.run();
                       results[c][static_cast<std::size_t>(t)] =
                           TrialResult::from(simulation);
                     });

  std::vector<ExperimentPoint> points(n_configs);
  for (std::size_t c = 0; c < n_configs; ++c) {
    for (const TrialResult& trial : results[c]) points[c].add(trial);
  }
  return points;
}

}  // namespace vodsim
