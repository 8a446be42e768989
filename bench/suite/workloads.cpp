#include "workloads.h"

#include <stdexcept>

#include "vodsim/engine/policy_matrix.h"
#include "vodsim/workload/drift.h"
#include "vodsim/workload/poisson.h"
#include "vodsim/workload/request_generator.h"

namespace suite {

using namespace vodsim;

namespace {

void set_horizon(SimulationConfig& config, double duration_h, double warmup_h,
                 double scale) {
  config.duration = hours(duration_h * scale);
  config.warmup = hours(warmup_h * scale);
}

/// The paper's Figure 6 policy matrix P1..P8 on the small system.
Workload fig6_matrix(double scale) {
  SimulationConfig base;
  base.system = SystemConfig::small_system();
  base.zipf_theta = 0.271;
  base.client.receive_bandwidth = 30.0;
  set_horizon(base, 25.0, 3.0, scale);
  Workload workload{"fig6_matrix", {}, true};
  for (const PolicySpec& policy : figure6_policies()) {
    workload.cells.push_back(apply_policy(base, policy));
  }
  return workload;
}

/// Extreme skew on the large system: most arrivals need the DRM search.
Workload skewed_drm(double scale) {
  SimulationConfig config;
  config.system = SystemConfig::large_system();
  config.zipf_theta = -0.5;
  config.client.staging_fraction = 0.2;
  config.client.receive_bandwidth = 30.0;
  config.admission.migration.enabled = true;
  config.admission.migration.max_chain_length = 2;
  set_horizon(config, 25.0, 5.0, scale);
  return Workload{"skewed_drm", {config}, true};
}

/// The million-stream headline shape at a tenth of its per-server load,
/// filling from empty on the sharded engine.
Workload sharded_ramp(double scale, int threads) {
  SimulationConfig config;
  config.system.name = "custom";
  config.system.num_servers = 100;
  config.system.server_bandwidth = 1500.0;
  config.system.view_bandwidth = 1.5;
  config.client.staging_fraction = 0.25;
  config.client.receive_bandwidth = 4.5;
  config.scheduler = SchedulerKind::kIntermittent;
  config.admission.buffer_aware = true;
  config.admission.migration.enabled = true;
  config.shards = 100;
  config.shard_threads = threads;
  set_horizon(config, 0.06, 0.0, scale);
  return Workload{"sharded_ramp", {config}, false};
}

/// Every fault class at once on a rack/zone tree, with retry, repair and
/// dynamic replication re-admitting what the faults shed.
Workload rack_storm(double scale) {
  SimulationConfig config;
  config.system = SystemConfig::large_system();
  config.zipf_theta = 0.271;
  config.client.staging_fraction = 0.2;
  config.client.receive_bandwidth = 30.0;
  config.admission.migration.enabled = true;
  config.placement.kind = PlacementKind::kDomainSpread;
  config.topology.enabled = true;
  config.topology.racks = 5;
  config.topology.zones = 2;
  FailureConfig& failure = config.failure;
  failure.enabled = true;
  failure.mean_time_between_failures = hours(50);
  failure.mean_time_to_repair = hours(1);
  failure.domains.rack_outage.enabled = true;
  failure.domains.rack_outage.mean_time_between = hours(4);
  failure.domains.rack_outage.mean_duration = minutes(20);
  failure.domains.zone_brownout.enabled = true;
  failure.domains.zone_brownout.mean_time_between = hours(8);
  failure.domains.partition.enabled = true;
  failure.domains.partition.mean_time_between = hours(2);
  failure.domains.partition.mean_duration = minutes(5);
  failure.retry.enabled = true;
  failure.retry.max_queue = 256;
  failure.repair.enabled = true;
  failure.repair.down_threshold = hours(0.5);
  config.replication.enabled = true;
  set_horizon(config, 35.0, 5.0, scale);
  return Workload{"rack_storm", {config}, false};
}

}  // namespace

Workload make_workload(const std::string& name, double horizon_scale,
                       int threads) {
  Workload workload;
  if (name == "fig6_matrix") {
    workload = fig6_matrix(horizon_scale);
  } else if (name == "skewed_drm") {
    workload = skewed_drm(horizon_scale);
  } else if (name == "sharded_ramp") {
    workload = sharded_ramp(horizon_scale, threads);
  } else if (name == "rack_storm") {
    workload = rack_storm(horizon_scale);
  } else {
    throw std::invalid_argument("unknown workload: " + name);
  }
  for (SimulationConfig& cell : workload.cells) {
    cell.seed = kWorldSeed;
    cell.validate();
  }
  return workload;
}

RequestTrace make_trace(const SimulationConfig& config, std::uint64_t seed) {
  const StaticZipfPopularity popularity(config.system.num_videos, config.zipf_theta);
  RequestGenerator generator(PoissonProcess(config.arrival_rate()), popularity,
                             SeedPlan::derive(seed).arrival);
  return RequestTrace::record_until(generator, config.duration);
}

}  // namespace suite
