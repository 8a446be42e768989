#include "vodsim/engine/config.h"

#include <cmath>
#include <numeric>
#include <stdexcept>

#include "vodsim/util/rng.h"
#include "vodsim/workload/poisson.h"

namespace vodsim {

SeedPlan SeedPlan::derive(std::uint64_t master_seed) {
  Rng master(master_seed);
  SeedPlan plan;
  plan.catalog = master.fork_seed();
  plan.placement = master.fork_seed();
  plan.arrival = master.fork_seed();
  plan.decision = master.fork_seed();
  plan.failure = master.fork_seed();
  plan.interactivity = master.fork_seed();
  return plan;
}

SystemConfig SystemConfig::small_system() {
  SystemConfig config;
  config.name = "small";
  config.num_servers = 5;
  config.server_bandwidth = 100.0;
  config.server_storage = gigabytes(100);
  config.video_min_duration = minutes(10);
  config.video_max_duration = minutes(30);
  config.num_videos = 300;
  config.avg_copies = 2.2;
  config.view_bandwidth = 3.0;
  return config;
}

SystemConfig SystemConfig::large_system() {
  SystemConfig config;
  config.name = "large";
  config.num_servers = 20;
  config.server_bandwidth = 300.0;
  config.server_storage = gigabytes(150);
  config.video_min_duration = hours(1);
  config.video_max_duration = hours(2);
  config.num_videos = 200;
  config.avg_copies = 2.2;
  config.view_bandwidth = 3.0;
  return config;
}

double SimulationConfig::arrival_rate() const {
  return offered_load_rate(system.total_bandwidth(), system.mean_video_duration(),
                           system.view_bandwidth, load_factor);
}

void SimulationConfig::validate() const {
  auto fail = [](const std::string& what) {
    throw std::invalid_argument("SimulationConfig: " + what);
  };
  // NaN slips through every ordered comparison below (NaN <= 0 is false),
  // so finiteness is checked explicitly first. receive_bandwidth is the one
  // field where +infinity is meaningful ("no client-side cap") — it only
  // rejects NaN.
  const auto finite = [&fail](double value, const char* name) {
    if (!std::isfinite(value)) {
      fail(std::string(name) + " must be finite (got NaN or infinity)");
    }
  };
  finite(system.server_bandwidth, "server_bandwidth");
  finite(system.server_storage, "server_storage");
  finite(system.video_min_duration, "video_min_duration");
  finite(system.video_max_duration, "video_max_duration");
  finite(system.avg_copies, "avg_copies");
  finite(system.view_bandwidth, "view_bandwidth");
  finite(client.staging_fraction, "staging_fraction");
  finite(zipf_theta, "zipf_theta");
  finite(load_factor, "load_factor");
  finite(duration, "duration");
  finite(warmup, "warmup");
  finite(intermittent_safety_cover, "intermittent_safety_cover");
  for (double entry : system.bandwidth_profile) {
    finite(entry, "bandwidth_profile entry");
  }
  for (double entry : system.storage_profile) {
    finite(entry, "storage_profile entry");
  }
  if (std::isnan(client.receive_bandwidth)) {
    fail("receive_bandwidth must not be NaN");
  }
  if (system.num_servers < 1) fail("num_servers must be >= 1");
  if (system.server_bandwidth <= 0.0) fail("server_bandwidth must be > 0");
  if (system.server_storage < 0.0) fail("server_storage must be >= 0");
  if (system.video_min_duration <= 0.0) fail("video_min_duration must be > 0");
  if (system.video_max_duration < system.video_min_duration) {
    fail("video_max_duration < video_min_duration");
  }
  if (system.num_videos < 1) fail("num_videos must be >= 1");
  if (system.avg_copies < 1.0) fail("avg_copies must be >= 1");
  if (system.view_bandwidth <= 0.0) fail("view_bandwidth must be > 0");
  if (system.view_bandwidth > system.server_bandwidth) {
    fail("a server cannot sustain even one stream");
  }
  if (!system.bandwidth_profile.empty() &&
      system.bandwidth_profile.size() != static_cast<std::size_t>(system.num_servers)) {
    fail("bandwidth_profile size mismatch");
  }
  if (!system.storage_profile.empty() &&
      system.storage_profile.size() != static_cast<std::size_t>(system.num_servers)) {
    fail("storage_profile size mismatch");
  }
  if (client.staging_fraction < 0.0) fail("staging_fraction must be >= 0");
  if (client.receive_bandwidth < system.view_bandwidth) {
    fail("client receive bandwidth below view bandwidth");
  }
  if (load_factor <= 0.0) fail("load_factor must be > 0");
  if (duration <= 0.0) fail("duration must be > 0");
  if (warmup < 0.0 || warmup >= duration) fail("warmup must be in [0, duration)");
  if (admission.migration.max_chain_length < 0) fail("max_chain_length must be >= 0");
  if (admission.buffer_aware && scheduler != SchedulerKind::kIntermittent) {
    fail("buffer-aware admission requires the intermittent scheduler "
         "(minimum-flow schedulers assume commitments fit the link)");
  }
  if (intermittent_safety_cover < 0.0) fail("intermittent_safety_cover must be >= 0");
  if (admission.migration.switch_latency < 0.0) fail("switch_latency must be >= 0");
  if (failure.enabled) {
    if (failure.mean_time_between_failures <= 0.0) fail("MTBF must be > 0");
    if (failure.mean_time_to_repair <= 0.0) fail("MTTR must be > 0");
    if (failure.min_dwell < 0.0) fail("failure min_dwell must be >= 0");
    if (failure.brownout.enabled) {
      if (failure.brownout.mean_time_between <= 0.0) {
        fail("brownout mean_time_between must be > 0");
      }
      if (failure.brownout.mean_duration <= 0.0) {
        fail("brownout mean_duration must be > 0");
      }
      if (failure.brownout.capacity_factor <= 0.0 ||
          failure.brownout.capacity_factor >= 1.0) {
        fail("brownout capacity_factor must be in (0, 1)");
      }
    }
    if (failure.correlated.enabled) {
      if (failure.correlated.group_size < 1) {
        fail("correlated group_size must be >= 1");
      }
      if (failure.correlated.mean_time_between <= 0.0) {
        fail("correlated mean_time_between must be > 0");
      }
      if (failure.correlated.mean_duration <= 0.0) {
        fail("correlated mean_duration must be > 0");
      }
    }
    if (failure.domains.rack_outage.enabled) {
      if (!topology.enabled) fail("rack outages require topology.enabled");
      if (failure.domains.rack_outage.mean_time_between <= 0.0) {
        fail("rack outage mean_time_between must be > 0");
      }
      if (failure.domains.rack_outage.mean_duration <= 0.0) {
        fail("rack outage mean_duration must be > 0");
      }
    }
    if (failure.domains.zone_brownout.enabled) {
      if (!topology.enabled) fail("zone brownouts require topology.enabled");
      if (failure.domains.zone_brownout.mean_time_between <= 0.0) {
        fail("zone brownout mean_time_between must be > 0");
      }
      if (failure.domains.zone_brownout.mean_duration <= 0.0) {
        fail("zone brownout mean_duration must be > 0");
      }
      if (failure.domains.zone_brownout.capacity_factor <= 0.0 ||
          failure.domains.zone_brownout.capacity_factor >= 1.0) {
        fail("zone brownout capacity_factor must be in (0, 1)");
      }
    }
    if (failure.domains.partition.enabled) {
      if (!topology.enabled) fail("partitions require topology.enabled");
      if (failure.domains.partition.mean_time_between <= 0.0) {
        fail("partition mean_time_between must be > 0");
      }
      if (failure.domains.partition.mean_duration <= 0.0) {
        fail("partition mean_duration must be > 0");
      }
    }
  }
  if (failure.glitch_dedupe_window < 0.0) {
    fail("glitch_dedupe_window must be >= 0");
  }
  if (topology.enabled) {
    if (topology.racks < 1) fail("topology.racks must be >= 1");
    if (topology.racks > system.num_servers) {
      fail("topology.racks must not exceed num_servers (a rack owns >= 1 server)");
    }
    if (topology.zones < 1) fail("topology.zones must be >= 1");
    if (topology.zones > topology.racks) {
      fail("topology.zones must not exceed racks (a zone owns >= 1 rack)");
    }
  }
  if (failure.retry.enabled) {
    if (failure.retry.max_queue < 1) fail("retry max_queue must be >= 1");
    if (failure.retry.max_attempts < 1) fail("retry max_attempts must be >= 1");
    if (failure.retry.backoff_base <= 0.0) fail("retry backoff_base must be > 0");
    if (failure.retry.backoff_cap < failure.retry.backoff_base) {
      fail("retry backoff_cap must be >= backoff_base");
    }
  }
  if (failure.repair.enabled && failure.repair.down_threshold <= 0.0) {
    fail("repair down_threshold must be > 0");
  }
  for (const FaultTransition& t : scripted_faults) {
    if (t.server < 0 || t.server >= static_cast<ServerId>(system.num_servers)) {
      fail("scripted fault names an out-of-range server");
    }
    if (t.time < 0.0) fail("scripted fault time must be >= 0");
    if (t.kind == FaultTransitionKind::kBrownoutBegin &&
        (t.capacity_factor <= 0.0 || t.capacity_factor >= 1.0)) {
      fail("scripted brownout capacity_factor must be in (0, 1)");
    }
  }
  if (drift.enabled && drift.period <= 0.0) fail("drift period must be > 0");
  if (interactivity.enabled) {
    if (interactivity.pauses_per_hour <= 0.0) fail("pauses_per_hour must be > 0");
    if (interactivity.mean_pause_duration <= 0.0) {
      fail("mean_pause_duration must be > 0");
    }
  }
  if (replication.enabled) {
    if (replication.rejection_threshold < 1) fail("rejection_threshold must be >= 1");
    if (replication.window <= 0.0) fail("replication window must be > 0");
    if (replication.transfer_bandwidth <= 0.0) {
      fail("replication transfer_bandwidth must be > 0");
    }
    if (replication.max_concurrent < 1) fail("replication max_concurrent must be >= 1");
  }
  if (trace.enabled && trace.capacity < 1) fail("trace capacity must be >= 1");
  if (probe.enabled && probe.period <= 0.0) fail("probe period must be > 0");
  if (shards < 1) fail("shards must be >= 1");
  if (shards > system.num_servers) {
    fail("shards must not exceed num_servers (a shard owns >= 1 server)");
  }
  if (shard_threads < 0) fail("shard_threads must be >= 0");
}

std::vector<double> normalize_profile(const std::vector<double>& profile,
                                      std::size_t expected_size) {
  if (profile.size() != expected_size) {
    throw std::invalid_argument("heterogeneity profile size mismatch");
  }
  double sum = 0.0;
  for (double x : profile) {
    if (x <= 0.0) throw std::invalid_argument("profile entries must be > 0");
    sum += x;
  }
  const double mean = sum / static_cast<double>(profile.size());
  std::vector<double> normalized(profile.size());
  for (std::size_t i = 0; i < profile.size(); ++i) normalized[i] = profile[i] / mean;
  return normalized;
}

std::vector<Server> make_servers(const SystemConfig& system) {
  const auto n = static_cast<std::size_t>(system.num_servers);
  std::vector<double> bw(n, 1.0);
  std::vector<double> st(n, 1.0);
  if (!system.bandwidth_profile.empty()) {
    bw = normalize_profile(system.bandwidth_profile, n);
  }
  if (!system.storage_profile.empty()) {
    st = normalize_profile(system.storage_profile, n);
  }
  std::vector<Server> servers;
  servers.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    servers.emplace_back(static_cast<ServerId>(i), system.server_bandwidth * bw[i],
                         system.server_storage * st[i]);
  }
  return servers;
}

}  // namespace vodsim
