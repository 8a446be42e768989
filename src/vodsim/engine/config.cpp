#include "vodsim/engine/config.h"

#include <cmath>
#include <numeric>
#include <stdexcept>

#include "vodsim/engine/config_schema.h"
#include "vodsim/fault/schedule.h"
#include "vodsim/util/rng.h"
#include "vodsim/workload/poisson.h"

namespace vodsim {

SeedPlan SeedPlan::derive(std::uint64_t master_seed) {
  Rng master(master_seed);
  SeedPlan plan;
  plan.catalog = master.fork_seed();
  plan.placement = master.fork_seed();
  plan.arrival = master.fork_seed();
  // The retired decision stream's draw: skipping it would move every later
  // seed, and with it every golden.
  master.fork_seed();
  plan.failure = master.fork_seed();
  plan.interactivity = master.fork_seed();
  return plan;
}

SystemConfig SystemConfig::small_system() {
  SystemConfig config;  // the member defaults are the small system
  config.name = "small";
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
  // Per-field ranges come from the field table; a row whose gate is off is
  // not checked. Messages are built only on failure.
  for (const ConfigField& field : config_fields()) {
    const double value = field.get(*this);
    if (!field.range.contains(value) && gate_open(field, *this)) {
      fail(std::string(field.path) + " must be in " + field.range.describe() + " (got " +
           field.literal(*this) + ")");
    }
  }
  // Relations between fields, and the list-valued fields.
  if (system.video_max_duration < system.video_min_duration) {
    fail("system.video_max_duration < system.video_min_duration");
  }
  if (system.view_bandwidth > system.server_bandwidth) {
    fail("system.view_bandwidth > system.server_bandwidth: a server cannot "
         "sustain even one stream");
  }
  if (client.receive_bandwidth < system.view_bandwidth) {
    fail("client.receive_bandwidth below system.view_bandwidth");
  }
  if (warmup >= duration) fail("warmup must be in [0, duration)");
  const auto check_profile = [&](const std::vector<double>& profile, const char* name) {
    if (!profile.empty() &&
        profile.size() != static_cast<std::size_t>(system.num_servers)) {
      fail(std::string(name) + " size mismatch");
    }
    for (double entry : profile) {
      if (!std::isfinite(entry)) fail(std::string(name) + " entry must be finite");
    }
  };
  check_profile(system.bandwidth_profile, "system.bandwidth_profile");
  check_profile(system.storage_profile, "system.storage_profile");
  if (topology.enabled && topology.racks > system.num_servers) {
    fail("topology.racks must not exceed system.num_servers (a rack owns >= 1 server)");
  }
  if (topology.enabled && topology.zones > topology.racks) {
    fail("topology.zones must not exceed topology.racks (a zone owns >= 1 rack)");
  }
  if (shards > system.num_servers) {
    fail("shards must not exceed system.num_servers (a shard owns >= 1 server)");
  }
  if (admission.buffer_aware && scheduler != SchedulerKind::kIntermittent) {
    fail("admission.buffer_aware requires the intermittent scheduler "
         "(minimum-flow schedulers assume commitments fit the link)");
  }
  if (failure.enabled && failure.correlated.enabled &&
      failure.correlated.group_size > system.num_servers) {
    fail("failure.correlated.group_size must not exceed system.num_servers");
  }
  for (const FaultProcessRow& process : fault_processes()) {
    if (failure.enabled && process.process(failure).enabled && !topology.enabled &&
        process.needs_topology()) {
      fail(std::string(process.path) + " requires topology.enabled");
    }
  }
  if (failure.retry.enabled && failure.retry.backoff_cap < failure.retry.backoff_base) {
    fail("failure.retry.backoff_cap must be >= failure.retry.backoff_base");
  }
  for (const FaultTransition& t : scripted_faults) {
    if (t.server < 0 || t.server >= static_cast<ServerId>(system.num_servers)) {
      fail("scripted fault names an out-of-range server");
    }
    if (t.time < 0.0) fail("scripted fault time must be >= 0");
    if (t.kind == FaultTransitionKind::kBrownoutBegin &&
        (t.capacity_factor <= 0.0 || t.capacity_factor >= 1.0)) {
      fail("scripted kBrownoutBegin capacity_factor must be in (0, 1)");
    }
  }
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
