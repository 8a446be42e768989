#include "vodsim/engine/sweep_context.h"

#include <cstdio>

#include "vodsim/engine/experiment.h"
#include "vodsim/util/rng.h"
#include "vodsim/workload/catalog.h"

namespace vodsim {

namespace {

// Key fragments. Doubles are rendered with "%a" (exact hex-float), so two
// configs share a cache entry only when the inputs are bit-identical —
// collisions across distinct values are impossible by construction.
void append_f(std::string& key, double value) {
  char buf[48];
  std::snprintf(buf, sizeof(buf), "%a|", value);
  key += buf;
}

void append_u(std::string& key, std::uint64_t value) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%llu|",
                static_cast<unsigned long long>(value));
  key += buf;
}

void append_profile(std::string& key, const std::vector<double>& profile) {
  append_u(key, profile.size());
  for (double entry : profile) append_f(key, entry);
}

}  // namespace

std::string SweepContext::catalog_key(const SimulationConfig& config) {
  const SeedPlan seeds = SeedPlan::derive(config.seed);
  std::string key;
  append_u(key, config.system.num_videos);
  append_f(key, config.system.video_min_duration);
  append_f(key, config.system.video_max_duration);
  append_f(key, config.system.view_bandwidth);
  append_u(key, seeds.catalog);
  return key;
}

std::string SweepContext::popularity_key(const SimulationConfig& config) {
  // Popularity models hold no RNG and are pure in these fields (drift.h).
  std::string key;
  append_u(key, config.system.num_videos);
  append_f(key, config.zipf_theta);
  append_u(key, config.drift.enabled ? 1 : 0);
  if (config.drift.enabled) {
    append_f(key, config.drift.period);
    append_u(key, config.drift.step);
  }
  return key;
}

std::string SweepContext::placement_key(const SimulationConfig& config) {
  // Placement consumes the catalog, the t=0 popularity law, the (fresh)
  // server vector, the policy + knobs, the copy budget, and its own RNG
  // stream — all of which must appear in the key.
  const SeedPlan seeds = SeedPlan::derive(config.seed);
  std::string key = catalog_key(config);
  key += popularity_key(config);
  append_u(key, static_cast<std::uint64_t>(config.placement.kind));
  if (config.placement.kind == PlacementKind::kPartialPredictive) {
    append_f(key, config.placement.partial_head_fraction);
    append_f(key, config.placement.partial_tail_shift);
  }
  if (config.placement.kind == PlacementKind::kDomainSpread) {
    // The install depends on the failure-domain tree shape.
    append_u(key, config.topology.enabled ? 1 : 0);
    append_u(key, static_cast<std::uint64_t>(config.topology.racks));
    append_u(key, static_cast<std::uint64_t>(config.topology.zones));
  }
  append_f(key, config.system.avg_copies);
  append_u(key, static_cast<std::uint64_t>(config.system.num_servers));
  append_f(key, config.system.server_bandwidth);
  append_f(key, config.system.server_storage);
  append_profile(key, config.system.bandwidth_profile);
  append_profile(key, config.system.storage_profile);
  append_u(key, seeds.placement);
  return key;
}

std::string SweepContext::bounds_key(const SimulationConfig& config) {
  // Bounds are a pure function of the placement inputs (world shape) plus
  // the load factor and the regime gates (analysis/bounds.h). Scheduler
  // and migration policy deliberately do not appear: bounds are
  // policy-independent, which is what lets a whole tournament column share
  // one report.
  std::string key = placement_key(config);
  append_f(key, config.load_factor);
  append_f(key, config.client.staging_fraction);
  append_u(key, config.admission.buffer_aware ? 1 : 0);
  append_u(key, config.failure.retry.enabled ? 1 : 0);
  append_u(key, config.replication.enabled ? 1 : 0);
  append_u(key, config.failure.repair.enabled ? 1 : 0);
  return key;
}

void SweepContext::prepare(const std::vector<SimulationConfig>& configs,
                           int trials, std::uint64_t master_seed) {
  for (const SimulationConfig& base : configs) {
    for (int trial = 0; trial < trials; ++trial) {
      SimulationConfig config = base;
      config.seed = ExperimentRunner::derive_seed(master_seed, trial);
      const SeedPlan seeds = SeedPlan::derive(config.seed);

      auto [cat_it, cat_fresh] = catalogs_.try_emplace(catalog_key(config));
      if (cat_fresh) {
        Rng catalog_rng(seeds.catalog);
        CatalogSpec spec;
        spec.num_videos = config.system.num_videos;
        spec.min_duration = config.system.video_min_duration;
        spec.max_duration = config.system.video_max_duration;
        spec.view_bandwidth = config.system.view_bandwidth;
        cat_it->second =
            std::make_shared<const VideoCatalog>(generate_catalog(spec, catalog_rng));
      }

      auto [pop_it, pop_fresh] = popularity_.try_emplace(popularity_key(config));
      if (pop_fresh) {
        if (config.drift.enabled) {
          pop_it->second = std::make_shared<const DriftingZipfPopularity>(
              config.system.num_videos, config.zipf_theta, config.drift.period,
              config.drift.step);
        } else {
          pop_it->second = std::make_shared<const StaticZipfPopularity>(
              config.system.num_videos, config.zipf_theta);
        }
      }

      auto [place_it, place_fresh] =
          placements_.try_emplace(placement_key(config));
      if (place_fresh) {
        // Run the placement exactly as VodSimulation::build_world would —
        // same policy construction, same RNG stream, same fresh servers —
        // and record the install order for bit-exact replay.
        const auto placement = make_placement(
            config.placement, Topology(config.topology, config.system.num_servers));
        Rng placement_rng(seeds.placement);
        std::vector<Server> servers = make_servers(config.system);
        auto blueprint = std::make_shared<PlacementBlueprint>();
        blueprint->result = placement->place(
            *cat_it->second, pop_it->second->probabilities(0.0),
            config.system.avg_copies, servers, placement_rng);
        blueprint->server_replicas.reserve(servers.size());
        for (const Server& server : servers) {
          blueprint->server_replicas.push_back(server.replicas());
        }
        place_it->second = std::move(blueprint);
      }

      auto [bounds_it, bounds_fresh] = bounds_.try_emplace(bounds_key(config));
      if (bounds_fresh) {
        // Reconstruct the placed world from the blueprint (the placement
        // may have been cached by an earlier config, so the scratch servers
        // from the fresh branch are not necessarily in scope) and compute
        // the placement-aware bounds exactly as build_world would.
        std::vector<Server> bound_servers = make_servers(config.system);
        const PlacementBlueprint& blueprint = *place_it->second;
        for (std::size_t s = 0; s < bound_servers.size(); ++s) {
          for (VideoId video : blueprint.server_replicas[s]) {
            bound_servers[s].add_replica((*cat_it->second)[video]);
          }
        }
        const ReplicaDirectory directory(cat_it->second->size(), bound_servers);
        bounds_it->second = std::make_shared<const BoundsReport>(
            compute_bounds(config, *cat_it->second,
                           pop_it->second->probabilities(0.0), directory,
                           bound_servers));
      }
    }
  }
}

std::shared_ptr<const VideoCatalog> SweepContext::find_catalog(
    const SimulationConfig& config) const {
  auto it = catalogs_.find(catalog_key(config));
  return it == catalogs_.end() ? nullptr : it->second;
}

std::shared_ptr<const PopularityModel> SweepContext::find_popularity(
    const SimulationConfig& config) const {
  auto it = popularity_.find(popularity_key(config));
  return it == popularity_.end() ? nullptr : it->second;
}

std::shared_ptr<const PlacementBlueprint> SweepContext::find_placement(
    const SimulationConfig& config) const {
  auto it = placements_.find(placement_key(config));
  return it == placements_.end() ? nullptr : it->second;
}

std::shared_ptr<const BoundsReport> SweepContext::find_bounds(
    const SimulationConfig& config) const {
  auto it = bounds_.find(bounds_key(config));
  return it == bounds_.end() ? nullptr : it->second;
}

}  // namespace vodsim
