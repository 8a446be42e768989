/// \file bounds_test.cpp
/// \brief Brute-force validation of the analytic bounds (analysis/bounds.h).
///
/// Every oracle is checked against exhaustive enumeration on instances small
/// enough to enumerate (<= 4 servers, <= 6 titles, <= 8 streams): the Erlang
/// recursion against the direct factorial sum, the fractional knapsack
/// against all (subset, boundary item) bases, the closed-form uniform kept
/// fraction against a discretized knapsack, and the placement-aware
/// rejection bound against a 4^8 stream-assignment search. The audit is
/// exercised in both directions: consistent runs pass, fabricated
/// impossible measurements are flagged.

#include "vodsim/analysis/bounds.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <vector>

#include "vodsim/admission/controller.h"
#include "vodsim/analysis/erlang.h"
#include "vodsim/cluster/server.h"
#include "vodsim/cluster/video.h"
#include "vodsim/engine/experiment.h"
#include "vodsim/engine/sweep_context.h"
#include "vodsim/engine/vod_simulation.h"
#include "vodsim/util/rng.h"

namespace vodsim {
namespace {

using bounds_detail::max_kept_mass;
using bounds_detail::pooled_channels;
using bounds_detail::uniform_kept_fraction;

TEST(BoundsErlang, RecursionMatchesDirectFactorialSum) {
  for (int c = 1; c <= 10; ++c) {
    for (double a : {0.25, 1.0, 3.0, 7.5, 20.0}) {
      // B(c, a) = (a^c / c!) / sum_{k=0..c} a^k / k!, computed directly.
      double term = 1.0;  // a^k / k! at k = 0
      double sum = 1.0;
      for (int k = 1; k <= c; ++k) {
        term *= a / k;
        sum += term;
      }
      const double direct = term / sum;
      EXPECT_NEAR(erlang_b_blocking(c, a), direct, 1e-12)
          << "c=" << c << " a=" << a;
    }
  }
}

// The fractional-knapsack optimum keeps a set of whole items plus at most
// one fractional item. Enumerating every (subset, boundary item) base is
// therefore a complete search — independent of the exchange argument the
// implementation relies on.
double enumerate_kept_mass(const std::vector<std::pair<double, double>>& items,
                           double rate, double capacity) {
  const std::size_t n = items.size();
  double best = 0.0;
  for (std::size_t subset = 0; subset < (1u << n); ++subset) {
    double mass = 0.0;
    double work = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      if (subset & (1u << i)) {
        mass += items[i].first;
        work += rate * items[i].first * items[i].second;
      }
    }
    if (work > capacity + 1e-12) continue;
    best = std::max(best, mass);
    for (std::size_t j = 0; j < n; ++j) {
      if (subset & (1u << j)) continue;
      const double item_work = rate * items[j].first * items[j].second;
      if (item_work <= 0.0) continue;
      const double fraction = std::min(1.0, (capacity - work) / item_work);
      best = std::max(best, mass + fraction * items[j].first);
    }
  }
  return best;
}

TEST(BoundsKnapsack, MatchesExhaustiveEnumerationOnRandomInstances) {
  Rng rng(7);
  for (int instance = 0; instance < 300; ++instance) {
    const std::size_t n = 1 + rng.uniform_int(6);
    std::vector<std::pair<double, double>> items;
    double total_mass = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      const double mass = rng.uniform(0.01, 1.0);
      items.emplace_back(mass, rng.uniform(1.0, 50.0));
      total_mass += mass;
    }
    for (auto& [mass, size] : items) mass /= total_mass;  // masses sum to 1
    const double rate = rng.uniform(0.05, 2.0);
    // Sweep capacity from starved to saturated relative to offered work.
    double offered = 0.0;
    for (const auto& [mass, size] : items) offered += rate * mass * size;
    const double capacity = offered * rng.uniform(0.0, 1.3);

    const double fast = max_kept_mass(items, rate, capacity);
    const double enumerated = enumerate_kept_mass(items, rate, capacity);
    EXPECT_NEAR(fast, enumerated, 1e-9) << "instance " << instance;
    EXPECT_GE(fast, -1e-12);
    EXPECT_LE(fast, 1.0 + 1e-12);
  }
}

TEST(BoundsKnapsack, DominatesEveryIntegralSelection) {
  const std::vector<std::pair<double, double>> items = {
      {0.25, 10.0}, {0.25, 20.0}, {0.25, 30.0}, {0.25, 40.0}};
  const double rate = 1.0;
  const double capacity = 12.0;
  const double fractional = max_kept_mass(items, rate, capacity);
  for (std::size_t subset = 0; subset < (1u << items.size()); ++subset) {
    double mass = 0.0;
    double work = 0.0;
    for (std::size_t i = 0; i < items.size(); ++i) {
      if (subset & (1u << i)) {
        mass += items[i].first;
        work += rate * items[i].first * items[i].second;
      }
    }
    if (work <= capacity) {
      EXPECT_GE(fractional + 1e-12, mass);
    }
  }
}

TEST(BoundsKnapsack, EdgeCases) {
  // No capacity with positive rate: nothing is keepable.
  EXPECT_EQ(max_kept_mass({{0.5, 10.0}, {0.5, 20.0}}, 1.0, 0.0), 0.0);
  // No arrivals: everything is (vacuously) keepable.
  EXPECT_EQ(max_kept_mass({{0.5, 10.0}, {0.5, 20.0}}, 0.0, 5.0), 1.0);
  // Abundant capacity keeps all mass.
  EXPECT_NEAR(max_kept_mass({{0.4, 10.0}, {0.6, 20.0}}, 1.0, 1e6), 1.0, 1e-12);
}

TEST(BoundsUniform, ClosedFormMatchesDiscretizedKnapsack) {
  // Uniform sizes on [smin, smax], equal mass: discretize into 4000
  // equal-mass atoms at bucket midpoints and run the generic knapsack.
  const double smin = 600.0, smax = 5400.0;
  for (double rate : {0.01, 0.05, 0.2}) {
    for (double capacity : {10.0, 100.0, 300.0, 1000.0}) {
      const int atoms = 4000;
      std::vector<std::pair<double, double>> items;
      items.reserve(atoms);
      for (int i = 0; i < atoms; ++i) {
        const double size = smin + (smax - smin) * (i + 0.5) / atoms;
        items.emplace_back(1.0 / atoms, size);
      }
      const double discrete = max_kept_mass(items, rate, capacity);
      const double closed = uniform_kept_fraction(smin, smax, rate, capacity);
      EXPECT_NEAR(closed, discrete, 2e-3)
          << "rate=" << rate << " capacity=" << capacity;
    }
  }
}

TEST(BoundsUniform, DegenerateSpreadAndUnderload) {
  // Identical sizes: kept fraction is a pure capacity ratio.
  EXPECT_NEAR(uniform_kept_fraction(100.0, 100.0, 1.0, 50.0), 0.5, 1e-12);
  // Offered work below capacity: everything is kept.
  EXPECT_EQ(uniform_kept_fraction(10.0, 20.0, 0.1, 100.0), 1.0);
  EXPECT_EQ(uniform_kept_fraction(10.0, 20.0, 0.0, 0.0), 1.0);
}

TEST(BoundsChannels, PooledChannelsFloorsPerServer) {
  std::vector<Server> servers;
  servers.emplace_back(0, 100.0, 1e9);  // 33 channels at 3 Mb/s
  servers.emplace_back(1, 99.0, 1e9);   // exactly 33
  servers.emplace_back(2, 2.9, 1e9);    // 0
  servers.emplace_back(3, 3.0, 1e9);    // 1 (epsilon guard)
  EXPECT_EQ(pooled_channels(servers, 3.0), 33 + 33 + 0 + 1);
  EXPECT_EQ(pooled_channels(servers, 0.0), 0);
}

// --- tiny-instance brute force: streams -> servers -----------------------
//
// A static snapshot with <= 8 unit-rate streams, <= 6 titles, <= 4 servers:
// enumerate every assignment of each stream to {reject, server 0..S-1},
// admissible iff the server holds the stream's title and no server exceeds
// its channel count. The best assignment serves the most streams, so
// 1 - best/streams is the true optimal rejection fraction. Mapping the
// snapshot to the fluid bound (uniform sizes s, lambda chosen so that
// lambda * mass_t * size = count_t * view_bw), every capacity is an integer
// number of channels, so the fractional transportation optimum is integral
// and the enumerated value is exact — the oracle must never exceed it, and
// on single-holder instances it must *match* it.
struct TinyInstance {
  std::vector<int> stream_titles;          // one entry per stream
  std::vector<std::vector<int>> holders;   // holders[title] = server ids
  std::vector<int> channels;               // channels[server]
};

double enumerate_optimal_rejection(const TinyInstance& tiny) {
  const std::size_t streams = tiny.stream_titles.size();
  const std::size_t options = tiny.channels.size() + 1;  // + reject
  std::size_t best = 0;
  std::vector<std::size_t> choice(streams, 0);
  std::size_t combos = 1;
  for (std::size_t i = 0; i < streams; ++i) combos *= options;
  for (std::size_t code = 0; code < combos; ++code) {
    std::size_t rest = code;
    std::vector<int> load(tiny.channels.size(), 0);
    std::size_t served = 0;
    bool ok = true;
    for (std::size_t i = 0; i < streams && ok; ++i) {
      const std::size_t pick = rest % options;
      rest /= options;
      if (pick == 0) continue;  // rejected
      const int server = static_cast<int>(pick - 1);
      const std::vector<int>& holds = tiny.holders[
          static_cast<std::size_t>(tiny.stream_titles[i])];
      if (std::find(holds.begin(), holds.end(), server) == holds.end()) {
        ok = false;
        break;
      }
      if (++load[static_cast<std::size_t>(server)] >
          tiny.channels[static_cast<std::size_t>(server)]) {
        ok = false;
        break;
      }
      ++served;
    }
    if (ok) best = std::max(best, served);
  }
  return 1.0 - static_cast<double>(best) / static_cast<double>(streams);
}

// Builds the realized world for a tiny instance and runs the placement-
// aware oracle on it. All titles share one size; stream counts become
// popularity masses; lambda is scaled so offered work matches the snapshot.
BoundsReport tiny_bounds(const TinyInstance& tiny) {
  const double view_bw = 3.0;  // 10-minute titles of 1800 Mb
  const std::size_t num_titles = tiny.holders.size();
  const std::size_t streams = tiny.stream_titles.size();

  std::vector<Video> videos;
  for (std::size_t t = 0; t < num_titles; ++t) {
    videos.push_back({static_cast<VideoId>(t), 600.0, view_bw});
  }
  VideoCatalog catalog(std::move(videos));

  std::vector<double> popularity(num_titles, 0.0);
  for (int title : tiny.stream_titles) {
    popularity[static_cast<std::size_t>(title)] +=
        1.0 / static_cast<double>(streams);
  }

  std::vector<Server> servers;
  double total_bw = 0.0;
  for (std::size_t s = 0; s < tiny.channels.size(); ++s) {
    const double bw = view_bw * tiny.channels[s];
    servers.emplace_back(static_cast<ServerId>(s), bw, 1e9);
    total_bw += bw;
  }
  for (std::size_t t = 0; t < num_titles; ++t) {
    for (int s : tiny.holders[t]) {
      servers[static_cast<std::size_t>(s)].add_replica(
          catalog[static_cast<VideoId>(t)]);
    }
  }
  const ReplicaDirectory directory(num_titles, servers);

  SimulationConfig config;
  config.system.name = "tiny";
  config.system.num_servers = static_cast<int>(tiny.channels.size());
  config.system.server_bandwidth =
      total_bw / static_cast<double>(tiny.channels.size());
  config.system.view_bandwidth = view_bw;
  config.system.num_videos = num_titles;
  // The engine calibrates lambda from the *config's* duration law, so it
  // must match the realized catalog exactly (all titles 600 s).
  config.system.video_min_duration = 600.0;
  config.system.video_max_duration = 600.0;
  // lambda * E[size] = streams * view_bw  <=>  offered work equals the
  // aggregate rate of all snapshot streams playing at once.
  config.load_factor = static_cast<double>(streams) * view_bw / total_bw;
  // Keep the Erlang family out of the comparison: it bounds the *expected*
  // blocking of the Poisson loss system, which a static snapshot that
  // happens to fit can legitimately undercut. Staging > 0 gates it off,
  // leaving exactly the fluid + placement families the enumeration solves.
  config.client.staging_fraction = 0.2;
  return compute_bounds(config, catalog, popularity, directory, servers);
}

TEST(BoundsTinyInstance, OracleMatchesEnumerationWhenHoldersAreExclusive) {
  // Every title on exactly one server: the transportation problem
  // decouples per server and the placement term is exact.
  const std::vector<TinyInstance> instances = {
      // 2 servers x 1 channel, 4 streams on 2 titles: each server must
      // shed 1 of its 2 streams -> optimum rejection 1/2.
      {{0, 0, 1, 1}, {{0}, {1}}, {1, 1}},
      // Hot title on a 2-channel server, cold title with its own server:
      // 5 streams on title 0 (cap 2) + 1 on title 1 (cap 1) -> reject 3/6.
      {{0, 0, 0, 0, 0, 1}, {{0}, {1}}, {2, 1}},
      // 3 servers, 3 titles, balanced: everything fits -> reject 0.
      {{0, 1, 2, 0, 1, 2}, {{0}, {1}, {2}}, {2, 2, 2}},
      // 4 servers, 4 titles, one starved server.
      {{0, 1, 2, 3, 3, 3}, {{0}, {1}, {2}, {3}}, {1, 1, 1, 1}},
      // Zero-replica title: its whole mass must reject.
      {{0, 0, 1, 1}, {{0}, {}}, {2, 2}},
  };
  for (std::size_t i = 0; i < instances.size(); ++i) {
    const double enumerated = enumerate_optimal_rejection(instances[i]);
    const BoundsReport bounds = tiny_bounds(instances[i]);
    EXPECT_NEAR(bounds.rejection_lower, enumerated, 1e-9) << "instance " << i;
  }
}

TEST(BoundsTinyInstance, OracleNeverExceedsEnumeratedOptimum) {
  // Replicated titles: routing freedom can only help the adversary, so the
  // oracle must stay a *lower* bound on the enumerated optimum.
  Rng rng(11);
  for (int trial = 0; trial < 40; ++trial) {
    TinyInstance tiny;
    const std::size_t num_servers = 2 + rng.uniform_int(3);   // 2..4
    const std::size_t num_titles = 1 + rng.uniform_int(6);    // 1..6
    const std::size_t streams = 1 + rng.uniform_int(8);       // 1..8
    for (std::size_t s = 0; s < num_servers; ++s) {
      tiny.channels.push_back(1 + static_cast<int>(rng.uniform_int(2)));
    }
    tiny.holders.resize(num_titles);
    for (std::size_t t = 0; t < num_titles; ++t) {
      for (std::size_t s = 0; s < num_servers; ++s) {
        if (rng.uniform() < 0.5) {
          tiny.holders[t].push_back(static_cast<int>(s));
        }
      }
    }
    for (std::size_t i = 0; i < streams; ++i) {
      tiny.stream_titles.push_back(
          static_cast<int>(rng.uniform_int(num_titles)));
    }
    const double enumerated = enumerate_optimal_rejection(tiny);
    const BoundsReport bounds = tiny_bounds(tiny);
    EXPECT_LE(bounds.rejection_lower, enumerated + 1e-9)
        << "trial " << trial << ": a bound that exceeds the enumerated "
        << "optimum is not a bound";
  }
}

// --- regime gates ---------------------------------------------------------

TEST(BoundsGates, ErlangRegimeRequiresZeroStagingAndPlainAdmission) {
  SimulationConfig config;
  config.system = SystemConfig::small_system();
  config.client.staging_fraction = 0.0;
  EXPECT_TRUE(compute_bounds(config).erlang_regime);

  SimulationConfig staged = config;
  staged.client.staging_fraction = 0.2;
  EXPECT_FALSE(compute_bounds(staged).erlang_regime);

  SimulationConfig retrying = config;
  retrying.failure.retry.enabled = true;
  EXPECT_FALSE(compute_bounds(retrying).erlang_regime);

  SimulationConfig aggressive = config;
  aggressive.scheduler = SchedulerKind::kIntermittent;
  aggressive.admission.buffer_aware = true;
  EXPECT_FALSE(compute_bounds(aggressive).erlang_regime);
}

TEST(BoundsGates, PlacementTermsSwitchOffUnderDynamicReplicaSets) {
  SimulationConfig config;
  config.system = SystemConfig::small_system();
  EXPECT_TRUE(compute_bounds(config).placement_terms_valid);
  SimulationConfig drifting = config;
  drifting.drift.enabled = true;
  drifting.drift.period = hours(1);
  const BoundsReport drift_bounds = compute_bounds(drifting);
  EXPECT_FALSE(drift_bounds.placement_terms_valid);
  EXPECT_FALSE(drift_bounds.statistically_sound);
  SimulationConfig replicating = config;
  replicating.replication.enabled = true;
  EXPECT_FALSE(compute_bounds(replicating).placement_terms_valid);
  SimulationConfig repairing = config;
  repairing.failure.repair.enabled = true;
  EXPECT_FALSE(compute_bounds(repairing).placement_terms_valid);
}

TEST(BoundsMonotonicity, RejectionGrowsAndUtilizationSaturatesWithLoad) {
  SimulationConfig config;
  config.system = SystemConfig::small_system();
  config.client.staging_fraction = 0.0;
  double last_rejection = -1.0;
  double last_upper = -1.0;
  for (double load : {0.25, 0.5, 0.9, 1.0, 1.5, 2.5, 4.0}) {
    config.load_factor = load;
    const BoundsReport bounds = compute_bounds(config);
    EXPECT_GE(bounds.rejection_lower, last_rejection - 1e-12) << load;
    EXPECT_GE(bounds.utilization_upper, last_upper - 1e-12) << load;
    EXPECT_GE(bounds.rejection_lower, 0.0);
    EXPECT_LE(bounds.rejection_lower, 1.0);
    EXPECT_GE(bounds.utilization_upper, 0.0);
    EXPECT_LE(bounds.utilization_upper, 1.0);
    last_rejection = bounds.rejection_lower;
    last_upper = bounds.utilization_upper;
  }
  // Deep overload: most mass must reject.
  config.load_factor = 50.0;
  EXPECT_GT(compute_bounds(config).rejection_lower, 0.7);
}

// --- the audit, in both directions ----------------------------------------

TEST(BoundsAudit, CleanMetricsPass) {
  BoundsReport bounds;
  bounds.total_bandwidth = 500.0;
  bounds.rejection_lower = 0.1;
  bounds.utilization_upper = 0.9;
  bounds.mean_duration = 1200.0;
  bounds.max_duration = 1800.0;
  bounds.max_size = 5400.0;
  Metrics metrics(0.0, 100000.0, 500.0);
  for (int i = 0; i < 1000; ++i) {
    metrics.record_arrival(50.0 * i);
    if (i % 5 == 0) metrics.record_rejection(50.0 * i);  // 20% >= LB
  }
  metrics.record_transmission(0.0, 100000.0, 400.0);  // utilization 0.8 < UB
  EXPECT_EQ(audit_bounds(bounds, metrics), "");
}

TEST(BoundsAudit, FlagsRejectionBelowTheProvenLowerBound) {
  BoundsReport bounds;
  bounds.total_bandwidth = 500.0;
  bounds.rejection_lower = 0.5;   // half the mass provably cannot fit...
  bounds.mean_duration = 100.0;   // short holding time: tiny transient
  bounds.max_duration = 100.0;
  bounds.max_size = 300.0;
  Metrics metrics(0.0, 1e6, 500.0);
  for (int i = 0; i < 20000; ++i) metrics.record_arrival(10.0 * i);
  // ...yet the run claims to have served everything.
  const std::string why = audit_bounds(bounds, metrics);
  ASSERT_NE(why, "");
  EXPECT_NE(why.find("beats the proven lower bound"), std::string::npos);
}

TEST(BoundsAudit, FlagsUtilizationAboveTheProvenUpperBound) {
  BoundsReport bounds;
  bounds.total_bandwidth = 500.0;
  bounds.utilization_upper = 0.3;
  bounds.rejection_lower = 0.0;
  bounds.mean_duration = 100.0;
  bounds.max_duration = 100.0;
  bounds.max_size = 300.0;  // small objects: tight utilization slack
  Metrics metrics(0.0, 1e6, 500.0);
  for (int i = 0; i < 1000; ++i) metrics.record_arrival(1000.0 * i);
  metrics.record_transmission(0.0, 1e6, 450.0);  // utilization 0.9 >> 0.3
  const std::string why = audit_bounds(bounds, metrics);
  ASSERT_NE(why, "");
  EXPECT_NE(why.find("beats the proven upper bound"), std::string::npos);
}

TEST(BoundsAudit, FlagsUtilizationAboveAvailability) {
  BoundsReport bounds;  // sure check: no statistical terms involved
  Metrics metrics(0.0, 1000.0, 100.0);
  metrics.record_capacity_loss(0.0, 1000.0, 50.0);  // availability 0.5
  metrics.record_transmission(0.0, 1000.0, 90.0);   // utilization 0.9
  const std::string why = audit_bounds(bounds, metrics);
  ASSERT_NE(why, "");
  EXPECT_NE(why.find("exceeds availability"), std::string::npos);
}

TEST(BoundsAudit, StatisticalChecksSkipUnsoundOrEmptyWindows) {
  BoundsReport bounds;
  bounds.rejection_lower = 0.9;
  bounds.statistically_sound = false;  // e.g. popularity drift
  Metrics metrics(0.0, 1000.0, 100.0);
  for (int i = 0; i < 100; ++i) metrics.record_arrival(10.0 * i);
  EXPECT_EQ(audit_bounds(bounds, metrics), "");
  bounds.statistically_sound = true;
  Metrics idle(0.0, 1000.0, 100.0);  // zero arrivals: nothing to test
  EXPECT_EQ(audit_bounds(bounds, idle), "");
}

// --- end to end: real runs respect their own bounds -----------------------

TEST(BoundsEndToEnd, SimulationsNeverBeatTheirBounds) {
  for (double staging : {0.0, 0.2}) {
    for (double load : {0.8, 1.5}) {
      SimulationConfig config;
      config.system = SystemConfig::small_system();
      config.system.num_videos = 50;
      config.client.staging_fraction = staging;
      config.load_factor = load;
      config.duration = hours(3);
      config.warmup = hours(0.5);
      config.seed = 17;
      VodSimulation simulation(config);
      simulation.run();
      EXPECT_TRUE(simulation.metrics().has_bounds());
      EXPECT_EQ(audit_bounds(simulation.bounds(), simulation.metrics()), "")
          << "staging " << staging << " load " << load;
    }
  }
}

TEST(BoundsEndToEnd, SweepContextSharesOneReportAcrossSchedulers) {
  SimulationConfig base;
  base.system = SystemConfig::small_system();
  base.system.num_videos = 40;
  base.duration = hours(1);
  base.warmup = 0.0;
  std::vector<SimulationConfig> configs;
  for (SchedulerKind kind :
       {SchedulerKind::kEftf, SchedulerKind::kLftf, SchedulerKind::kContinuous}) {
    SimulationConfig config = base;
    config.scheduler = kind;
    configs.push_back(config);
  }
  SweepContext context;
  context.prepare(configs, 1, 42);
  // Bounds are policy-independent: three scheduler columns, one report.
  EXPECT_EQ(context.bounds_count(), 1u);
  for (const SimulationConfig& config : configs) {
    SimulationConfig trial = config;
    trial.seed = ExperimentRunner::derive_seed(42, 0);
    EXPECT_NE(context.find_bounds(trial), nullptr);
  }
  // A different load factor is a different envelope.
  SimulationConfig loaded = base;
  loaded.load_factor = 2.0;
  context.prepare({loaded}, 1, 42);
  EXPECT_EQ(context.bounds_count(), 2u);
}

TEST(BoundsEndToEnd, GapColumnsReachTrialResults) {
  SimulationConfig config;
  config.system = SystemConfig::small_system();
  config.system.num_videos = 40;
  config.load_factor = 1.5;
  config.duration = hours(2);
  config.warmup = hours(0.5);
  ExperimentRunner runner;
  const ExperimentPoint point = runner.run_point(config, 2, 42);
  ASSERT_EQ(point.trials.size(), 2u);
  for (const TrialResult& trial : point.trials) {
    EXPECT_GT(trial.bound_utilization, 0.0);
    EXPECT_LE(trial.bound_utilization, 1.0);
    EXPECT_NEAR(trial.utilization_gap,
                trial.bound_utilization - trial.utilization, 1e-12);
    EXPECT_NEAR(trial.rejection_gap,
                trial.rejection_ratio - trial.bound_rejection, 1e-12);
  }
  EXPECT_EQ(point.utilization_gap.count(), 2u);
  EXPECT_EQ(point.rejection_gap.count(), 2u);
}

}  // namespace
}  // namespace vodsim
