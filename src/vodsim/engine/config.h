#pragma once

/// \file config.h
/// \brief Full configuration of one simulation trial.
///
/// A SimulationConfig bundles the cluster (Figure 3 of the paper), the
/// client staging policy, the placement/admission/scheduling policies, the
/// workload, and the measurement horizon. The two paper systems are
/// available as presets (`SystemConfig::small_system/large_system`).

#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "vodsim/admission/controller.h"
#include "vodsim/cluster/server.h"
#include "vodsim/cluster/topology.h"
#include "vodsim/fault/transition.h"
#include "vodsim/obs/probes.h"
#include "vodsim/obs/trace.h"
#include "vodsim/placement/placement.h"
#include "vodsim/replication/replication.h"
#include "vodsim/sched/scheduler.h"
#include "vodsim/util/units.h"

namespace vodsim {

/// The cluster and catalog (paper Figure 3).
struct SystemConfig {
  std::string name = "custom";
  int num_servers = 5;
  Mbps server_bandwidth = 100.0;          ///< per-server link, Mb/s
  Megabits server_storage = gigabytes(100);
  Seconds video_min_duration = minutes(10);
  Seconds video_max_duration = minutes(30);
  std::size_t num_videos = 300;
  double avg_copies = 2.2;
  Mbps view_bandwidth = 3.0;

  /// Optional per-server multipliers for heterogeneity studies (§4.6).
  /// Empty = homogeneous. When set, must have num_servers entries; they are
  /// normalized to mean 1 so aggregate capacity is unchanged.
  std::vector<double> bandwidth_profile;
  std::vector<double> storage_profile;

  /// Paper's "small" system: 5 servers x 100 Mb/s, 10-30 min clips.
  static SystemConfig small_system();

  /// Paper's "large" system: 20 servers x 300 Mb/s, 1-2 h features.
  static SystemConfig large_system();

  /// Server-to-view-bandwidth ratio: concurrent streams per server.
  double svbr() const { return server_bandwidth / view_bandwidth; }

  Mbps total_bandwidth() const {
    return server_bandwidth * static_cast<double>(num_servers);
  }

  Seconds mean_video_duration() const {
    return 0.5 * (video_min_duration + video_max_duration);
  }

  Megabits mean_video_size() const {
    return mean_video_duration() * view_bandwidth;
  }
};

/// Client-side staging policy.
struct ClientPolicy {
  /// Staging buffer as a fraction of the *average* video size (the paper's
  /// "x% buffer"). 0 = continuous transmission.
  double staging_fraction = 0.0;

  /// Client receive cap, Mb/s; infinity = unbounded (Theorem 1 regime).
  /// The paper's staging experiments cap this at 30 Mb/s.
  Mbps receive_bandwidth = std::numeric_limits<double>::infinity();
};

/// Placement policy selection plus its tuning knobs.
struct PlacementConfig {
  PlacementKind kind = PlacementKind::kEven;
  /// PartialPredictive only: see PartialPredictivePlacement.
  double partial_head_fraction = 0.10;
  double partial_tail_shift = 0.05;
};

/// Partial capacity loss: a server's link degrades to `capacity_factor`
/// of nominal for an exponential interval. Degradation triggers
/// staging-aware load shedding (most-buffered streams evicted first,
/// migrated before dropped) rather than a crash.
struct BrownoutConfig {
  bool enabled = false;
  Seconds mean_time_between = hours(50);  ///< per server, between episodes
  Seconds mean_duration = minutes(10);
  double capacity_factor = 0.5;  ///< surviving fraction of bandwidth, (0,1)
};

/// Correlated outages: consecutive groups of `group_size` servers crash
/// and repair together (shared rack / switch / power domain).
struct CorrelatedFailureConfig {
  bool enabled = false;
  int group_size = 2;
  Seconds mean_time_between = hours(500);  ///< per group
  Seconds mean_duration = hours(1);
};

/// Bounded retry queue with deterministic exponential backoff. Orphaned
/// streams (victims of crashes/brownouts with no feasible migration
/// target) and rejected arrivals wait here and are re-admitted when
/// capacity returns instead of being permanently lost.
struct RetryConfig {
  bool enabled = false;
  std::size_t max_queue = 64;   ///< entries beyond this are dropped
  int max_attempts = 6;         ///< abandons after this many failures
  Seconds backoff_base = 5.0;   ///< delay doubles per attempt (ldexp-exact)
  Seconds backoff_cap = 300.0;  ///< backoff ceiling
};

/// Domain-scoped correlated outages: whole racks crash and repair together
/// (shared power/switch), per-rack exponential episode process. Requires
/// topology.enabled; the rack membership comes from the Topology tree
/// rather than the ad-hoc consecutive groups of CorrelatedFailureConfig.
struct RackOutageConfig {
  bool enabled = false;
  Seconds mean_time_between = hours(200);  ///< per rack, between episodes
  Seconds mean_duration = minutes(30);
};

/// Domain-scoped brownouts: a whole zone's servers degrade to
/// `capacity_factor` together (shared uplink congestion). Requires
/// topology.enabled.
struct ZoneBrownoutConfig {
  bool enabled = false;
  Seconds mean_time_between = hours(100);  ///< per zone, between episodes
  Seconds mean_duration = minutes(15);
  double capacity_factor = 0.5;  ///< surviving fraction of bandwidth, (0,1)
};

/// Network partitions: a rack's servers stay *up* but become unreachable
/// from the controller (switch/uplink loss). Unlike a crash, the hardware
/// is healthy — but admission, migration, and replication must treat
/// reachability, not liveness, as the gate: no grants land on a
/// partitioned server and no bits cross the partition. On heal the
/// RetryQueue is force-drained so parked streams re-admit immediately.
/// Requires topology.enabled.
struct PartitionConfig {
  bool enabled = false;
  Seconds mean_time_between = hours(100);  ///< per rack, between episodes
  Seconds mean_duration = minutes(5);
};

/// The topology-scoped fault taxonomy (FailureConfig::domains). All three
/// draw on the failure RNG stream *after* every legacy phase (binary,
/// brownout, correlated), each only when enabled — so enabling topology
/// without domain faults, or neither, leaves legacy schedules
/// bit-identical (fault/schedule.h documents the draw-order contract).
struct DomainFaultConfig {
  RackOutageConfig rack_outage;
  ZoneBrownoutConfig zone_brownout;
  PartitionConfig partition;
};

/// Repair replication: a server down longer than `down_threshold` gets the
/// videos it left with zero available holders re-replicated onto healthy
/// servers via the replication/ machinery (bypassing the rejection
/// trigger, respecting caps and storage).
struct RepairConfig {
  bool enabled = false;
  Seconds down_threshold = hours(1);
};

/// Server failure injection (fault-tolerance extension, §3.1 remark).
/// `enabled` gates the whole taxonomy: binary crash/repair is always
/// generated when on; brownouts/correlated/retry/repair are opt-in
/// extensions that draw *after* the binary phase on the failure stream,
/// so legacy crash-only schedules stay bit-identical.
struct FailureConfig {
  bool enabled = false;
  Seconds mean_time_between_failures = hours(200);  ///< per server
  Seconds mean_time_to_repair = hours(2);
  /// Recover the failed server's streams by migrating them to other
  /// replica holders (DRM-based fault tolerance) instead of dropping them.
  bool recover_via_migration = true;
  /// Flap guard: minimum dwell in either state. Draws shorter than this
  /// are stretched to it (0 = off, preserving legacy schedules exactly).
  Seconds min_dwell = 0.0;
  BrownoutConfig brownout;
  CorrelatedFailureConfig correlated;
  DomainFaultConfig domains;
  RetryConfig retry;
  RepairConfig repair;

  /// Resilience-accounting interruption dedupe: a stream that glitches
  /// more than once inside one window of this length counts as *one*
  /// interruption (its starved seconds still all accrue to
  /// glitch_seconds). Without it, a shed-then-readmitted stream whose
  /// retry fires inside the same window double-counts the same
  /// viewer-facing gap (one glitch at shed, another at readmission).
  /// 0 disables dedupe. Shard-count neutral: the window key lives on the
  /// Request, so single-queue and sharded runs count identically.
  Seconds glitch_dedupe_window = 1.0;
};

/// Client VCR interactivity (pause/resume — §6 future-work extension).
/// Pauses arrive per viewing client as a Poisson process; each pause lasts
/// an exponential time. While paused, playback stops consuming, the
/// playback deadline shifts right, and transmission keeps filling the
/// staging buffer (a paused client with a *full* buffer absorbs nothing and
/// its minimum-flow share becomes slack). Theorem 1's optimality proof
/// assumes no pauses; the interactivity bench measures how EFTF degrades.
struct InteractivityConfig {
  bool enabled = false;
  double pauses_per_hour = 2.0;        ///< rate per actively viewing client
  Seconds mean_pause_duration = 120.0; ///< exponential mean
};

/// Popularity drift (obliviousness extension, §1/§6).
struct DriftConfig {
  bool enabled = false;
  Seconds period = hours(100);  ///< epoch length
  std::size_t step = 10;        ///< rank rotation per epoch
};

/// Everything one trial needs.
struct SimulationConfig {
  SystemConfig system;
  ClientPolicy client;

  /// Failure-domain tree (cluster/topology.h): server → rack → zone.
  /// Disabled (the default) is the trivial one-rack tree; every
  /// topology-aware feature (failure.domains, domain_spread placement,
  /// rack-aligned shards, per-domain metrics) degrades to its legacy
  /// behavior bit-for-bit.
  TopologyConfig topology;

  PlacementConfig placement;
  AdmissionConfig admission;
  SchedulerKind scheduler = SchedulerKind::kEftf;

  /// IntermittentScheduler only: seconds of staged playback below which a
  /// stream is urgent (fed before any workahead).
  Seconds intermittent_safety_cover = 10.0;
  FailureConfig failure;

  /// Hand-written fault schedule for tests and what-if studies. When
  /// non-empty it is used verbatim (sorted by time) instead of generating
  /// one from `failure` — no failure-RNG draws happen at all. Entries must
  /// name valid servers; `failure.enabled` need not be set. The
  /// degradation/retry/repair machinery still follows `failure.*` knobs.
  std::vector<FaultTransition> scripted_faults;

  DriftConfig drift;
  ReplicationConfig replication;
  InteractivityConfig interactivity;

  /// Zipf skew theta; 1 = uniform, 0 = Zipf, negative = extreme skew.
  double zipf_theta = 0.271;

  /// Offered load as a fraction of aggregate capacity (paper: 1.0).
  double load_factor = 1.0;

  Seconds duration = hours(1000);
  Seconds warmup = hours(20);
  std::uint64_t seed = 1;

  /// Shard count for the parallel sharded engine (DESIGN.md §12). The
  /// engine runs on execution contexts, each an event queue with its own
  /// Metrics, scheduler instance, trace recorder and scratch arenas; the
  /// coordinator context executes every coupling event (arrivals,
  /// admission, migration, replication, faults, retry, pause/resume,
  /// playback end) serially in global time order. 1 (the default) is the
  /// single-queue engine: the coordinator owns every server and runs every
  /// event, pinned bit-for-bit by the hexfloat determinism goldens.
  /// shards > 1 adds one context per contiguous server block; between
  /// coupling events the shard contexts drain their predicted per-stream
  /// events (tx-complete, buffer-full, buffer-low) in parallel under a
  /// conservative-lookahead window. A sharded run has its own determinism
  /// contract: a fixed shard count is bit-reproducible at any
  /// worker-thread count; counts match single-queue runs exactly and fluid
  /// aggregates agree within the oracle tolerance (enforced by
  /// check/fuzzer.h differentially). Must satisfy
  /// 1 <= shards <= system.num_servers.
  int shards = 1;

  /// Worker threads for the sharded drain windows; 0 = hardware
  /// concurrency. Ignored when shards == 1 (there are no shard contexts
  /// to drain, and no thread pool is created). Any value produces
  /// identical bits for a fixed shard count (each shard drains serially;
  /// merges happen in shard-index order).
  int shard_threads = 0;

  /// Attach the runtime invariant auditor (check/invariant_auditor.h) to
  /// this trial: every executed event is followed by a full physical-state
  /// audit (minimum flow, capacity, buffer bounds, epoch monotonicity) and
  /// the run ends with a bits-conservation reconciliation. Off by default —
  /// the audit pass costs O(active streams) per event. The VODSIM_PARANOID
  /// environment variable (nonzero) forces it on regardless of this flag.
  /// The auditor observes only; results are bit-identical either way.
  bool paranoid = false;

  /// Structured tracing (obs/trace.h): a ring buffer of typed events the
  /// engine, schedulers and admission controller emit. Observe-only and
  /// bit-identical (pinned by determinism_test); the disabled path costs a
  /// null-pointer branch per emission site. The VODSIM_TRACE environment
  /// variable forces it on: a plain number enables all categories, a
  /// comma-separated list ("admission,migration,...") selects some.
  TraceConfig trace;

  /// Periodic cluster probes (obs/probes.h): per-server committed
  /// bandwidth / active streams / staging fill plus queue depth, sampled on
  /// a fixed grid without scheduling simulator events. VODSIM_PROBE=<period
  /// seconds> forces it on. Observe-only, like tracing.
  ProbeConfig probe;

  /// Staging buffer capacity in megabits for this config.
  Megabits staging_capacity() const {
    return client.staging_fraction * system.mean_video_size();
  }

  /// Poisson arrival rate implied by the load factor.
  double arrival_rate() const;

  /// Throws std::invalid_argument on inconsistent parameters.
  void validate() const;
};

/// Per-component RNG seeds derived from a trial's master seed, in the
/// engine's canonical fork order. Factored out of VodSimulation::build_world
/// so the reference oracle (check/reference_oracle.h) can reproduce the
/// exact same streams without duplicating the order-sensitive sequence.
struct SeedPlan {
  std::uint64_t catalog = 0;
  std::uint64_t placement = 0;
  std::uint64_t arrival = 0;
  std::uint64_t decision = 0;
  std::uint64_t failure = 0;
  std::uint64_t interactivity = 0;

  static SeedPlan derive(std::uint64_t master_seed);
};

/// Builds the server vector, applying (normalized) heterogeneity profiles.
std::vector<Server> make_servers(const SystemConfig& system);

/// Normalizes \p profile to mean 1 (used by make_servers; exposed for
/// tests). Throws if any entry is <= 0 or the size mismatches.
std::vector<double> normalize_profile(const std::vector<double>& profile,
                                      std::size_t expected_size);

}  // namespace vodsim
