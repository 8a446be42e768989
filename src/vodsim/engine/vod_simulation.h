#pragma once

/// \file vod_simulation.h
/// \brief The full cluster-VoD simulation: one trial, end to end.
///
/// Wires together the DES kernel, the cluster model, a bandwidth scheduler,
/// the admission controller (with DRM), a placement policy, the workload
/// generator, optional failure injection and optional popularity drift.
///
/// Fluid transmission: each streaming request has a piecewise-constant rate;
/// a server's rates are recomputed (EFTF by default) on every event that
/// changes its active set or a client's ability to absorb workahead:
/// arrival, transmission completion, buffer full, migration, failure.
/// Each recomputation first advances all of the server's streams to now in
/// one batched pass over its FluidLane (cluster/fluid_lane.h), bit-identical
/// to advancing them one at a time in active order.
/// Between recomputations, each streaming request carries up to three
/// *predicted* events — transmission-complete, buffer-full and buffer-low —
/// re-predicted only when its allocation actually changes. They are keys in
/// its server's FluidLane, not queue entries: each server arms one timer at
/// its earliest key (DESIGN.md §8), so a rate change writes a key instead
/// of sifting the event heap.
///
/// Execution contexts (DESIGN.md §12): events run on a context — an event
/// queue with its own metrics, trace recorder, scheduler instance and
/// scratch arenas. The coordinator context runs every cross-server event;
/// a request's predicted events run on the context owning its server.
/// With shards == 1 the coordinator owns every server; with shards > 1
/// each shard context owns a contiguous server block and drains its queue
/// in parallel with the others between coordinator events. Every handler
/// receives its executing context explicitly, so one code path serves both.

#include <cstdint>
#include <memory>
#include <vector>

#include "vodsim/admission/controller.h"
#include "vodsim/analysis/bounds.h"
#include "vodsim/cluster/request.h"
#include "vodsim/cluster/server.h"
#include "vodsim/cluster/topology.h"
#include "vodsim/cluster/video.h"
#include "vodsim/des/simulator.h"
#include "vodsim/engine/config.h"
#include "vodsim/engine/metrics.h"
#include "vodsim/engine/request_arena.h"
#include "vodsim/fault/retry_queue.h"
#include "vodsim/fault/transition.h"
#include "vodsim/obs/probes.h"
#include "vodsim/obs/trace.h"
#include "vodsim/placement/placement.h"
#include "vodsim/replication/replication.h"
#include "vodsim/sched/finish_order.h"
#include "vodsim/sched/scheduler.h"
#include "vodsim/stats/time_weighted.h"
#include "vodsim/util/rng.h"
#include "vodsim/util/stable_vector.h"
#include "vodsim/workload/drift.h"
#include "vodsim/workload/request_generator.h"
#include "vodsim/workload/trace.h"

namespace vodsim {

class InvariantAuditor;
class ThreadPool;

class VodSimulation {
 public:
  /// Validates \p config (throws std::invalid_argument) and builds the
  /// static world: catalog, servers, placement, replica directory.
  explicit VodSimulation(SimulationConfig config);

  /// As above, but replays \p trace instead of generating arrivals (used
  /// for paired policy comparisons). The trace must outlive the simulation.
  VodSimulation(SimulationConfig config, const RequestTrace& trace);

  ~VodSimulation();
  VodSimulation(const VodSimulation&) = delete;
  VodSimulation& operator=(const VodSimulation&) = delete;

  /// Runs the trial to the configured horizon. Call once.
  const Metrics& run();

  // --- introspection ----------------------------------------------------
  const SimulationConfig& config() const { return config_; }
  const VideoCatalog& catalog() const { return catalog_; }
  const std::vector<Server>& servers() const { return servers_; }
  const PlacementResult& placement_result() const { return placement_result_; }
  const ReplicaDirectory& directory() const { return directory_; }
  /// The published metrics: the coordinator context's, with every shard
  /// context's counters folded in at the end of run().
  const Metrics& metrics() const { return *coordinator().metrics; }

  /// The failure-domain tree (cluster/topology.h). Trivial (1 rack, 1 zone)
  /// unless config.topology.enabled.
  const Topology& topology() const { return topology_; }

  /// Analytic achievability envelope for this configuration, computed from
  /// the realized catalog/placement at world construction (analysis/
  /// bounds.h). Pure annotation: runs are bit-identical with or without
  /// reading it. The invariant auditor checks the run against it.
  const BoundsReport& bounds() const { return bounds_; }

  /// The coordinator context's event queue and scheduler instance.
  const Simulator& simulator() const { return coordinator().sim; }
  const BandwidthScheduler& scheduler() const { return *coordinator().scheduler; }
  const AdmissionController& controller() const { return *controller_; }
  /// The pre-generated fault schedule (empty unless failure injection or
  /// scripted faults are configured). Sorted by (time, server, kind).
  const std::vector<FaultTransition>& failure_timeline() const {
    return failure_timeline_;
  }

  /// The retry queue, or nullptr unless failure.retry.enabled.
  const RetryQueue* retry_queue() const { return retry_queue_.get(); }

  /// Recompute-memo epoch of \p server: bumps whenever the server's
  /// allocation inputs change and never otherwise. The invariant auditor
  /// checks monotonicity; exposed for it and for tests.
  std::uint64_t recompute_epoch(ServerId server) const {
    return recompute_state_[static_cast<std::size_t>(server)].epoch;
  }

  /// The key \p server's predicted-event timer is armed at, kNoEventKey
  /// when no timer is pending. Between events it equals the earliest live
  /// prediction key in the server's lane; the invariant auditor checks that
  /// (InvariantAuditor::check_prediction_timer).
  EventKey prediction_timer_key(ServerId server) const {
    return recompute_state_[static_cast<std::size_t>(server)].armed;
  }

  /// The attached auditor, or nullptr unless paranoid mode is on.
  const InvariantAuditor* auditor() const { return auditor_.get(); }

  /// The coordinator context's trace recorder, or nullptr unless tracing is
  /// on (config.trace / VODSIM_TRACE). Observe-only: a traced run is
  /// bit-identical to an untraced one. A sharded run's shard contexts
  /// record into their own recorders; merged_trace_events() and
  /// trace_totals() cover all of them.
  const TraceRecorder* trace() const { return coordinator().trace.get(); }

  /// The probe set, or nullptr unless probing is on (config.probe /
  /// VODSIM_PROBE). Observe-only, like the trace recorder.
  const ProbeSet* probes() const { return probes_.get(); }

  /// Every request ever created (terminal states included), in id order;
  /// audit surface for tests. Sharded runs store requests in per-shard
  /// pools (engine/request_arena.h) but iteration order is id order either
  /// way.
  const RequestArena& requests() const { return requests_; }

  /// Playback continuity violations observed (should be 0 except under
  /// failure injection or nonzero switch latency). Sums the counters of
  /// every execution context.
  std::uint64_t continuity_violations() const;

  // --- sharded engine introspection (DESIGN.md §12) ---------------------
  /// Configured shard count; 1 = single-queue (the coordinator context
  /// owns every server).
  int shard_count() const { return config_.shards; }

  /// Shard owning \p server (0 when shards == 1, where the coordinator
  /// context owns every server). Contiguous blocks: consecutive servers
  /// share a shard, aligning with the fault subsystem's correlated
  /// (rack/zone) outage groups.
  int shard_of_server(ServerId server) const;

  /// Events executed on the coordinator queue (arrivals, admission,
  /// migration, replication, faults, retries, pause/resume, playback
  /// end). Valid after run(). With shards == 1 this is every event.
  std::uint64_t coordinator_events() const;

  /// Events executed across all shard queues (the predicted per-stream
  /// events: tx-complete, buffer-full, buffer-low). 0 when shards == 1.
  /// coordinator_events()/shard_events() is the measured serial/parallel
  /// work split of a sharded run (no million-stream headline of it has been
  /// recorded yet).
  std::uint64_t shard_events() const;

  /// All trace events from every context's recorder, merged in
  /// (time, shard, seq) order — each tagged with its executing context
  /// (TraceEvent::shard: -1 = the coordinator). Empty when tracing is off.
  /// This, with trace_totals(), is what the exporters write.
  std::vector<TraceEvent> merged_trace_events() const;

  /// Ring totals summed over every context's recorder (all zero when
  /// tracing is off).
  TraceTotals trace_totals() const;

  /// Time-weighted per-server stream occupancy over the measurement window.
  struct OccupancySummary {
    double mean_active = 0.0;        ///< mean streams per server
    double min_server_mean = 0.0;    ///< least-loaded server's mean
    double max_server_mean = 0.0;    ///< most-loaded server's mean
    /// (max - min) / cluster mean; 0 = perfectly balanced.
    double imbalance = 0.0;
  };

  /// Valid after run().
  OccupancySummary occupancy() const;

  /// Total viewer pauses started (interactivity extension).
  std::uint64_t pauses_started() const { return pauses_started_; }

 private:
  /// One execution context (DESIGN.md §12): an event queue plus everything
  /// the events it runs account into — a Metrics instance, a trace
  /// recorder, a scheduler instance, a continuity counter and scratch
  /// arenas — and the contiguous server block [first_server, end_server)
  /// whose predicted per-stream events (tx-complete, buffer-full,
  /// buffer-low) it runs. contexts_[0] is the coordinator: it runs every
  /// cross-server event (admission, migration, replication, faults,
  /// retries, pause/resume, playback end) and, with shards == 1, owns
  /// every server. With shards > 1, contexts_[1..K] own the shard blocks
  /// and the coordinator owns none; between coordinator events each shard
  /// context drains its queue with no shared mutable state, so the drains
  /// parallelize with no locks.
  struct ExecContext {
    ExecContext() = default;
    /// Pinned: predicted-event callbacks hold the owner's address.
    ExecContext(const ExecContext&) = delete;
    ExecContext& operator=(const ExecContext&) = delete;

    int index = 0;  ///< position in contexts_; 0 = coordinator
    int first_server = 0;
    int end_server = 0;  ///< exclusive
    Simulator sim;
    std::unique_ptr<Metrics> metrics;
    /// Present only when tracing is on; tagged index - 1 (-1 = coordinator).
    std::unique_ptr<TraceRecorder> trace;
    /// allocate() is const and deterministic, so every context's instance
    /// produces identical rates; one per context keeps its trace emission
    /// on the context's own recorder.
    std::unique_ptr<BandwidthScheduler> scheduler;
    std::uint64_t continuity_violations = 0;
    /// Scratch buffers for scheduler output and working sets (reused
    /// across events; the steady-state loop performs no per-event heap
    /// allocations).
    std::vector<Mbps> rates_scratch;
    AllocationScratch sched_scratch;
    /// Per-slot playback underflow from the last fluid batch (written
    /// wholesale by FluidLane::advance_batch).
    std::vector<Megabits> underflow_scratch;
    /// Slots whose allocation changed in the current recompute pass;
    /// decides scalar vs. batched prediction.
    std::vector<std::size_t> changed_slots;
    /// Predicted-time outputs of FluidLane::fill_predicted_times (written
    /// wholesale per batched retime pass).
    std::vector<Seconds> retime_tx;
    std::vector<Seconds> retime_full;
    std::vector<Seconds> retime_low;
  };

  void build_world();

  /// Appends the context owning servers [first_server, end_server) to
  /// contexts_; part of build_world.
  void build_context(int first_server, int end_server,
                     const TraceConfig& trace_config);

  ExecContext& coordinator() { return *contexts_.front(); }
  const ExecContext& coordinator() const { return *contexts_.front(); }

  /// Index of the context owning \p server — the queue its requests'
  /// predicted events live in and the RequestArena pool its requests are
  /// created in (engine/request_arena.h). The coordinator (0) for
  /// kNoServer.
  std::size_t owner_index(ServerId server) const;

  /// The context owning \p server. The server's predicted-event timer
  /// lives in its queue (EventIds are queue-local) and its predictions take
  /// their seqs there; a request's server never changes while its
  /// predictions are live (every migration/recovery path cancels first).
  ExecContext& owner_of(ServerId server) { return *contexts_[owner_index(server)]; }

  /// Runs every context to the horizon: the conservative-lookahead window
  /// loop (DESIGN.md §12). With no shard contexts it only steps the
  /// coordinator queue.
  void run_windows();

  void schedule_next_arrival();
  void handle_arrival(const Arrival& arrival);

  /// Starts \p request streaming from \p server now: attaches it, schedules
  /// its playback end, reallocates the server and (with interactivity)
  /// draws its first pause. Serves arrivals and re-admitted rejections.
  void start_stream(Request& request, ServerId server);

  /// Schedules the coordinator event that ends \p request's playback at its
  /// current playback_end().
  void schedule_playback_end(Request& request);

  /// Executes an accepted decision's DRM migration chain, if it has one,
  /// and records the chain length.
  void execute_migrations(const AdmissionDecision& decision);
  void execute_migration(const MigrationStep& step);
  void finish_migration(Request& request, ServerId target);
  void on_tx_complete(ExecContext& ctx, Request& request);
  void on_buffer_full(ExecContext& ctx, Request& request);
  void on_playback_end(Request& request);

  /// Applies one fault transition: changes the server's state, settles the
  /// capacity-loss ledger, then relocates, sheds or re-admits streams.
  void apply_fault(const FaultTransition& event);

  /// The capacity-loss ledger's one transition. Derives \p server's loss
  /// from its state, by cause precedence: down (whole link) when not
  /// available, else partition (whole link) when not reachable, else
  /// brownout (bandwidth * (1 - capacity_factor)) when degraded. When the
  /// (cause, rate) pair differs from the open interval, charges the open
  /// interval to the metrics and opens the new one at now; otherwise the
  /// interval runs on, so a partition or brownout inside a crash never
  /// splits it.
  void settle_capacity_loss(ExecContext& ctx, ServerId server);

  void recover_streams_of_failed_server(Server& server);

  /// Brownout graceful degradation: evicts streams (most-buffered first,
  /// migrate before dropping) until the server's commitments fit its
  /// degraded effective bandwidth.
  void shed_overload(Server& server);

  /// The least-loaded (fewest active streams, first on ties) replica holder
  /// of \p request's video other than \p exclude that can admit it, or
  /// kNoServer.
  ServerId least_loaded_holder(const Request& request, ServerId exclude) const;

  /// DRM recovery of a detached stream that \p lost can no longer serve (it
  /// crashed or was partitioned away, before or during the switch to it):
  /// moves it to the least-loaded other holder when
  /// failure.recover_via_migration allows, else parks or drops it.
  void recover_stream(ExecContext& ctx, Request& request, ServerId lost);

  /// Parks a detached stream in the retry queue as a migration with
  /// unbounded latency; when retry is disabled or the queue is full, drops
  /// it as lost from \p lost.
  void park_or_drop(ExecContext& ctx, Request& request, ServerId lost);

  /// Attempts re-admission of due retry entries (all entries when \p force
  /// — used on server-up / brownout-end).
  void process_retries(bool force);

  /// Retimes the single backoff-wakeup event to the queue's earliest
  /// next_attempt (cancels it when the queue is empty).
  void arm_retry_tick();

  /// Repair replication: if \p server is still in the same down episode
  /// (the ledger's open interval started at \p down_since), re-replicates
  /// its unreachable titles.
  void check_repair(ServerId server, Seconds down_since);

  /// Dynamic replication: called on every rejection; may start a transfer.
  void maybe_start_replication(VideoId video);

  /// Reserves link bandwidth on both ends and schedules the transfer
  /// completion for an already-planned replication job.
  void start_replication_job(const ReplicationJob& job);

  /// Client interactivity: Poisson pause/resume per viewing client.
  void schedule_next_pause(Request& request);
  void on_pause(Request& request);
  void on_resume(Request& request);

  // The helpers below take the executing context: the coordinator for
  // coordinator events, the owner for a shard context's predicted events.
  // It supplies the clock, the metrics and trace sinks, the scheduler and
  // the scratch arenas, so the same code serves every context.

  /// Advances all active requests on \p server to now, reallocates rates,
  /// and reschedules predicted events for requests whose rate changed.
  /// Memoized per server: a repeat call at the same timestamp with no
  /// intervening input change (see mark_server_dirty) is a no-op.
  void recompute_server(ExecContext& ctx, ServerId server);

  /// Records that \p server's allocation inputs changed (active set,
  /// reservations, pause state, or fluid state advanced), invalidating the
  /// recompute memo. Safe to call with kNoServer. Spurious bumps cost one
  /// redundant recompute; a missing bump would skip a needed one — when in
  /// doubt, bump.
  void mark_server_dirty(ServerId server);

  /// Accounts the transmission interval [request.last_update(), now] to the
  /// metrics and integrates the request's fluid state. For single-request
  /// events (pause, resume, shed, migrate, ...); recompute_server advances
  /// a whole server through batch_advance_server instead.
  void advance_and_account(ExecContext& ctx, Request& request, Seconds now);

  /// recompute_server's fluid step: one batched kernel over the server's
  /// FluidLane (FluidLane::advance_batch). Bit-identical to calling
  /// advance_and_account for every active request in active order — state,
  /// metering and underflow accounting alike — which the hexfloat
  /// determinism goldens pin.
  void batch_advance_server(ExecContext& ctx, Server& server);

  /// Continuity-violation accounting for \p underflow megabits a request's
  /// client came up short at \p now: the violation counter, the underflow
  /// meter, glitch seconds with per-stream interruption dedupe, and the
  /// trace event.
  void account_underflow(ExecContext& ctx, Request& request, Seconds now,
                         Megabits underflow);

  // --- predicted events (DESIGN.md §8) ----------------------------------
  // A streaming request's predictions are (time, seq) keys in its server's
  // FluidLane; the owner context's queue holds one timer per server, armed
  // at the server's earliest key. Writers update the keys, then sync the
  // timer before control returns to the event loop.

  /// Clears \p request's predictions and syncs its server's timer. Every
  /// detach path calls it while the request is still attached.
  void cancel_predicted_events(Request& request);

  /// Re-predicts \p request's three events from its lane slot
  /// (FluidLane::predicted_times; clears them unless it is streaming). Does
  /// not sync the timer.
  void reschedule_predicted_events(ExecContext& ctx, Request& request);

  /// The mechanics half of reschedule_predicted_events: given the three
  /// predicted times (+inf = no event), writes the request's keys. Each kept
  /// prediction takes one seq from its owner's queue, in the order
  /// tx-complete, buffer-full, buffer-low, at its time clamped to the owner
  /// clock — exactly the seq and time a per-prediction queue entry would
  /// get. Split out so recompute_server's batched path can compute the
  /// times with one vectorized lane pass (FluidLane::fill_predicted_times,
  /// the same formula) and feed them here. Does not sync the timer.
  void apply_predicted_times(Request& request, Seconds tx_at, Seconds full_at,
                             Seconds low_at);

  /// Writes \p request's prediction keys into its lane slot and keeps its
  /// server's earliest key current: a lower key becomes the earliest;
  /// overwriting the current holder's keys marks it stale.
  void set_predictions(Request& request, const PredictionKeys& keys);

  /// Arms \p server's timer at its earliest prediction key (rescanning the
  /// lane if stale), rekeying it in place when it is already pending, or
  /// cancels it when no prediction is live.
  void sync_prediction_timer(ServerId server);

  /// The timer's handler: clears the holding prediction, runs its handler
  /// (tx-complete, buffer-full, or the buffer-low recompute), then syncs.
  void on_prediction_timer(ExecContext& owner, ServerId server);

  /// Trace emission helper: stamps the event with \p ctx's clock into
  /// \p ctx's recorder. The null check is the entire disabled-tracing hot
  /// path (one load + branch per emission site); the category mask is only
  /// consulted once a recorder is attached.
  void note(ExecContext& ctx, TraceEventType type, std::uint32_t category,
            ServerId server = kNoServer, RequestId request = -1,
            VideoId video = -1, double a = 0.0, double b = 0.0);

  /// attach/detach wrappers that keep the occupancy statistics current
  /// (integrated at \p ctx's clock).
  void attach_to(ExecContext& ctx, ServerId server, Request& request);
  void detach_from(ExecContext& ctx, ServerId server, Request& request);

  SimulationConfig config_;
  Rng rng_;                ///< decision randomness (assignment ties etc.)
  Rng interactivity_rng_;  ///< pause/resume timing

  VideoCatalog catalog_;
  std::vector<Server> servers_;
  Topology topology_;
  PlacementResult placement_result_;
  ReplicaDirectory directory_;
  BoundsReport bounds_;
  std::unique_ptr<const PopularityModel> popularity_;
  std::unique_ptr<AdmissionController> controller_;
  std::unique_ptr<ReplicationManager> replication_;
  std::unique_ptr<ArrivalSource> arrivals_;
  ClientProfile client_profile_;
  std::vector<FaultTransition> failure_timeline_;
  /// Present only when failure.retry.enabled.
  std::unique_ptr<RetryQueue> retry_queue_;
  EventId retry_tick_ = kInvalidEventId;

  /// Why a server is losing capacity (settle_capacity_loss gives the
  /// precedence). A partitioned but running server loses its whole link to
  /// the cluster: the hardware runs, the controller cannot use it.
  enum class LossCause { kNone, kDown, kPartition, kBrownout };

  /// A server's open capacity-loss interval: `rate` Mb/s lost since
  /// `since` for `cause`. For kDown, `since` is when the down episode began.
  struct CapacityLoss {
    LossCause cause = LossCause::kNone;
    Seconds since = -1.0;
    Mbps rate = 0.0;
  };
  /// The capacity-loss ledger, one open interval per server. Only
  /// settle_capacity_loss writes it; run() charges what is still open at
  /// the horizon.
  std::vector<CapacityLoss> capacity_loss_;
  /// Per server: sim time the current partition episode began regardless of
  /// up/down state (feeds the partition-duration distribution); meaningful
  /// while the server is unreachable.
  std::vector<Seconds> partition_began_;
  std::vector<TimeWeighted> occupancy_;

  RequestArena requests_;
  RequestId next_request_id_ = 0;
  /// Present only in paranoid mode (config.paranoid or VODSIM_PARANOID).
  std::unique_ptr<InvariantAuditor> auditor_;
  /// Present only when probing is on (config.probe or VODSIM_PROBE).
  std::unique_ptr<ProbeSet> probes_;
  std::uint64_t pauses_started_ = 0;
  bool ran_ = false;

  /// Execution contexts: the coordinator, then the shards in shard-index
  /// order (none when shards == 1). All cross-shard coupling happens
  /// through coordinator events. Heap-allocated so the predicted-event
  /// callbacks can hold references to their owner.
  std::vector<std::unique_ptr<ExecContext>> contexts_;
  /// server -> index of the owning context (0 for every server when
  /// shards == 1, 1 + shard index otherwise).
  std::vector<int> owner_of_server_;
  /// Workers for the parallel drain windows; created in run() only when
  /// there are shard contexts, so construct-only call sites and
  /// single-queue runs never spawn threads.
  std::unique_ptr<ThreadPool> shard_pool_;

  /// Per-server recompute memo. `epoch` counts input changes; a server is
  /// clean iff it was recomputed at exactly the current simulation time
  /// (exact double compare) and its epoch has not moved since.
  struct ServerRecomputeState {
    std::uint64_t epoch = 1;
    std::uint64_t clean_epoch = 0;  ///< epoch at the last completed recompute
    Seconds clean_time = -1.0;      ///< sim time of the last completed recompute
    /// This server's grant order from its previous allocation pass; the
    /// intermittent scheduler repairs it instead of resorting, and the
    /// other schedulers leave it alone (sched/finish_order.h).
    /// Entries point into requests_, which outlives this state.
    SchedCache sched_cache;

    // Predicted-event timer (DESIGN.md §8), in the owner context's queue.
    EventId timer = kInvalidEventId;
    EventKey armed = kNoEventKey;  ///< the timer's key; none when idle
    /// The earliest live prediction key in the lane and its holder
    /// (kNoEventKey / nullptr when none); valid unless `earliest_stale`.
    EventKey earliest = kNoEventKey;
    Request* holder = nullptr;
    Prediction holder_kind = Prediction::kTxComplete;
    /// The holder's key was overwritten or dropped: the next sync rescans
    /// the lane's per-slot earliest keys.
    bool earliest_stale = false;
    /// Inside this server's timer handler, which syncs once when done.
    bool firing = false;
  };
  std::vector<ServerRecomputeState> recompute_state_;
};

}  // namespace vodsim
