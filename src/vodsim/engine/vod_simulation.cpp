#include "vodsim/engine/vod_simulation.h"

#include <algorithm>
#include <cassert>
#include <cstdlib>
#include <limits>

#include "vodsim/check/invariant_auditor.h"
#include "vodsim/fault/schedule.h"
#include "vodsim/sched/intermittent.h"
#include "vodsim/util/env.h"
#include "vodsim/util/log.h"
#include "vodsim/util/thread_pool.h"
#include "vodsim/workload/catalog.h"
#include "vodsim/workload/poisson.h"

namespace vodsim {

VodSimulation::VodSimulation(SimulationConfig config) : config_(std::move(config)) {
  build_world();
}

VodSimulation::VodSimulation(SimulationConfig config, const RequestTrace& trace)
    : config_(std::move(config)) {
  arrivals_ = std::make_unique<TraceArrivalSource>(trace);
  build_world();
}

VodSimulation::~VodSimulation() = default;

void VodSimulation::build_world() {
  config_.validate();

  // Independent deterministic streams for each stochastic component, so
  // e.g. changing the placement policy does not perturb the arrival stream.
  const SeedPlan seeds = SeedPlan::derive(config_.seed);
  rng_ = Rng(seeds.decision);
  interactivity_rng_ = Rng(seeds.interactivity);

  Rng catalog_rng(seeds.catalog);
  CatalogSpec spec;
  spec.num_videos = config_.system.num_videos;
  spec.min_duration = config_.system.video_min_duration;
  spec.max_duration = config_.system.video_max_duration;
  spec.view_bandwidth = config_.system.view_bandwidth;
  catalog_ = generate_catalog(spec, catalog_rng);

  if (config_.drift.enabled) {
    popularity_ = std::make_unique<DriftingZipfPopularity>(
        config_.system.num_videos, config_.zipf_theta, config_.drift.period,
        config_.drift.step);
  } else {
    popularity_ = std::make_unique<StaticZipfPopularity>(config_.system.num_videos,
                                                         config_.zipf_theta);
  }

  servers_ = make_servers(config_.system);
  // The failure-domain tree. Trivial (1 rack, 1 zone) unless
  // config.topology.enabled; every consumer degrades bit-identically on
  // the trivial tree, so topology-free runs keep their goldens.
  topology_ = Topology(config_.topology, config_.system.num_servers);
  const auto placement = make_placement(config_.placement, topology_);
  Rng placement_rng(seeds.placement);
  // Placement sees the popularity law as of t = 0 — a drifting workload
  // later invalidates a "perfect" prediction, which is exactly what the
  // drift experiment studies.
  placement_result_ = placement->place(catalog_, popularity_->probabilities(0.0),
                                       config_.system.avg_copies, servers_,
                                       placement_rng);
  directory_ = ReplicaDirectory(catalog_.size(), servers_);

  // Analytic achievability envelope for this world (analysis/bounds.h):
  // pure observation of the t = 0 catalog/placement, no RNG, no mutation —
  // so it cannot perturb results.
  bounds_ = compute_bounds(config_, catalog_, popularity_->probabilities(0.0),
                           directory_, servers_);

  controller_ = std::make_unique<AdmissionController>(config_.admission, directory_);
  replication_ = std::make_unique<ReplicationManager>(config_.replication);
  replication_->set_topology(&topology_);

  client_profile_.buffer_capacity = config_.staging_capacity();
  client_profile_.receive_bandwidth = config_.client.receive_bandwidth;

  // Tracing and probes are observers: they read state, schedule no
  // simulator events, and touch no RNG, so a traced/probed run is
  // bit-identical to a plain one (pinned by determinism_test).
  // VODSIM_TRACE: a plain number turns every category on (0 = leave off), a
  // name list ("admission,migration") selects categories.
  TraceConfig trace_config = config_.trace;
  const std::string env_trace = env_string("VODSIM_TRACE", "");
  if (!env_trace.empty()) {
    char* end = nullptr;
    const long numeric = std::strtol(env_trace.c_str(), &end, 0);
    if (end != nullptr && *end == '\0') {
      if (numeric != 0) {
        trace_config.enabled = true;
        trace_config.categories = kTraceAllCategories;
      }
    } else {
      trace_config.enabled = true;
      trace_config.categories = parse_trace_categories(env_trace);
    }
  }
  trace_config.capacity = static_cast<std::size_t>(env_long(
      "VODSIM_TRACE_CAPACITY", static_cast<long>(trace_config.capacity)));

  // The coordinator context owns every server unless the run is sharded;
  // the shard contexts are built last, below.
  const bool sharded = config_.shards > 1;
  const int num_servers = config_.system.num_servers;
  const int shards = sharded ? config_.shards : 0;
  owner_of_server_.assign(static_cast<std::size_t>(num_servers), 0);
  build_context(0, sharded ? 0 : num_servers, trace_config);
  controller_->set_trace(coordinator().trace.get());

  occupancy_.assign(servers_.size(), TimeWeighted(config_.warmup, config_.duration));
  recompute_state_.assign(servers_.size(), ServerRecomputeState{});

  // Request storage: one pool per context, so shard workers stop
  // interleaving their streams' cache lines in one shared StableVector
  // (engine/request_arena.h).
  requests_.reset(1 + static_cast<std::size_t>(shards));

  if (!arrivals_) {
    arrivals_ = std::make_unique<RequestGenerator>(
        PoissonProcess(config_.arrival_rate()), *popularity_, seeds.arrival);
  }

  Rng failure_rng(seeds.failure);
  if (!config_.scripted_faults.empty()) {
    // Hand-written schedule: used verbatim, no failure-RNG draws.
    failure_timeline_ = config_.scripted_faults;
    sort_fault_schedule(failure_timeline_);
  } else {
    failure_timeline_ = generate_fault_schedule(config_.failure, topology_,
                                                config_.duration, failure_rng);
  }
  capacity_loss_.assign(servers_.size(), CapacityLoss{});
  partition_began_.assign(servers_.size(), -1.0);
  if (config_.failure.retry.enabled) {
    retry_queue_ = std::make_unique<RetryQueue>(config_.failure.retry);
  }

  // The auditor is a pure observer too: it reads state after each event and
  // throws AuditFailure on a violated invariant, never mutating anything,
  // so enabling it cannot perturb results (pinned by determinism_test).
  // Sharded runs ignore it (its audits assume the whole cluster quiesces
  // after every event, which only the coordinator queue provides); the
  // single-queue half of the sharded/single differential carries the
  // auditor instead (check/fuzzer.cpp).
  if (!sharded && (config_.paranoid || env_long("VODSIM_PARANOID", 0) != 0)) {
    auditor_ = std::make_unique<InvariantAuditor>(*this);
  }

  ProbeConfig probe_config = config_.probe;
  const double env_probe = env_double("VODSIM_PROBE", 0.0);
  if (env_probe > 0.0) {
    probe_config.enabled = true;
    probe_config.period = env_probe;
  }
  // Probes sample on the coordinator's post-event hook, which in a sharded
  // run fires only on coordinator events and would read shard state
  // mid-window-lag; disabled there (documented in DESIGN.md §12), like the
  // auditor.
  if (!sharded && probe_config.enabled) {
    probes_ = std::make_unique<ProbeSet>(probe_config, servers_.size());
  }

  if (auditor_ || probes_) {
    coordinator().sim.set_post_event_hook([this](Seconds now) {
      if (probes_) {
        probes_->on_event(now, servers_, coordinator().sim.pending_count(),
                          retry_queue_ ? retry_queue_->size() : 0);
      }
      if (auditor_) auditor_->on_event();
    });
  }

  // Shard contexts own contiguous near-even blocks: consecutive servers
  // share a shard, so the fault subsystem's correlated (rack/zone) groups
  // of consecutive servers land inside one shard whenever group_size
  // divides the block. With a failure-domain tree and shards <= racks,
  // blocks snap to rack boundaries: each shard owns a whole rack range, so
  // a rack outage or partition perturbs exactly one shard's servers and
  // the shard protocol's coupling set matches the fault-group topology.
  contexts_.reserve(1 + static_cast<std::size_t>(shards));
  for (int k = 0; k < shards; ++k) {
    if (topology_.enabled() && shards <= topology_.racks()) {
      build_context(topology_.rack_first(k * topology_.racks() / shards),
                    topology_.rack_end((k + 1) * topology_.racks() / shards - 1),
                    trace_config);
    } else {
      build_context(k * num_servers / shards, (k + 1) * num_servers / shards,
                    trace_config);
    }
  }
}

void VodSimulation::build_context(int first_server, int end_server,
                                  const TraceConfig& trace_config) {
  auto ctx = std::make_unique<ExecContext>();
  ctx->index = static_cast<int>(contexts_.size());
  ctx->first_server = first_server;
  ctx->end_server = end_server;
  for (int s = first_server; s < end_server; ++s) {
    owner_of_server_[static_cast<std::size_t>(s)] = ctx->index;
  }
  ctx->metrics = std::make_unique<Metrics>(config_.warmup, config_.duration,
                                           config_.system.total_bandwidth());
  ctx->metrics->set_bounds(bounds_.utilization_upper, bounds_.rejection_lower);
  if (topology_.enabled()) {
    // Every context attributes its glitches per domain; merge_shard folds
    // the shard vectors into the coordinator's after the run.
    std::vector<Mbps> server_bandwidth;
    server_bandwidth.reserve(servers_.size());
    for (const Server& server : servers_) {
      server_bandwidth.push_back(server.bandwidth());
    }
    ctx->metrics->set_topology(&topology_, server_bandwidth);
  }
  if (config_.scheduler == SchedulerKind::kIntermittent) {
    ctx->scheduler =
        std::make_unique<IntermittentScheduler>(config_.intermittent_safety_cover);
  } else {
    ctx->scheduler = make_scheduler(config_.scheduler);
  }
  if (trace_config.enabled) {
    ctx->trace = std::make_unique<TraceRecorder>(trace_config, ctx->index - 1);
    ctx->scheduler->set_trace(ctx->trace.get());
  }
  // Pre-size the per-recompute scratch so the steady-state event loop
  // never allocates. A server carries at most what its link fits and what
  // an even share of the horizon's arrivals can reach (25% above the mean
  // arrival count, plus a floor): a short run on a big cluster never comes
  // near its link bound. The event queue is not pre-sized: it grows to its
  // working size during warmup at no measurable cost, while reserving it
  // for every context up front made world construction page-fault-bound
  // and set the resident set. Past either estimate the vectors simply grow.
  const double reachable = 1.25 * config_.arrival_rate() * config_.duration;
  const std::size_t per_server = std::min(
      static_cast<std::size_t>(config_.system.server_bandwidth /
                               config_.system.view_bandwidth) + 8,
      static_cast<std::size_t>(reachable / config_.system.num_servers + 64.0));
  ctx->rates_scratch.reserve(per_server);
  ctx->sched_scratch.order.reserve(per_server);
  ctx->sched_scratch.aux.reserve(per_server);
  ctx->underflow_scratch.reserve(per_server);
  ctx->changed_slots.reserve(per_server);
  ctx->retime_tx.reserve(per_server);
  ctx->retime_full.reserve(per_server);
  ctx->retime_low.reserve(per_server);
  contexts_.push_back(std::move(ctx));
}

const Metrics& VodSimulation::run() {
  assert(!ran_ && "VodSimulation::run() may be called only once");
  ran_ = true;
  ExecContext& coord = coordinator();

  schedule_next_arrival();
  for (const FaultTransition& event : failure_timeline_) {
    coord.sim.schedule_at(event.time,
                          [this, event](Seconds) { apply_fault(event); });
  }

  run_windows();

  // Flush in-flight transmissions into the measurement window, each server
  // under its owner context so the tail transmission lands in the owner's
  // Metrics (merged below).
  for (const auto& ctx : contexts_) {
    for (int s = ctx->first_server; s < ctx->end_server; ++s) {
      const Server& server = servers_[static_cast<std::size_t>(s)];
      for (Request* request : server.active_requests()) {
        advance_and_account(*ctx, *request, config_.duration);
      }
    }
  }
  for (TimeWeighted& occupancy : occupancy_) occupancy.flush(config_.duration);
  // Close still-open capacity-loss intervals into the availability integral.
  for (std::size_t s = 0; s < servers_.size(); ++s) {
    const CapacityLoss& open = capacity_loss_[s];
    if (open.cause != LossCause::kNone) {
      coord.metrics->record_capacity_loss(open.since, config_.duration, open.rate,
                                          static_cast<ServerId>(s));
    }
  }
  if (probes_) {
    probes_->finalize(config_.duration, servers_, coord.sim.pending_count(),
                      retry_queue_ ? retry_queue_->size() : 0);
  }
  if (auditor_) auditor_->finalize();

  // Fold the shard contexts' counters into the published Metrics. Integer
  // counts add exactly; the fluid sums regroup shard-major, which is the
  // sharded determinism contract's accepted FP regrouping (the
  // sharded/single differential bounds it with the PR 6 oracle tolerance).
  for (std::size_t k = 1; k < contexts_.size(); ++k) {
    coord.metrics->merge_shard(*contexts_[k]->metrics);
  }
  return *coord.metrics;
}

void VodSimulation::run_windows() {
  ExecContext& coord = coordinator();
  const std::size_t shards = contexts_.size() - 1;
  if (shards > 0) {
    shard_pool_ = std::make_unique<ThreadPool>(
        static_cast<std::size_t>(config_.shard_threads));
  }
  const Seconds horizon = config_.duration;
  // Shard k's drain for the window ending at window_end: every pending
  // event strictly before it.
  const auto drain = [this](std::size_t k, Seconds window_end) {
    Simulator& sim = contexts_[k]->sim;
    if (sim.pending_count() > 0 && sim.peek_time() < window_end) {
      sim.run_before(window_end);
    }
  };
  while (true) {
    // Conservative lookahead: every pending shard event strictly before the
    // next coordinator event is causally independent of it (shard handlers
    // never touch another shard or schedule coordinator events), so the
    // drains below commute with each other and with the waiting
    // coordinator event. Ties at the window edge go to the coordinator —
    // the one documented (measure-zero) ordering divergence from the
    // single-queue engine (DESIGN.md §12).
    const bool coordinator_has_work =
        coord.sim.pending_count() > 0 && coord.sim.peek_time() <= horizon;
    const Seconds window_end =
        coordinator_has_work ? coord.sim.peek_time() : horizon;

    std::size_t busy = 0;
    std::size_t last_busy = 0;
    for (std::size_t k = 1; k <= shards; ++k) {
      const Simulator& sim = contexts_[k]->sim;
      if (sim.pending_count() > 0 && sim.peek_time() < window_end) {
        ++busy;
        last_busy = k;
      }
    }
    if (busy == 1) {
      // Common small-window case: skip the fan-out/join round-trip.
      drain(last_busy, window_end);
    } else if (busy > 1) {
      // Each shard drains serially on whichever worker picks it up, and the
      // parallel_for join gives every drain a happens-before edge to the
      // coordinator step below — so the result is bit-identical at any
      // thread count, and TSan-clean.
      shard_pool_->parallel_for(shards, [&drain, window_end](std::size_t i) {
        drain(i + 1, window_end);
      });
    }

    if (!coordinator_has_work) break;
    coord.sim.step();  // exactly one coupling event per window, serially
  }
  // Tail: no coordinator events remain at or before the horizon and every
  // shard has drained strictly before it, so each context runs inclusively
  // to the horizon (its events at exactly the horizon, if any) and clamps
  // its clock there.
  for (const auto& ctx : contexts_) ctx->sim.run_until(horizon);
}

void VodSimulation::schedule_next_arrival() {
  auto arrival = arrivals_->next();
  if (!arrival || arrival->time > config_.duration) return;
  coordinator().sim.schedule_at(arrival->time, [this, a = *arrival](Seconds) {
    handle_arrival(a);
    schedule_next_arrival();
  });
}

void VodSimulation::handle_arrival(const Arrival& arrival) {
  ExecContext& ctx = coordinator();
  const Seconds now = ctx.sim.now();
  ctx.metrics->record_arrival(now);

  const Video& video = catalog_[arrival.video];
  note(ctx, TraceEventType::kArrival, kTraceAdmission, kNoServer, next_request_id_,
       arrival.video);
  const AdmissionDecision decision =
      controller_->decide(now, arrival.video, video.view_bandwidth, servers_, rng_);

  // Pool by destination shard (rejected arrivals stay coordinator-side),
  // so a stream's Request lands in the arena pool of the shard whose
  // worker will mutate it (engine/request_arena.h).
  Request& request =
      requests_.create(owner_index(decision.accepted ? decision.server : kNoServer),
                       next_request_id_++, video, now, client_profile_);

  if (!decision.accepted) {
    note(ctx, TraceEventType::kReject, kTraceAdmission, kNoServer, request.id(),
         arrival.video,
         static_cast<double>(directory_.holders(arrival.video).size()));
    request.mark_rejected();
    ctx.metrics->record_rejection(now);
    maybe_start_replication(arrival.video);
    if (retry_queue_ != nullptr) {
      // The viewer retries after a backoff rather than leaving for good; a
      // successful retry starts a fresh stream (new playback window).
      RetryEntry entry;
      entry.request = kNoRetryRequest;
      entry.video = arrival.video;
      entry.view_bandwidth = video.view_bandwidth;
      entry.first_seen = now;
      entry.attempts = 0;
      entry.next_attempt = now + retry_queue_->backoff(0);
      if (retry_queue_->push(entry)) {
        ctx.metrics->record_retry_enqueued(now);
        note(ctx, TraceEventType::kRetryEnqueued, kTraceFailure, kNoServer, -1,
             arrival.video, static_cast<double>(retry_queue_->size()));
        arm_retry_tick();
      }
    }
    return;
  }

  note(ctx, TraceEventType::kAdmit, kTraceAdmission, decision.server, request.id(),
       arrival.video, static_cast<double>(decision.migrations.size()));
  execute_migrations(decision);
  ctx.metrics->record_acceptance(now, decision.used_migration());
  start_stream(request, decision.server);
}

void VodSimulation::start_stream(Request& request, ServerId server) {
  ExecContext& ctx = coordinator();
  request.begin_streaming(ctx.sim.now(), server);
  attach_to(ctx, server, request);
  schedule_playback_end(request);
  recompute_server(ctx, server);
  if (config_.interactivity.enabled) schedule_next_pause(request);
}

void VodSimulation::schedule_playback_end(Request& request) {
  request.playback_end_event = coordinator().sim.schedule_at(
      request.playback_end(), [this, &request](Seconds) {
        request.playback_end_event = kInvalidEventId;
        on_playback_end(request);
      });
}

void VodSimulation::execute_migrations(const AdmissionDecision& decision) {
  if (!decision.used_migration()) return;
  for (const MigrationStep& step : decision.migrations) execute_migration(step);
  ExecContext& ctx = coordinator();
  ctx.metrics->record_migration_chain(ctx.sim.now(), decision.migrations.size());
}

void VodSimulation::execute_migration(const MigrationStep& step) {
  ExecContext& ctx = coordinator();
  const Seconds now = ctx.sim.now();
  Request& request = *step.request;
  assert(request.state() == RequestState::kStreaming);
  assert(request.server() == step.from);

  note(ctx, TraceEventType::kMigrateBegin, kTraceMigration, step.from, request.id(),
       request.video_id(), static_cast<double>(step.to),
       request.buffer_level());
  advance_and_account(ctx, request, now);
  cancel_predicted_events(request);
  detach_from(ctx, step.from, request);
  request.begin_migration(now);

  const Seconds latency = config_.admission.migration.switch_latency;
  if (latency <= 0.0) {
    finish_migration(request, step.to);
  } else {
    // Break-before-make: the stream pauses for `latency` and plays from its
    // staging buffer; the destination's slot is held by a reservation so a
    // competing arrival cannot steal it.
    servers_[static_cast<std::size_t>(step.to)].reserve_bandwidth(
        request.view_bandwidth());
    mark_server_dirty(step.to);
    ctx.sim.schedule_in(latency, [this, &ctx, &request, target = step.to](Seconds) {
      servers_[static_cast<std::size_t>(target)].release_reservation(
          request.view_bandwidth());
      mark_server_dirty(target);
      if (request.state() != RequestState::kMigrating) return;
      if (servers_[static_cast<std::size_t>(target)].serviceable()) {
        finish_migration(request, target);
        return;
      }
      // The destination crashed (or became unreachable) during the switch.
      // The stream never reached its active list, so the crash-recovery
      // sweep could not have seen it; recover it here like any other crash
      // victim.
      recover_stream(ctx, request, target);
    });
  }
  recompute_server(ctx, step.from);
}

void VodSimulation::finish_migration(Request& request, ServerId target) {
  ExecContext& ctx = coordinator();
  const Seconds now = ctx.sim.now();
  advance_and_account(ctx, request, now);  // drains the buffer over the pause
  request.complete_migration(now, target);
  attach_to(ctx, target, request);
  note(ctx, TraceEventType::kMigrateEnd, kTraceMigration, target, request.id(),
       request.video_id());
  recompute_server(ctx, target);
}

void VodSimulation::on_tx_complete(ExecContext& ctx, Request& request) {
  // Predicted event: runs on the owner context's queue and touches only the
  // request, its server, and that context's accounting — never another
  // shard, never the RNG.
  const Seconds now = ctx.sim.now();
  const ServerId server = request.server();
  assert(server != kNoServer);
  advance_and_account(ctx, request, now);
  if (!request.finished()) {
    // Floating-point drift between the predicted completion and the fluid
    // integration: let the reallocation pass reschedule a corrected event.
    recompute_server(ctx, server);
    return;
  }
  cancel_predicted_events(request);
  detach_from(ctx, server, request);
  request.mark_tx_complete(now);
  note(ctx, TraceEventType::kTxComplete, kTraceLifecycle, server, request.id(),
       request.video_id());
  recompute_server(ctx, server);
}

void VodSimulation::on_buffer_full(ExecContext& ctx, Request& request) {
  // The request is advanced (and its allocation corrected) as part of the
  // server-wide reallocation.
  assert(request.server() != kNoServer);
  note(ctx, TraceEventType::kBufferFull, kTraceBuffer, request.server(),
       request.id(), request.video_id(), request.buffer_level());
  recompute_server(ctx, request.server());
}

void VodSimulation::on_playback_end(Request& request) {
  ExecContext& ctx = coordinator();
  const Seconds now = ctx.sim.now();
  switch (request.state()) {
    case RequestState::kTxComplete: {
      // Drain the remaining buffered data through the fluid model so the
      // continuity audit covers the whole playback.
      advance_and_account(ctx, request, now);
      request.mark_done(now);
      ctx.metrics->record_completion(now);
      note(ctx, TraceEventType::kPlaybackEnd, kTraceLifecycle, kNoServer,
           request.id(), request.video_id());
      break;
    }
    case RequestState::kStreaming: {
      // Viewing ended before the transfer did (possible only after pauses
      // or failures): the client leaves; unsent data is abandoned.
      const ServerId server = request.server();
      advance_and_account(ctx, request, now);
      cancel_predicted_events(request);
      detach_from(ctx, server, request);
      request.mark_done(now);
      ctx.metrics->record_completion(now);
      note(ctx, TraceEventType::kPlaybackEnd, kTraceLifecycle, server, request.id(),
           request.video_id());
      recompute_server(ctx, server);
      break;
    }
    case RequestState::kMigrating: {
      advance_and_account(ctx, request, now);
      if (retry_queue_ != nullptr && retry_queue_->remove_request(request.id())) {
        // A parked orphan whose playback window closed before any retry
        // succeeded: the viewer is gone and the tail was never delivered —
        // a permanent loss, not a completion.
        note(ctx, TraceEventType::kRetryAbandoned, kTraceFailure, kNoServer,
             request.id(), request.video_id());
        ctx.metrics->record_retry_abandoned(now);
        request.mark_done(now);
        ctx.metrics->record_drop(now);
        break;
      }
      request.mark_done(now);
      ctx.metrics->record_completion(now);
      note(ctx, TraceEventType::kPlaybackEnd, kTraceLifecycle, kNoServer,
           request.id(), request.video_id());
      break;
    }
    case RequestState::kDone:
      break;  // dropped earlier by failure injection
    case RequestState::kRejected:
      assert(false && "rejected requests have no playback");
      break;
  }
}

void VodSimulation::apply_fault(const FaultTransition& event) {
  ExecContext& ctx = coordinator();
  const Seconds now = ctx.sim.now();
  const std::size_t s = static_cast<std::size_t>(event.server);
  Server& server = servers_[s];
  switch (event.kind) {
    case FaultTransitionKind::kDown: {
      if (!server.available()) return;  // idempotent: already down
      mark_server_dirty(event.server);
      server.set_available(false);
      settle_capacity_loss(ctx, event.server);
      ctx.metrics->record_server_down(now);
      note(ctx, TraceEventType::kServerDown, kTraceFailure, event.server);
      recover_streams_of_failed_server(server);
      if (config_.failure.repair.enabled) {
        ctx.sim.schedule_at(now + config_.failure.repair.down_threshold,
                         [this, id = event.server, since = now](Seconds) {
                           check_repair(id, since);
                         });
      }
      break;
    }
    case FaultTransitionKind::kUp: {
      if (server.available()) return;  // idempotent: already up
      mark_server_dirty(event.server);
      server.set_available(true);
      const Seconds down_since = capacity_loss_[s].since;
      settle_capacity_loss(ctx, event.server);
      ctx.metrics->record_server_recovery(now, now - down_since);
      note(ctx, TraceEventType::kServerUp, kTraceFailure, event.server);
      process_retries(/*force=*/true);
      break;
    }
    case FaultTransitionKind::kBrownoutBegin: {
      if (server.capacity_factor() == event.capacity_factor) return;
      mark_server_dirty(event.server);
      server.set_capacity_factor(event.capacity_factor);
      settle_capacity_loss(ctx, event.server);
      note(ctx, TraceEventType::kBrownoutBegin, kTraceFailure, event.server, -1, -1,
           event.capacity_factor);
      if (server.available()) {
        shed_overload(server);
        recompute_server(ctx, event.server);
      }
      break;
    }
    case FaultTransitionKind::kBrownoutEnd: {
      if (server.capacity_factor() == 1.0) return;  // idempotent
      mark_server_dirty(event.server);
      server.set_capacity_factor(1.0);
      settle_capacity_loss(ctx, event.server);
      note(ctx, TraceEventType::kBrownoutEnd, kTraceFailure, event.server);
      if (server.available()) recompute_server(ctx, event.server);
      process_retries(/*force=*/true);
      break;
    }
    case FaultTransitionKind::kPartitionBegin: {
      if (!server.reachable()) return;  // idempotent: already partitioned
      mark_server_dirty(event.server);
      server.set_reachable(false);
      settle_capacity_loss(ctx, event.server);
      partition_began_[s] = now;
      ctx.metrics->record_partition_begin(now);
      note(ctx, TraceEventType::kPartitionBegin, kTraceFailure, event.server);
      // An up server the controller lost: every active stream is cut off
      // from its client, exactly like a crash.
      if (server.available()) recover_streams_of_failed_server(server);
      break;
    }
    case FaultTransitionKind::kPartitionEnd: {
      if (server.reachable()) return;  // idempotent: already healed
      mark_server_dirty(event.server);
      server.set_reachable(true);
      settle_capacity_loss(ctx, event.server);
      ctx.metrics->record_partition_heal(now, now - partition_began_[s]);
      note(ctx, TraceEventType::kPartitionEnd, kTraceFailure, event.server);
      if (server.available()) recompute_server(ctx, event.server);
      process_retries(/*force=*/true);
      break;
    }
  }
}

void VodSimulation::settle_capacity_loss(ExecContext& ctx, ServerId server_id) {
  const Server& server = servers_[static_cast<std::size_t>(server_id)];
  const Seconds now = ctx.sim.now();
  CapacityLoss loss;
  if (!server.available()) {
    loss = {LossCause::kDown, now, server.bandwidth()};
  } else if (!server.reachable()) {
    loss = {LossCause::kPartition, now, server.bandwidth()};
  } else if (server.capacity_factor() < 1.0) {
    loss = {LossCause::kBrownout, now,
            server.bandwidth() * (1.0 - server.capacity_factor())};
  }
  CapacityLoss& open = capacity_loss_[static_cast<std::size_t>(server_id)];
  if (loss.cause == open.cause && loss.rate == open.rate) return;
  if (open.cause != LossCause::kNone) {
    ctx.metrics->record_capacity_loss(open.since, now, open.rate, server_id);
  }
  open = loss;
}

void VodSimulation::recover_streams_of_failed_server(Server& server) {
  ExecContext& ctx = coordinator();
  const Seconds now = ctx.sim.now();
  // Copy: we detach as we go.
  std::vector<Request*> victims(server.active_requests().begin(),
                                server.active_requests().end());
  for (Request* victim : victims) {
    Request& request = *victim;
    advance_and_account(ctx, request, now);
    cancel_predicted_events(request);
    detach_from(ctx, server.id(), request);
    recover_stream(ctx, request, server.id());
  }
}

void VodSimulation::shed_overload(Server& server) {
  ExecContext& ctx = coordinator();
  const Seconds now = ctx.sim.now();
  // Advance everyone first so the buffer levels compared below are current
  // and detached victims carry no stale fluid state.
  for (Request* request : server.active_requests()) {
    advance_and_account(ctx, *request, now);
  }
  // 1e-9 Mb/s tolerance, matching the admission arithmetic: commitments a
  // rounding error over the degraded link are not worth an eviction.
  while (server.slack() < -1e-9 && server.active_count() > 0) {
    // Staging-aware victim choice (the paper's point: client staging
    // absorbs gaps) — the stream with the most staged data rides out the
    // longest interruption, so it goes first.
    Request* victim = nullptr;
    for (Request* request : server.active_requests()) {
      if (victim == nullptr ||
          request->buffer_level() > victim->buffer_level()) {
        victim = request;
      }
    }
    Request& request = *victim;
    const Megabits buffered = request.buffer_level();
    cancel_predicted_events(request);
    detach_from(ctx, server.id(), request);

    // Migrate before dropping. failure.recover_via_migration governs crash
    // recovery only; shedding always tries another holder first.
    const ServerId target = least_loaded_holder(request, server.id());
    note(ctx, TraceEventType::kStreamShed, kTraceFailure, server.id(), request.id(),
         request.video_id(), buffered);
    ctx.metrics->record_shed(now, /*migrated=*/target != kNoServer);
    if (target != kNoServer) {
      request.begin_migration(now);
      finish_migration(request, target);
    } else {
      park_or_drop(ctx, request, server.id());
    }
  }
}

ServerId VodSimulation::least_loaded_holder(const Request& request,
                                            ServerId exclude) const {
  ServerId best = kNoServer;
  for (ServerId candidate : directory_.holders(request.video_id())) {
    if (candidate == exclude) continue;
    const Server& holder = servers_[static_cast<std::size_t>(candidate)];
    if (!holder.can_admit(request.view_bandwidth())) continue;
    if (best == kNoServer ||
        holder.active_count() <
            servers_[static_cast<std::size_t>(best)].active_count()) {
      best = candidate;
    }
  }
  return best;
}

void VodSimulation::recover_stream(ExecContext& ctx, Request& request,
                                   ServerId lost) {
  const ServerId target = config_.failure.recover_via_migration
                              ? least_loaded_holder(request, lost)
                              : kNoServer;
  if (target == kNoServer) {
    park_or_drop(ctx, request, lost);
    return;
  }
  note(ctx, TraceEventType::kStreamRecovered, kTraceFailure, target, request.id(),
       request.video_id());
  // A stream stranded mid-switch is already migrating.
  if (request.state() == RequestState::kStreaming) {
    request.begin_migration(ctx.sim.now());
  }
  finish_migration(request, target);
}

void VodSimulation::park_or_drop(ExecContext& ctx, Request& request, ServerId lost) {
  const Seconds now = ctx.sim.now();
  RetryEntry entry;
  entry.request = request.id();
  entry.video = request.video_id();
  entry.view_bandwidth = request.view_bandwidth();
  entry.first_seen = now;
  entry.attempts = 0;
  entry.next_attempt = now;  // eligible immediately (capacity may exist elsewhere)
  if (retry_queue_ != nullptr && retry_queue_->push(entry)) {
    // Parked as a migration with unbounded latency: playback keeps draining
    // the staging buffer, so a stream parked too long genuinely glitches.
    // A stream stranded by its migration target crashing mid-switch is
    // already in the migrating state.
    if (request.state() == RequestState::kStreaming) request.begin_migration(now);
    ctx.metrics->record_retry_enqueued(now);
    note(ctx, TraceEventType::kRetryEnqueued, kTraceFailure, kNoServer, request.id(),
         request.video_id(), static_cast<double>(retry_queue_->size()));
    arm_retry_tick();
    return;
  }
  note(ctx, TraceEventType::kStreamDropped, kTraceFailure, lost, request.id(),
       request.video_id());
  request.mark_done(now);
  ctx.metrics->record_drop(now);
}

void VodSimulation::process_retries(bool force) {
  if (retry_queue_ == nullptr || retry_queue_->empty()) return;
  ExecContext& ctx = coordinator();
  const Seconds now = ctx.sim.now();
  std::vector<RetryEntry> due = retry_queue_->take_due(now, force);
  // A forced batch retries the whole queue, often the same few titles over
  // and over against servers that no rejection changes, so the migration
  // search keeps its memo across the batch and drops it on every accept.
  controller_->begin_batch();
  for (RetryEntry& entry : due) {
    const AdmissionDecision decision = controller_->decide(
        now, entry.video, entry.view_bandwidth, servers_, rng_);
    if (decision.accepted) {
      controller_->note_servers_changed();
      execute_migrations(decision);
      ctx.metrics->record_readmission(now);
      if (entry.request != kNoRetryRequest) {
        // Re-admit the parked orphan where capacity opened up.
        Request& request = requests_[static_cast<std::size_t>(entry.request)];
        assert(request.state() == RequestState::kMigrating);
        note(ctx, TraceEventType::kRetryReadmitted, kTraceFailure, decision.server,
             request.id(), request.video_id(),
             static_cast<double>(entry.attempts));
        finish_migration(request, decision.server);
      } else {
        // A rejected arrival returns: fresh stream, fresh playback window.
        const Video& video = catalog_[entry.video];
        Request& request = requests_.create(owner_index(decision.server),
                                            next_request_id_++, video, now,
                                            client_profile_);
        note(ctx, TraceEventType::kRetryReadmitted, kTraceFailure, decision.server,
             request.id(), entry.video, static_cast<double>(entry.attempts));
        start_stream(request, decision.server);
      }
    } else {
      ++entry.attempts;
      if (entry.attempts >= config_.failure.retry.max_attempts) {
        ctx.metrics->record_retry_abandoned(now);
        note(ctx, TraceEventType::kRetryAbandoned, kTraceFailure, kNoServer,
             entry.request, entry.video, static_cast<double>(entry.attempts));
        if (entry.request != kNoRetryRequest) {
          Request& request = requests_[static_cast<std::size_t>(entry.request)];
          advance_and_account(ctx, request, now);
          request.mark_done(now);
          ctx.metrics->record_drop(now);
        }
      } else {
        entry.next_attempt = now + retry_queue_->backoff(entry.attempts);
        retry_queue_->push(entry);
      }
    }
  }
  controller_->end_batch();
  arm_retry_tick();
}

void VodSimulation::arm_retry_tick() {
  if (retry_queue_ == nullptr) return;
  const Seconds next = retry_queue_->next_attempt_time();
  Simulator& sim = coordinator().sim;
  if (next == std::numeric_limits<Seconds>::infinity()) {
    sim.cancel(retry_tick_);
    retry_tick_ = kInvalidEventId;
    return;
  }
  const Seconds at = std::max(next, sim.now());
  if (!sim.reschedule_at(at, retry_tick_)) {
    retry_tick_ = sim.schedule_at(at, [this](Seconds) {
      retry_tick_ = kInvalidEventId;
      process_retries(/*force=*/false);
    });
  }
}

void VodSimulation::check_repair(ServerId server_id, Seconds down_since) {
  const std::size_t s = static_cast<std::size_t>(server_id);
  if (servers_[s].available()) return;
  // Exact compare: a repair-then-recrash starts a new episode (and a new
  // threshold timer); this timer belongs to the old one.
  if (capacity_loss_[s].since != down_since) return;
  ExecContext& ctx = coordinator();
  const Seconds now = ctx.sim.now();
  // Re-replicate the titles this outage left with no available holder.
  for (VideoId video : servers_[s].replicas()) {
    bool reachable = false;
    for (ServerId holder : directory_.holders(video)) {
      if (holder == server_id) continue;
      if (servers_[static_cast<std::size_t>(holder)].serviceable()) {
        reachable = true;
        break;
      }
    }
    if (reachable) continue;
    auto job = replication_->plan_repair(video, catalog_, servers_, directory_);
    if (!job) continue;
    ctx.metrics->record_repair(now);
    note(ctx, TraceEventType::kRepairPlanned, kTraceFailure, job->destination, -1,
         video, static_cast<double>(server_id));
    start_replication_job(*job);
  }
}

void VodSimulation::recompute_server(ExecContext& ctx, ServerId server_id) {
  Server& server = servers_[static_cast<std::size_t>(server_id)];
  ServerRecomputeState& state = recompute_state_[static_cast<std::size_t>(server_id)];
  // The executing context recomputes at its own clock with its own
  // scheduler instance and scratch arenas. A shard context only ever
  // reaches its own servers; the coordinator may reach any.
  assert(ctx.index == 0 ||
         owner_index(server_id) == static_cast<std::size_t>(ctx.index));
  const Seconds now = ctx.sim.now();
  // Memo: several events at one timestamp often recompute the same server.
  // A repeat with unchanged inputs is a pure no-op — advance would see dt=0,
  // allocate is deterministic in its inputs (including the intermittent
  // scheduler's hysteresis latch, which is idempotent at fixed cover), and
  // the exact-compare below would reschedule nothing — so skipping it is
  // bit-identical. Exact double compare on purpose: only a repeat at the
  // *same* event timestamp qualifies.
  if (state.clean_time == now && state.clean_epoch == state.epoch) return;

  const std::vector<Request*>& active = server.active_requests();
  note(ctx, TraceEventType::kRecompute, kTraceSched, server_id, -1, -1,
       static_cast<double>(active.size()), server.schedulable_bandwidth());
  batch_advance_server(ctx, server);

  const std::vector<Mbps>& rates = ctx.rates_scratch;
  ctx.scheduler->allocate(now, server.schedulable_bandwidth(), active,
                          ctx.rates_scratch, ctx.sched_scratch, &state.sched_cache);

  // Phase 1: write the new allocations (ascending slot order, as the old
  // fused loop did) and collect the slots whose rate actually moved.
  // Exact comparison on purpose: the common case (rate == view bandwidth,
  // assigned from the same double every recomputation) stays bit-identical,
  // so unchanged requests keep their predicted events. The old rate is
  // read from the lane, the write-through copy of Request::allocation, so
  // only a changed request is dereferenced.
  std::vector<std::size_t>& changed = ctx.changed_slots;
  changed.clear();
  const FluidLane& lane = server.lane();
  for (std::size_t i = 0; i < active.size(); ++i) {
    if (rates[i] != lane.allocation(i)) {
      Request& request = *active[i];
      note(ctx, TraceEventType::kAllocationChange, kTraceAllocation, server_id,
           request.id(), request.video_id(), request.allocation(),
           rates[i]);
      request.set_allocation(now, rates[i]);
      changed.push_back(i);
    }
  }

  // Phase 2: re-predict the events of every changed slot. Splitting the
  // fused write+predict loop is bit-identical: a prediction reads only its
  // own request's state (which phase 1 finalized), and both the slot order
  // and the per-request order (tx → full → low) — hence event-seq
  // consumption — are unchanged. When a mass reallocation moved most of the
  // lane, one vectorized pass computes all three predicted times (+inf =
  // no event) and the shared mechanics consume them; sparse changes (the
  // single-stream-delta steady state) evaluate the same formula per slot —
  // filling the whole lane to retime two slots would waste the divisions
  // the batch amortizes.
  if (changed.size() >= 8 && changed.size() * 4 >= active.size()) {
    lane.fill_predicted_times(now, config_.intermittent_safety_cover,
                              ctx.retime_tx, ctx.retime_full, ctx.retime_low);
    for (const std::size_t i : changed) {
      Request& request = *active[i];
      if (request.state() != RequestState::kStreaming) {
        reschedule_predicted_events(ctx, request);  // its clearing early-out
      } else {
        apply_predicted_times(request, ctx.retime_tx[i], ctx.retime_full[i],
                              ctx.retime_low[i]);
      }
    }
  } else {
    for (const std::size_t i : changed) {
      reschedule_predicted_events(ctx, *active[i]);
    }
  }
  sync_prediction_timer(server_id);
  // Record *after* the advances above bumped the epoch: the server is clean
  // as of the state this pass just produced.
  state.clean_time = now;
  state.clean_epoch = state.epoch;
}

void VodSimulation::mark_server_dirty(ServerId server_id) {
  if (server_id == kNoServer) return;
  ++recompute_state_[static_cast<std::size_t>(server_id)].epoch;
}

void VodSimulation::advance_and_account(ExecContext& ctx, Request& request,
                                        Seconds now) {
  if (now <= request.last_update()) return;
  // Real time elapsed: buffer level and remaining bytes moved, which feeds
  // eligibility and finish-time ordering on the hosting server.
  mark_server_dirty(request.server());
  const Seconds interval_start = request.last_update();
  // A shard context accounts into its own Metrics (merged after the run);
  // the auditor is never active in sharded runs (build_world).
  ctx.metrics->record_transmission(interval_start, now, request.allocation());
  if (auditor_) auditor_->on_advance(request, interval_start, now);
  const Megabits underflow = request.advance(now);
  if (underflow > 0.0) account_underflow(ctx, request, now, underflow);
}

void VodSimulation::batch_advance_server(ExecContext& ctx, Server& server) {
  const Seconds now = ctx.sim.now();
  const std::vector<Request*>& active = server.active_requests();

  if (auditor_) {
    // The auditor observes per-stream intervals (its flow integral sums in
    // active order); read the start times before the kernel overwrites
    // them. Gating matches advance_and_account's now <= last_update
    // early-return.
    for (Request* request : active) {
      const Seconds start = request->last_update();
      if (now > start) auditor_->on_advance(*request, start, now);
    }
  }

  const FluidLane::BatchResult batch = server.lane().advance_batch(
      now, config_.warmup, config_.duration, ctx.metrics->transmission_meter(),
      ctx.underflow_scratch);
  if (batch.advanced > 0) mark_server_dirty(server.id());
  if (!batch.any_underflow) return;
  // Rare path: per-stream accounting in active order, as
  // advance_and_account would do it stream by stream.
  for (Request* request : active) {
    const Megabits underflow = ctx.underflow_scratch[request->active_index];
    if (underflow > 0.0) account_underflow(ctx, *request, now, underflow);
  }
}

void VodSimulation::account_underflow(ExecContext& ctx, Request& request,
                                      Seconds now, Megabits underflow) {
  Metrics& metrics = *ctx.metrics;
  ++ctx.continuity_violations;
  metrics.record_underflow(now, underflow);
  // Viewer-facing resilience accounting: the megabits short translate to
  // seconds of starved playback at the view rate. One counted
  // interruption per stream per dedupe window: a shed-then-readmitted
  // stream whose retry glitch lands in the same window as its shed
  // glitch reads as one viewer-visible interruption, not two (the
  // glitch-seconds still accrue in full).
  const Seconds dedupe = config_.failure.glitch_dedupe_window;
  const std::int64_t window_idx =
      dedupe > 0.0 ? static_cast<std::int64_t>(now / dedupe) : -1;
  // Attribution uses last_server, not server(): a parked orphan (server()
  // == kNoServer) still charges its glitch to the domain that lost it.
  if (dedupe > 0.0 && request.last_glitch_window == window_idx) {
    metrics.record_glitch_seconds(now, underflow / request.view_bandwidth(),
                                  request.last_server);
  } else {
    metrics.record_glitch(now, underflow / request.view_bandwidth(),
                          request.last_server);
    request.last_glitch_window = window_idx;
  }
  note(ctx, TraceEventType::kUnderflow, kTraceBuffer, request.server(),
       request.id(), request.video_id(), underflow);
  VODSIM_DEBUG << "continuity violation: request " << request.id() << " short "
               << underflow << " Mb at " << now << " at rate "
               << request.allocation() << " (state "
               << static_cast<int>(request.state()) << ", server "
               << request.server() << ", urgent " << request.workahead_urgent()
               << ")";
}

void VodSimulation::schedule_next_pause(Request& request) {
  const Seconds gap =
      interactivity_rng_.exponential(config_.interactivity.pauses_per_hour /
                                     kSecondsPerHour);
  coordinator().sim.schedule_in(gap,
                                [this, &request](Seconds) { on_pause(request); });
}

void VodSimulation::on_pause(Request& request) {
  // The viewer may already be gone (done/dropped) or past the credits.
  if (request.state() == RequestState::kDone ||
      request.state() == RequestState::kRejected) {
    return;
  }
  ExecContext& ctx = coordinator();
  const Seconds now = ctx.sim.now();
  if (now >= request.playback_end() || request.viewing_paused()) return;

  advance_and_account(ctx, request, now);
  request.pause_viewing(now);
  mark_server_dirty(request.server());  // drain stopped; minimum rate may be 0
  ++pauses_started_;
  note(ctx, TraceEventType::kPause, kTraceLifecycle, request.server(), request.id(),
       request.video_id(), request.buffer_level());

  // The deadline is frozen until resume; the pending end-of-playback event
  // would fire at the stale time.
  ctx.sim.cancel(request.playback_end_event);
  request.playback_end_event = kInvalidEventId;

  if (request.state() == RequestState::kStreaming) {
    // Drain stopped: buffer-full predictions changed even if the allocation
    // did not, and a full buffer now absorbs nothing (minimum rate 0).
    recompute_server(ctx, request.server());
    reschedule_predicted_events(ctx, request);
    sync_prediction_timer(request.server());
  }

  const Seconds pause = interactivity_rng_.exponential(
      1.0 / config_.interactivity.mean_pause_duration);
  ctx.sim.schedule_in(pause, [this, &request](Seconds) { on_resume(request); });
}

void VodSimulation::on_resume(Request& request) {
  if (request.state() == RequestState::kDone) return;  // dropped mid-pause
  ExecContext& ctx = coordinator();
  const Seconds now = ctx.sim.now();
  advance_and_account(ctx, request, now);
  request.resume_viewing(now);
  mark_server_dirty(request.server());  // drain restarted
  note(ctx, TraceEventType::kResume, kTraceLifecycle, request.server(), request.id(),
       request.video_id(), request.buffer_level());

  schedule_playback_end(request);

  if (request.state() == RequestState::kStreaming) {
    recompute_server(ctx, request.server());
    reschedule_predicted_events(ctx, request);
    sync_prediction_timer(request.server());
  }
  schedule_next_pause(request);
}

void VodSimulation::maybe_start_replication(VideoId video) {
  const Seconds now = coordinator().sim.now();
  auto job =
      replication_->on_rejection(video, now, catalog_, servers_, directory_);
  if (!job) return;
  start_replication_job(*job);
}

void VodSimulation::start_replication_job(const ReplicationJob& planned) {
  ExecContext& ctx = coordinator();
  const Seconds now = ctx.sim.now();
  Server& destination = servers_[static_cast<std::size_t>(planned.destination)];
  const Mbps rate = config_.replication.transfer_bandwidth;

  // The copy steals link bandwidth from workahead for its whole duration
  // (the "resource intensive" part of dynamic replication) — on both ends
  // for a server-sourced copy, on the destination only when streaming from
  // tertiary storage.
  if (!planned.from_tertiary()) {
    servers_[static_cast<std::size_t>(planned.source)].reserve_bandwidth(rate);
    mark_server_dirty(planned.source);
    recompute_server(ctx, planned.source);
  }
  destination.reserve_bandwidth(rate);
  mark_server_dirty(planned.destination);
  replication_->on_job_started();
  note(ctx, TraceEventType::kReplicationBegin, kTraceReplication,
       planned.destination, -1, planned.video,
       planned.from_tertiary() ? -2.0 : static_cast<double>(planned.source),
       rate);
  recompute_server(ctx, planned.destination);

  ctx.sim.schedule_in(planned.transfer_time, [this, job = planned, rate,
                                               start = now](Seconds) {
    ExecContext& ctx = coordinator();
    const Seconds end = ctx.sim.now();
    Server& dst = servers_[static_cast<std::size_t>(job.destination)];
    if (!job.from_tertiary()) {
      servers_[static_cast<std::size_t>(job.source)].release_reservation(rate);
      mark_server_dirty(job.source);
      recompute_server(ctx, job.source);
    }
    dst.release_reservation(rate);
    mark_server_dirty(job.destination);
    // Storage was verified when the job was planned; nothing else consumes
    // storage mid-run, so this cannot fail.
    const bool added = dst.add_replica(catalog_[job.video]);
    if (added) directory_.add_holder(job.video, job.destination);
    ctx.metrics->record_replication(start, end, rate);
    replication_->on_job_finished(job.video);
    note(ctx, TraceEventType::kReplicationEnd, kTraceReplication, job.destination,
         -1, job.video);
    recompute_server(ctx, job.destination);
  });
}

void VodSimulation::attach_to(ExecContext& ctx, ServerId server_id,
                              Request& request) {
  Server& server = servers_[static_cast<std::size_t>(server_id)];
  mark_server_dirty(server_id);
  server.attach(request, /*enforce_capacity=*/!config_.admission.buffer_aware);
  // Executing-context clock: a shard-context detach (tx-complete) is ahead
  // of the stale coordinator clock, and occupancy integrates real intervals.
  occupancy_[static_cast<std::size_t>(server_id)].update(
      ctx.sim.now(), static_cast<double>(server.active_count()));
}

void VodSimulation::detach_from(ExecContext& ctx, ServerId server_id,
                                Request& request) {
  Server& server = servers_[static_cast<std::size_t>(server_id)];
  mark_server_dirty(server_id);
  server.detach(request);
  occupancy_[static_cast<std::size_t>(server_id)].update(
      ctx.sim.now(), static_cast<double>(server.active_count()));
}

VodSimulation::OccupancySummary VodSimulation::occupancy() const {
  OccupancySummary summary;
  if (occupancy_.empty()) return summary;
  double total = 0.0;
  summary.min_server_mean = occupancy_.front().mean();
  summary.max_server_mean = occupancy_.front().mean();
  for (const TimeWeighted& tw : occupancy_) {
    const double mean = tw.mean();
    total += mean;
    summary.min_server_mean = std::min(summary.min_server_mean, mean);
    summary.max_server_mean = std::max(summary.max_server_mean, mean);
  }
  summary.mean_active = total / static_cast<double>(occupancy_.size());
  if (summary.mean_active > 0.0) {
    summary.imbalance =
        (summary.max_server_mean - summary.min_server_mean) / summary.mean_active;
  }
  return summary;
}

void VodSimulation::cancel_predicted_events(Request& request) {
  assert(request.lane() != nullptr && "cancel before detaching");
  set_predictions(request, kNoPredictions);
  sync_prediction_timer(request.server());
}

void VodSimulation::reschedule_predicted_events(ExecContext& ctx,
                                                Request& request) {
  if (request.state() != RequestState::kStreaming) {
    set_predictions(request, kNoPredictions);
    return;
  }
  // The per-slot form of recompute_server's batched pass: the same formula
  // (fluid_detail::predicted_times), +inf = no event. The key mechanics
  // live in apply_predicted_times, shared with the batched path.
  const fluid_detail::PredictedTimes times =
      servers_[static_cast<std::size_t>(request.server())].lane().predicted_times(
          request.active_index, ctx.sim.now(), config_.intermittent_safety_cover);
  apply_predicted_times(request, times.tx_complete, times.buffer_full,
                        times.buffer_low);
}

void VodSimulation::apply_predicted_times(Request& request, Seconds tx_at,
                                          Seconds full_at, Seconds low_at) {
  // Keys take their seqs from the owner context's queue, where the timer
  // runs. A coordinator caller of a sharded run writes keys for a shard
  // whose own clock lags (it drained strictly below this event's time), so
  // clamping to the owner clock can never key a prediction into its past;
  // a shard caller is always the owner itself.
  Simulator& psim = owner_of(request.server()).sim;
  constexpr Seconds kNever = std::numeric_limits<Seconds>::infinity();
  const auto keyed = [&psim](Seconds at) {
    return EventKey{std::max(at, psim.now()), psim.take_seq()};
  };

  // Sequence-number parity with one queue entry per prediction is
  // load-bearing: exactly one seq is taken per *kept* prediction, in the
  // same order (transmission-complete, then buffer-full, then buffer-low)
  // as the reschedule-or-schedule calls that entry would make, so
  // equal-time events tie-break identically and the simulation stays on
  // the seed trajectory bit for bit. Dropping a prediction takes no seq,
  // as a cancel consumes none.
  //
  // Transmission-complete liveness comes from the allocation sign, not from
  // tx_at's finiteness: a pathological tiny rate could divide to +inf yet
  // still mean "transmitting" — the sign test matches the scalar gate
  // exactly. The full/low times can only be finite when their gates kept
  // them, so finiteness *is* their liveness.
  set_predictions(
      request, {request.allocation() > 0.0 ? keyed(tx_at) : kNoEventKey,
                full_at != kNever ? keyed(full_at) : kNoEventKey,
                low_at != kNever ? keyed(low_at) : kNoEventKey});
}

void VodSimulation::set_predictions(Request& request,
                                    const PredictionKeys& keys) {
  const auto server = static_cast<std::size_t>(request.server());
  FluidLane& lane = servers_[server].lane();
  const EventKey slot_earliest = lane.set_predictions(request.active_index, keys);
  ServerRecomputeState& state = recompute_state_[server];
  if (state.earliest_stale) return;  // the next sync rescans anyway
  // Every other stream's keys are at or after the server's earliest, so a
  // lower key here is the server's new earliest. Otherwise the earliest
  // stands — unless this stream held it, and its key is gone.
  if (slot_earliest < state.earliest) {
    state.earliest = slot_earliest;
    state.holder = &request;
    state.holder_kind = lane.earliest_kind(request.active_index);
  } else if (state.holder == &request) {
    state.earliest_stale = true;
  }
}

void VodSimulation::sync_prediction_timer(ServerId server_id) {
  ServerRecomputeState& state =
      recompute_state_[static_cast<std::size_t>(server_id)];
  if (state.firing) return;  // on_prediction_timer syncs once, at its end
  if (state.earliest_stale) {
    const Server& server = servers_[static_cast<std::size_t>(server_id)];
    const FluidLane& lane = server.lane();
    const std::size_t slot = lane.earliest_slot();
    if (slot == lane.size()) {
      state.earliest = kNoEventKey;
      state.holder = nullptr;
    } else {
      state.earliest = lane.earliest_prediction(slot);
      state.holder = server.active_requests()[slot];
      state.holder_kind = lane.earliest_kind(slot);
    }
    state.earliest_stale = false;
  }
  if (state.earliest == state.armed) return;

  ExecContext& owner = owner_of(server_id);
  state.armed = state.earliest;
  if (!state.armed.live()) {
    owner.sim.cancel(state.timer);
    state.timer = kInvalidEventId;
  } else if (!owner.sim.rekey(state.timer, state.armed.time, state.armed.seq)) {
    state.timer = owner.sim.schedule_keyed(
        state.armed.time, state.armed.seq,
        [this, &owner, server_id](Seconds) {
          on_prediction_timer(owner, server_id);
        });
  }
}

void VodSimulation::on_prediction_timer(ExecContext& owner, ServerId server_id) {
  ServerRecomputeState& state =
      recompute_state_[static_cast<std::size_t>(server_id)];
  state.timer = kInvalidEventId;
  state.armed = kNoEventKey;
  // A sync precedes every return to the event loop, so the holder is
  // current: no search, only its slot's key to clear.
  assert(!state.earliest_stale && state.holder != nullptr);
  Request& request = *state.holder;
  const Prediction kind = state.holder_kind;
  servers_[static_cast<std::size_t>(server_id)].lane().clear_prediction(
      request.active_index, kind);
  state.earliest_stale = true;
  // The handler's own syncs of this server (its recompute, a tx-complete's
  // cancel) are deferred to the one below: one rescan and one re-arm per
  // firing.
  state.firing = true;
  switch (kind) {
    case Prediction::kTxComplete:
      on_tx_complete(owner, request);
      break;
    case Prediction::kBufferFull:
      on_buffer_full(owner, request);
      break;
    case Prediction::kBufferLow:
      // Fires when a deliberately starved stream (intermittent scheduling)
      // drains to the safety threshold and needs flow again.
      if (request.state() == RequestState::kStreaming) {
        note(owner, TraceEventType::kBufferLow, kTraceBuffer, request.server(),
             request.id(), request.video_id(), request.buffer_level());
        recompute_server(owner, request.server());
      }
      break;
  }
  state.firing = false;
  sync_prediction_timer(server_id);
}

std::size_t VodSimulation::owner_index(ServerId server) const {
  if (server == kNoServer) return 0;
  return static_cast<std::size_t>(
      owner_of_server_[static_cast<std::size_t>(server)]);
}

void VodSimulation::note(ExecContext& ctx, TraceEventType type,
                         std::uint32_t category, ServerId server,
                         RequestId request, VideoId video, double a, double b) {
  if (ctx.trace == nullptr || !ctx.trace->wants(category)) return;
  ctx.trace->record(ctx.sim.now(), type, server, request, video, a, b);
}

std::uint64_t VodSimulation::continuity_violations() const {
  std::uint64_t total = 0;
  for (const auto& ctx : contexts_) total += ctx->continuity_violations;
  return total;
}

int VodSimulation::shard_of_server(ServerId server) const {
  // Shard k is context k + 1; with shards == 1 the coordinator owns all.
  return std::max(static_cast<int>(owner_index(server)) - 1, 0);
}

std::uint64_t VodSimulation::coordinator_events() const {
  return coordinator().sim.executed_count();
}

std::uint64_t VodSimulation::shard_events() const {
  std::uint64_t total = 0;
  for (std::size_t k = 1; k < contexts_.size(); ++k) {
    total += contexts_[k]->sim.executed_count();
  }
  return total;
}

std::vector<TraceEvent> VodSimulation::merged_trace_events() const {
  std::vector<TraceEvent> out;
  for (const auto& ctx : contexts_) {
    if (!ctx->trace) continue;
    const std::vector<TraceEvent> events = ctx->trace->snapshot();
    out.insert(out.end(), events.begin(), events.end());
  }
  // (time, shard, seq): coordinator (-1) first within a timestamp, then
  // shards in index order, each internally in emission order. A total
  // deterministic order even though per-recorder seqs are independent.
  std::sort(out.begin(), out.end(),
            [](const TraceEvent& x, const TraceEvent& y) {
              if (x.time != y.time) return x.time < y.time;
              if (x.shard != y.shard) return x.shard < y.shard;
              return x.seq < y.seq;
            });
  return out;
}

TraceTotals VodSimulation::trace_totals() const {
  TraceTotals totals;
  for (const auto& ctx : contexts_) {
    if (!ctx->trace) continue;
    totals.emitted += ctx->trace->emitted();
    totals.dropped += ctx->trace->dropped();
    totals.categories = ctx->trace->categories();
  }
  return totals;
}

}  // namespace vodsim
