#include "vodsim/check/reference_oracle.h"

#include <cassert>
#include <cmath>
#include <deque>
#include <limits>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <vector>

#include "vodsim/admission/controller.h"
#include "vodsim/cluster/request.h"
#include "vodsim/cluster/server.h"
#include "vodsim/engine/metrics.h"
#include "vodsim/engine/vod_simulation.h"
#include "vodsim/fault/schedule.h"
#include "vodsim/sched/scheduler.h"
#include "vodsim/util/rng.h"
#include "vodsim/workload/drift.h"
#include "vodsim/workload/poisson.h"
#include "vodsim/workload/request_generator.h"

namespace vodsim {

namespace {

constexpr Seconds kInfinity = std::numeric_limits<Seconds>::infinity();

/// The whole oracle. Deliberately naive: state transitions are found by
/// rescanning every live request from first principles on every iteration.
/// Handler bodies mirror VodSimulation's handlers statement by statement
/// (minus event-queue bookkeeping) so that both simulators advance and
/// reallocate at the same logical instants — the engine's lazily-advanced
/// fluid state is part of its observable semantics (admission and victim
/// selection read it), not an implementation detail the oracle may ignore.
class Oracle {
 public:
  Oracle(const SimulationConfig& config, const RequestTrace& trace,
         Seconds max_step)
      : config_(config),
        trace_(trace),
        step_(max_step > 0.0 ? max_step : 1.0),
        duration_(config.duration),
        metrics_(config.warmup, config.duration, config.system.total_bandwidth()) {
    // Borrow the engine's own world construction instead of re-deriving it:
    // a throwaway VodSimulation builds catalog, placement, replica
    // directory and failure timeline exactly as a real run would, and the
    // oracle copies the result. Equality of the static world is then by
    // construction, not by a parallel implementation that could drift.
    VodSimulation world(config);
    catalog_ = world.catalog();
    servers_ = world.servers();
    directory_ = world.directory();
    failures_ = world.failure_timeline();

    controller_ = std::make_unique<AdmissionController>(config.admission, directory_);
    scheduler_ = make_scheduler(config.scheduler, config.intermittent_safety_cover);
    replication_ = std::make_unique<ReplicationManager>(config.replication);
    profile_.buffer_capacity = config.staging_capacity();
    profile_.receive_bandwidth = config.client.receive_bandwidth;
  }

  OracleResult run() {
    Seconds grid = 0.0;
    // Backstop against an oracle/engine bug degenerating into a livelock of
    // immediate re-fires; real tiny scenarios need a few thousand steps.
    constexpr std::uint64_t kMaxIterations = 20'000'000;
    for (std::uint64_t iteration = 0;; ++iteration) {
      if (iteration >= kMaxIterations) {
        throw std::logic_error("oracle: iteration limit hit (livelock?)");
      }
      const Breakpoint bp = next_breakpoint();
      const Seconds next_grid = std::min(grid + step_, duration_);
      if (bp.kind != Breakpoint::kNone && bp.time <= duration_ &&
          bp.time <= next_grid) {
        now_ = std::max(now_, bp.time);
        dispatch(bp);
        continue;
      }
      now_ = next_grid;
      grid = next_grid;
      sanity_sweep();
      if (grid >= duration_) break;
    }

    // Mirror the engine's end-of-run flush: in-flight transmissions are
    // accounted up to the horizon, in server order.
    for (Server& server : servers_) {
      for (Request* request : server.active_requests()) {
        advance_request(*request, duration_);
      }
    }

    OracleResult result;
    result.arrivals = metrics_.arrivals();
    result.accepts = metrics_.accepts();
    result.rejects = metrics_.rejects();
    result.migration_steps = metrics_.migration_steps();
    result.completions = metrics_.completions();
    result.drops = metrics_.drops();
    result.underflow_events = metrics_.underflow_events();
    result.replications = metrics_.replications();
    result.continuity_violations = continuity_violations_;
    result.utilization = metrics_.utilization();
    result.rejection_ratio = metrics_.rejection_ratio();
    result.transmitted = metrics_.transmitted();
    result.underflow_megabits = metrics_.underflow_megabits();
    return result;
  }

 private:
  struct Timer {
    enum Kind { kMigrationRelease, kReplicationDone };
    Kind kind = kMigrationRelease;
    Seconds time = 0.0;
    Request* request = nullptr;   // kMigrationRelease
    ServerId target = kNoServer;  // kMigrationRelease
    ReplicationJob job;           // kReplicationDone
    Mbps rate = 0.0;              // kReplicationDone
    Seconds start = 0.0;          // kReplicationDone
  };

  struct Breakpoint {
    enum Kind {
      kNone,
      kArrival,
      kFailure,
      kTimer,
      kPlaybackEnd,
      kTxComplete,
      kBufferFull,
      kBufferLow,
    };
    Kind kind = kNone;
    Seconds time = kInfinity;
    Request* request = nullptr;
    std::size_t timer_index = 0;
  };

  /// Cached predicted transition times for one request. The engine computes
  /// these once per allocation change and never again until the next change;
  /// the times are therefore part of the observable semantics (they decide
  /// when reallocations run, which decides what admission and the
  /// intermittent urgency latch observe), not an implementation detail. The
  /// oracle mirrors the caching — recomputed at exactly the engine's
  /// reschedule sites, cleared at its cancel sites — but keeps no event
  /// queue: every iteration still brute-force scans all cached values.
  struct Pred {
    Seconds tx_at = kInfinity;
    Seconds full_at = kInfinity;
    Seconds low_at = kInfinity;
  };

  Server& server(ServerId id) { return servers_[static_cast<std::size_t>(id)]; }

  Pred& pred(const Request& request) {
    // Oracle request ids are dense from zero, so the id doubles as an index.
    return preds_[static_cast<std::size_t>(request.id())];
  }

  /// Earliest pending transition, rescanned from raw state. Exact ties keep
  /// the first candidate in scan order (arrivals, failures, timers,
  /// playback ends, per-server predictions) — ties between continuously
  /// distributed times have measure zero.
  Breakpoint next_breakpoint() {
    Breakpoint best;
    auto consider = [&best](Seconds time, Breakpoint::Kind kind, Request* request,
                            std::size_t timer_index) {
      if (time < best.time) best = Breakpoint{kind, time, request, timer_index};
    };

    if (trace_index_ < trace_.size()) {
      const Arrival& arrival = trace_[trace_index_];
      // The engine stops its arrival chain at the first arrival past the
      // horizon; the trace is time-sorted, so everything after is too.
      if (arrival.time <= duration_) {
        consider(arrival.time, Breakpoint::kArrival, nullptr, 0);
      }
    }
    if (failure_index_ < failures_.size()) {
      consider(failures_[failure_index_].time, Breakpoint::kFailure, nullptr, 0);
    }
    for (std::size_t i = 0; i < timers_.size(); ++i) {
      consider(timers_[i].time, Breakpoint::kTimer, nullptr, i);
    }
    for (Request& request : requests_) {
      const RequestState state = request.state();
      if (state == RequestState::kStreaming || state == RequestState::kMigrating ||
          state == RequestState::kTxComplete) {
        consider(request.playback_end(), Breakpoint::kPlaybackEnd, &request, 0);
      }
    }
    // Predicted transitions: cached times, bit-identical to the engine's
    // pending events because they were computed from the same state at the
    // same allocation-change instants (see Pred). Deriving them fresh from
    // advanced fluid state here would be off by float ulps — harmless for
    // the times themselves, but fatal for discrete decisions downstream
    // (the intermittent urgency latch compares buffer levels that sit
    // *exactly at* the urgency threshold, where an ulp flips the feed
    // order and the runs diverge materially).
    for (Server& s : servers_) {
      for (Request* rp : s.active_requests()) {
        const Pred& p = pred(*rp);
        consider(p.tx_at, Breakpoint::kTxComplete, rp, 0);
        consider(p.full_at, Breakpoint::kBufferFull, rp, 0);
        consider(p.low_at, Breakpoint::kBufferLow, rp, 0);
      }
    }
    return best;
  }

  void dispatch(const Breakpoint& bp) {
    switch (bp.kind) {
      case Breakpoint::kArrival:
        handle_arrival(trace_[trace_index_++]);
        break;
      case Breakpoint::kFailure:
        apply_failure(failures_[failure_index_++]);
        break;
      case Breakpoint::kTimer: {
        const Timer timer = timers_[bp.timer_index];
        timers_.erase(timers_.begin() +
                      static_cast<std::ptrdiff_t>(bp.timer_index));
        fire_timer(timer);
        break;
      }
      case Breakpoint::kPlaybackEnd:
        on_playback_end(*bp.request);
        break;
      // Predicted events are one-shot: the engine clears the event handle
      // before running the handler, and only a later allocation change
      // re-arms it. Mirror by clearing the cached time first.
      case Breakpoint::kTxComplete:
        pred(*bp.request).tx_at = kInfinity;
        on_tx_complete(*bp.request);
        break;
      case Breakpoint::kBufferFull:
        pred(*bp.request).full_at = kInfinity;
        recompute(bp.request->server());
        break;
      case Breakpoint::kBufferLow:
        pred(*bp.request).low_at = kInfinity;
        recompute(bp.request->server());
        break;
      case Breakpoint::kNone:
        break;
    }
  }

  // --- handler mirrors (one per VodSimulation handler) -------------------

  void handle_arrival(const Arrival& arrival) {
    metrics_.record_arrival(now_);
    const Video& video = catalog_[arrival.video];
    Rng unused(0);
    const AdmissionDecision decision =
        controller_->decide(now_, arrival.video, video.view_bandwidth, servers_,
                            unused);

    requests_.emplace_back(next_request_id_++, video, now_, profile_);
    preds_.emplace_back();
    Request& request = requests_.back();

    if (!decision.accepted) {
      request.mark_rejected();
      metrics_.record_rejection(now_);
      maybe_start_replication(arrival.video);
      return;
    }

    if (decision.used_migration()) {
      for (const MigrationStep& step : decision.migrations) execute_migration(step);
      metrics_.record_migration_chain(now_, decision.migrations.size());
    }
    metrics_.record_acceptance(now_, decision.used_migration());

    request.begin_streaming(now_, decision.server);
    attach(decision.server, request);
    recompute(decision.server);
  }

  void execute_migration(const MigrationStep& step) {
    Request& request = *step.request;
    advance_request(request, now_);
    cancel_predicted(request);
    server(step.from).detach(request);
    request.begin_migration(now_);

    const Seconds latency = config_.admission.migration.switch_latency;
    if (latency <= 0.0) {
      finish_migration(request, step.to);
    } else {
      server(step.to).reserve_bandwidth(request.view_bandwidth());
      Timer timer;
      timer.kind = Timer::kMigrationRelease;
      timer.time = now_ + latency;
      timer.request = &request;
      timer.target = step.to;
      timers_.push_back(timer);
    }
    recompute(step.from);
  }

  void finish_migration(Request& request, ServerId target) {
    advance_request(request, now_);
    request.complete_migration(now_, target);
    attach(target, request);
    recompute(target);
  }

  void on_tx_complete(Request& request) {
    const ServerId host = request.server();
    advance_request(request, now_);
    if (!request.finished()) {
      recompute(host);
      return;
    }
    cancel_predicted(request);
    server(host).detach(request);
    request.mark_tx_complete(now_);
    recompute(host);
  }

  void on_playback_end(Request& request) {
    switch (request.state()) {
      case RequestState::kTxComplete:
        advance_request(request, now_);
        request.mark_done(now_);
        metrics_.record_completion(now_);
        break;
      case RequestState::kStreaming: {
        const ServerId host = request.server();
        advance_request(request, now_);
        cancel_predicted(request);
        server(host).detach(request);
        request.mark_done(now_);
        metrics_.record_completion(now_);
        recompute(host);
        break;
      }
      case RequestState::kMigrating:
        advance_request(request, now_);
        request.mark_done(now_);
        metrics_.record_completion(now_);
        break;
      case RequestState::kDone:
      case RequestState::kRejected:
        break;
    }
  }

  void apply_failure(const FaultTransition& event) {
    Server& failed = server(event.server);
    // Brownout kinds are outside the oracle's scope (oracle_supports
    // excludes them); only binary transitions can appear here.
    if (event.kind == FaultTransitionKind::kUp) {
      if (failed.available()) return;  // idempotent, mirroring the engine
      failed.set_available(true);
      return;
    }
    assert(event.kind == FaultTransitionKind::kDown);
    if (!failed.available()) return;
    failed.set_available(false);

    std::vector<Request*> victims(failed.active_requests().begin(),
                                  failed.active_requests().end());
    for (Request* victim : victims) {
      Request& request = *victim;
      advance_request(request, now_);
      cancel_predicted(request);
      failed.detach(request);

      ServerId target = kNoServer;
      if (config_.failure.recover_via_migration) {
        for (ServerId candidate : directory_.holders(request.video_id())) {
          if (candidate == failed.id()) continue;
          const Server& cs = server(candidate);
          if (!cs.can_admit(request.view_bandwidth())) continue;
          if (target == kNoServer ||
              cs.active_count() < server(target).active_count()) {
            target = candidate;
          }
        }
      }
      if (target == kNoServer) {
        request.mark_done(now_);
        metrics_.record_drop(now_);
      } else {
        request.begin_migration(now_);
        finish_migration(request, target);
      }
    }
  }

  void maybe_start_replication(VideoId video) {
    auto job = replication_->on_rejection(video, now_, catalog_, servers_, directory_);
    if (!job) return;

    const Mbps rate = config_.replication.transfer_bandwidth;
    if (!job->from_tertiary()) {
      server(job->source).reserve_bandwidth(rate);
      recompute(job->source);
    }
    server(job->destination).reserve_bandwidth(rate);
    replication_->on_job_started();
    recompute(job->destination);

    Timer timer;
    timer.kind = Timer::kReplicationDone;
    timer.time = now_ + job->transfer_time;
    timer.job = *job;
    timer.rate = rate;
    timer.start = now_;
    timers_.push_back(timer);
  }

  void fire_timer(const Timer& timer) {
    switch (timer.kind) {
      case Timer::kMigrationRelease: {
        server(timer.target).release_reservation(timer.request->view_bandwidth());
        if (timer.request->state() == RequestState::kMigrating) {
          finish_migration(*timer.request, timer.target);
        }
        break;
      }
      case Timer::kReplicationDone: {
        Server& destination = server(timer.job.destination);
        if (!timer.job.from_tertiary()) {
          server(timer.job.source).release_reservation(timer.rate);
          recompute(timer.job.source);
        }
        destination.release_reservation(timer.rate);
        const bool added = destination.add_replica(catalog_[timer.job.video]);
        if (added) directory_.add_holder(timer.job.video, timer.job.destination);
        metrics_.record_replication(timer.start, now_, timer.rate);
        replication_->on_job_finished(timer.job.video);
        recompute(timer.job.destination);
        break;
      }
    }
  }

  // --- fluid plumbing ----------------------------------------------------

  void attach(ServerId host, Request& request) {
    server(host).attach(request, /*enforce_capacity=*/!config_.admission.buffer_aware);
  }

  void advance_request(Request& request, Seconds now) {
    if (now <= request.last_update()) return;
    metrics_.record_transmission(request.last_update(), now, request.allocation());
    const Megabits underflow = request.advance(now);
    if (underflow > 0.0) {
      ++continuity_violations_;
      metrics_.record_underflow(now, underflow);
    }
  }

  void recompute(ServerId host) {
    Server& s = server(host);
    const std::vector<Request*>& active = s.active_requests();
    for (Request* request : active) advance_request(*request, now_);

    // Fresh vector + throwaway scratch every pass, and no remembered grant
    // order (the copied servers keep their lanes between passes): the
    // brute-force full-sort path.
    s.lane().grant_order().clear();
    std::vector<Mbps> rates;
    scheduler_->allocate(now_, s.schedulable_bandwidth(), active, rates);
    for (std::size_t i = 0; i < active.size(); ++i) {
      // Same exact-compare as the engine, so set_allocation happens at the
      // same instants (it matters: set_allocation asserts freshness), and
      // unchanged requests keep their cached predictions.
      if (rates[i] != active[i]->allocation()) {
        active[i]->set_allocation(now_, rates[i]);
        reschedule_predicted(*active[i]);
      }
    }
  }

  /// Mirror of the engine's reschedule_predicted_events: same formulas, same
  /// gates, evaluated at the same instant (the request was just advanced to
  /// now_, so last_update == now_).
  void reschedule_predicted(Request& request) {
    Pred& p = pred(request);
    p = Pred{};
    if (request.state() != RequestState::kStreaming) return;
    const Mbps rate = request.allocation();

    Seconds tx_at = kInfinity;
    if (rate > 0.0) {
      tx_at = now_ + request.remaining() / rate;
      p.tx_at = tx_at;
    }

    const Mbps surplus = rate - request.drain_rate(now_);
    if (surplus > 1e-12 && !request.buffer_full()) {
      const Seconds full_at = now_ + request.buffer_headroom() / surplus;
      if (full_at < tx_at) p.full_at = full_at;
    } else if (surplus < -1e-12) {
      const Megabits threshold =
          config_.intermittent_safety_cover * request.view_bandwidth();
      const Megabits level = request.buffer_level();
      if (level > threshold + fluid_detail::kLevelTolerance) {
        const Seconds low_at = now_ + (level - threshold) / -surplus;
        if (low_at < tx_at) p.low_at = low_at;
      }
    }
  }

  void cancel_predicted(Request& request) { pred(request) = Pred{}; }

  /// The fixed-timestep part of the contract: once per grid step, verify
  /// server-level physics from scratch. These are the oracle's own books —
  /// failing here means the oracle (or a shared component) is broken, so
  /// throw std::logic_error rather than reporting an engine mismatch.
  void sanity_sweep() const {
    for (const Server& s : servers_) {
      Mbps allocated = 0.0;
      for (const Request* request : s.active_requests()) {
        allocated += request->allocation();
        if (request->buffer_level() < -1e-6 ||
            request->buffer_level() > request->buffer_capacity() + 1e-6) {
          std::ostringstream oss;
          oss << "oracle self-check: buffer out of bounds on request "
              << request->id();
          throw std::logic_error(oss.str());
        }
      }
      if (allocated > s.bandwidth() + 1e-6) {
        std::ostringstream oss;
        oss << "oracle self-check: server " << s.id() << " allocates " << allocated
            << " Mb/s over a " << s.bandwidth() << " Mb/s link";
        throw std::logic_error(oss.str());
      }
    }
  }

  const SimulationConfig& config_;
  const RequestTrace& trace_;
  Seconds step_;
  Seconds duration_;
  Metrics metrics_;

  VideoCatalog catalog_;
  std::vector<Server> servers_;
  ReplicaDirectory directory_;
  std::unique_ptr<AdmissionController> controller_;
  std::unique_ptr<BandwidthScheduler> scheduler_;
  std::unique_ptr<ReplicationManager> replication_;
  ClientProfile profile_;
  std::vector<FaultTransition> failures_;

  std::deque<Request> requests_;  // stable addresses, like the engine's arena
  std::deque<Pred> preds_;        // parallel to requests_, indexed by id
  std::vector<Timer> timers_;
  RequestId next_request_id_ = 0;
  std::size_t trace_index_ = 0;
  std::size_t failure_index_ = 0;
  std::uint64_t continuity_violations_ = 0;
  Seconds now_ = 0.0;
};

}  // namespace

bool oracle_supports(const SimulationConfig& config) {
  // Interactivity: pause/resume RNG draws interleave with the event order,
  // which the oracle does not replicate draw for draw. Buffer-aware
  // admission: feasibility reads per-stream staged cover at whatever
  // staleness the engine's lazy advancement left it — a quantity defined by
  // the engine's exact recompute pattern, not by the fluid model. Everything
  // else reproduces the engine bit for bit.
  // Fault-taxonomy extensions (brownout shedding, partitions, retry
  // re-admission, repair replication, scripted schedules) drive
  // engine-private state the oracle does not model; crash/repair at server
  // or group scope stays in scope. Any process of the fault_processes()
  // table outside that shape is excluded, so a new row cannot slip in
  // unchecked. Failure-domain topology: domain_spread's topology-aware
  // install is engine-side — any topology-enabled config is
  // auditor/differential-only.
  for (const FaultProcessRow& process : fault_processes()) {
    const bool crash = process.begin_kind == FaultTransitionKind::kDown &&
                       (process.scope == FaultScope::kServer ||
                        process.scope == FaultScope::kGroup);
    if (process.process(config.failure).enabled && !crash) return false;
  }
  return !config.interactivity.enabled && !config.admission.buffer_aware &&
         !config.failure.retry.enabled && !config.failure.repair.enabled &&
         config.scripted_faults.empty() && !config.topology.enabled;
}

RequestTrace engine_trace(const SimulationConfig& config) {
  const SeedPlan seeds = SeedPlan::derive(config.seed);
  std::unique_ptr<PopularityModel> popularity;
  if (config.drift.enabled) {
    popularity = std::make_unique<DriftingZipfPopularity>(
        config.system.num_videos, config.zipf_theta, config.drift.period,
        config.drift.step);
  } else {
    popularity = std::make_unique<StaticZipfPopularity>(config.system.num_videos,
                                                        config.zipf_theta);
  }
  RequestGenerator generator(PoissonProcess(config.arrival_rate()), *popularity,
                             seeds.arrival);
  return RequestTrace::record_until(generator, config.duration);
}

OracleResult run_reference(const SimulationConfig& config,
                           const RequestTrace& trace, Seconds max_step) {
  if (!oracle_supports(config)) {
    throw std::invalid_argument(
        "run_reference: config uses features outside the oracle's scope");
  }
  Oracle oracle(config, trace, max_step);
  return oracle.run();
}

std::string compare_against_engine(const VodSimulation& engine,
                                   const OracleResult& oracle) {
  std::ostringstream oss;
  auto count = [&oss](const char* name, std::uint64_t engine_value,
                      std::uint64_t oracle_value) {
    if (engine_value != oracle_value) {
      oss << name << ": engine " << engine_value << " vs oracle " << oracle_value
          << "; ";
    }
  };
  auto fluid = [&oss](const char* name, double engine_value, double oracle_value) {
    const double tolerance =
        1e-9 + 1e-9 * std::max(std::abs(engine_value), std::abs(oracle_value));
    if (std::abs(engine_value - oracle_value) > tolerance) {
      oss.precision(17);
      oss << name << ": engine " << engine_value << " vs oracle " << oracle_value
          << "; ";
    }
  };

  const Metrics& metrics = engine.metrics();
  count("arrivals", metrics.arrivals(), oracle.arrivals);
  count("accepts", metrics.accepts(), oracle.accepts);
  count("rejects", metrics.rejects(), oracle.rejects);
  count("migration_steps", metrics.migration_steps(), oracle.migration_steps);
  count("completions", metrics.completions(), oracle.completions);
  count("drops", metrics.drops(), oracle.drops);
  count("underflow_events", metrics.underflow_events(), oracle.underflow_events);
  count("replications", metrics.replications(), oracle.replications);
  count("continuity_violations", engine.continuity_violations(),
        oracle.continuity_violations);
  fluid("utilization", metrics.utilization(), oracle.utilization);
  fluid("rejection_ratio", metrics.rejection_ratio(), oracle.rejection_ratio);
  fluid("transmitted", metrics.transmitted(), oracle.transmitted);
  fluid("underflow_megabits", metrics.underflow_megabits(),
        oracle.underflow_megabits);
  return oss.str();
}

}  // namespace vodsim
