#include "replay.h"

#include <algorithm>
#include <cmath>
#include <memory>
#include <string>
#include <vector>

#include "vodsim/admission/controller.h"
#include "vodsim/admission/migration.h"
#include "vodsim/analysis/bounds.h"
#include "vodsim/des/event_queue.h"
#include "vodsim/fault/retry_queue.h"
#include "vodsim/placement/domain_spread.h"
#include "vodsim/placement/partial_predictive.h"
#include "vodsim/sched/scheduler.h"
#include "vodsim/workload/drift.h"

namespace suite {

using namespace vodsim;

namespace {

constexpr int kRounds = 7;

/// Results of timed calls feed this sink so the calls cannot be elided.
volatile double g_sink = 0.0;

/// One warm-up round, then kRounds timed rounds of \p calls calls each;
/// returns the median seconds per call and records the whole replay as
/// one span.
template <typename Round>
double per_call(const std::string& name, SpanLog& spans, std::size_t calls,
                Round&& round) {
  const Clock::time_point span_start = Clock::now();
  round();
  std::vector<double> seconds;
  for (int r = 0; r < kRounds; ++r) {
    const Clock::time_point start = Clock::now();
    round();
    seconds.push_back(seconds_between(start, Clock::now()) /
                      static_cast<double>(calls));
  }
  spans.close(name, "replay", span_start);
  return median(seconds);
}

/// Videos of the last arrivals in the trace: the demand the run ended on.
std::vector<VideoId> tail_videos(const RequestTrace& trace, std::size_t count) {
  std::vector<VideoId> videos;
  const std::size_t first = trace.size() > count ? trace.size() - count : 0;
  for (std::size_t i = first; i < trace.size(); ++i) {
    videos.push_back(trace[i].video);
  }
  return videos;
}

/// The event queue at the size the run ended with. Scheduled events land
/// before every resident one, so the pops that follow remove exactly them
/// and each round starts from the same population.
void replay_event_queue(std::size_t pending, SpanLog& spans, JsonLine& out) {
  constexpr std::size_t kBatch = 4096;
  const std::size_t resident = std::max<std::size_t>(pending, 1);
  const Clock::time_point span_start = Clock::now();
  EventQueue queue;
  queue.reserve(resident + kBatch);
  Rng rng(7);
  std::vector<EventId> ids(resident);
  for (EventId& id : ids) id = queue.schedule(rng.uniform(1e6, 2e6), [](Seconds) {});
  std::vector<std::size_t> order(resident);
  for (std::size_t i = 0; i < resident; ++i) order[i] = i;
  const std::size_t cancels = std::min(resident, kBatch);

  std::vector<double> schedule_s, pop_s, reschedule_s, cancel_s;
  for (int r = 0; r <= kRounds; ++r) {
    Clock::time_point start = Clock::now();
    for (std::size_t i = 0; i < kBatch; ++i) {
      queue.schedule(rng.uniform(0.0, 1e6), [](Seconds) {});
    }
    const double scheduled = seconds_between(start, Clock::now());

    start = Clock::now();
    double popped_time = 0.0;
    for (std::size_t i = 0; i < kBatch; ++i) popped_time += queue.pop().first;
    const double popped = seconds_between(start, Clock::now());
    g_sink = g_sink + popped_time;

    start = Clock::now();
    for (std::size_t i = 0; i < kBatch; ++i) {
      queue.reschedule(ids[rng.uniform_int(resident)], rng.uniform(1e6, 2e6));
    }
    const double rescheduled = seconds_between(start, Clock::now());

    rng.shuffle(order);
    start = Clock::now();
    for (std::size_t i = 0; i < cancels; ++i) queue.cancel(ids[order[i]]);
    const double cancelled = seconds_between(start, Clock::now());
    for (std::size_t i = 0; i < cancels; ++i) {
      ids[order[i]] = queue.schedule(rng.uniform(1e6, 2e6), [](Seconds) {});
    }

    if (r == 0) continue;  // warm-up round
    schedule_s.push_back(scheduled / kBatch);
    pop_s.push_back(popped / kBatch);
    reschedule_s.push_back(rescheduled / kBatch);
    cancel_s.push_back(cancelled / static_cast<double>(cancels));
  }
  spans.close("des.event_queue", "replay", span_start);
  out.add("des.schedule_ns", 1e9 * median(schedule_s));
  out.add("des.pop_ns", 1e9 * median(pop_s));
  out.add("des.reschedule_ns", 1e9 * median(reschedule_s));
  out.add("des.cancel_ns", 1e9 * median(cancel_s));
}

/// The workload's scheduler on every server's end-of-run active set.
void replay_scheduler(const ReplayInputs& in, SpanLog& spans, JsonLine& out) {
  const SimulationConfig& config = in.sim.config();
  const auto scheduler = make_scheduler(config.scheduler);
  const Seconds now = in.sim.simulator().now();
  std::size_t busy = 0;
  for (const Server& server : in.sim.servers()) busy += server.active_count() > 0;
  if (busy == 0) {
    out.add("sched.allocate_us", 0.0);
    return;
  }
  const std::size_t sweeps = (2000 + busy - 1) / busy;
  AllocationScratch scratch;
  std::vector<Mbps> rates;
  const double seconds = per_call("sched.allocate", spans, sweeps * busy, [&] {
    for (std::size_t k = 0; k < sweeps; ++k) {
      for (const Server& server : in.sim.servers()) {
        if (server.active_count() == 0) continue;
        scheduler->allocate(now, server.schedulable_bandwidth(),
                            server.active_requests(), rates, scratch);
        g_sink = g_sink + rates[0];
      }
    }
  });
  out.add("sched.allocate_us", 1e6 * seconds);
}

/// Admission decisions and DRM searches against the end-of-run servers, for
/// the videos the run's last arrivals asked for.
void replay_admission(const ReplayInputs& in, SpanLog& spans, JsonLine& out) {
  const SimulationConfig& config = in.sim.config();
  const std::vector<Server>& servers = in.sim.servers();
  const VideoCatalog& catalog = in.sim.catalog();
  const std::vector<VideoId> videos = tail_videos(in.trace, 512);
  const AdmissionController controller(config.admission, in.sim.directory());
  Rng rng(11);

  const double decide = per_call("admission.decide", spans, videos.size(), [&] {
    for (VideoId video : videos) {
      const AdmissionDecision decision =
          controller.decide(0.0, video, catalog[video].view_bandwidth, servers, rng);
      g_sink = g_sink + static_cast<double>(decision.server);
    }
  });
  out.add("admission.decide_us", 1e6 * decide);

  // The search runs only when no holder can admit directly; keep the videos
  // that meet that precondition, falling back to all of them on a snapshot
  // with no saturated title.
  std::vector<VideoId> saturated;
  for (VideoId video : videos) {
    bool direct = false;
    for (ServerId holder : in.sim.directory().holders(video)) {
      const Server& server = servers[static_cast<std::size_t>(holder)];
      direct = direct || (server.serviceable() &&
                          controller.feasible(server, catalog[video].view_bandwidth));
    }
    if (!direct) saturated.push_back(video);
  }
  if (saturated.empty()) saturated = videos;

  for (int chain : {1, 2}) {
    MigrationConfig migration = config.admission.migration;
    migration.enabled = true;
    migration.max_chain_length = chain;
    MigrationSearchScratch scratch;
    const std::string name = "admission.search_chain" + std::to_string(chain);
    const double seconds = per_call(name, spans, saturated.size(), [&] {
      for (VideoId video : saturated) {
        const auto plan =
            find_migration_plan(video, catalog[video].view_bandwidth, migration,
                                servers, in.sim.directory().all(), scratch);
        g_sink = g_sink + (plan ? 1.0 : 0.0);
      }
    });
    out.add(name + "_us", 1e6 * seconds);
  }
}

/// Request::advance on a synthetic server holding the workload's mean
/// per-server population, with its videos and client profile.
void replay_advance(const ReplayInputs& in, SpanLog& spans, JsonLine& out) {
  const SimulationConfig& config = in.sim.config();
  const std::size_t streams = static_cast<std::size_t>(
      std::max(1.0, std::round(in.streams_per_server)));
  const std::vector<VideoId> videos = tail_videos(in.trace, streams);
  const ClientProfile client{config.staging_capacity(),
                             config.client.receive_bandwidth};
  const Mbps view = config.system.view_bandwidth;
  const Mbps rate = client.buffer_capacity > 0.0
                        ? std::min(client.receive_bandwidth, 2.0 * view)
                        : view;
  Server server(0, rate * static_cast<double>(streams) + 60.0, 1e12);
  std::vector<std::unique_ptr<Request>> owner;
  Rng rng(13);
  for (std::size_t i = 0; i < streams; ++i) {
    const Video& video = in.sim.catalog()[videos[i % videos.size()]];
    owner.push_back(std::make_unique<Request>(static_cast<RequestId>(i), video,
                                              0.0, client));
    Request& request = *owner.back();
    request.begin_streaming(0.0, 0);
    server.attach(request);
    request.set_allocation(0.0, rate);
    request.advance(rng.uniform(1.0, 60.0));
  }
  Seconds now = 60.0;
  const std::size_t steps = (20000 + streams - 1) / streams;
  const double seconds = per_call("cluster.advance", spans, steps * streams, [&] {
    for (std::size_t k = 0; k < steps; ++k) {
      now += 1e-4;
      for (Request* request : server.active_requests()) {
        g_sink = g_sink + request->advance(now);
      }
    }
  });
  out.add("cluster.advance_ns", 1e9 * seconds);
}

/// RetryQueue filled to its bound and drained, at the workload's retry
/// settings (the defaults where retry is off).
void replay_retry(const ReplayInputs& in, SpanLog& spans, JsonLine& out) {
  const RetryConfig& configured = in.sim.config().failure.retry;
  const RetryConfig config = configured.enabled ? configured : RetryConfig{};
  RetryQueue queue(config);
  const std::size_t fills = (20000 + config.max_queue - 1) / config.max_queue;
  const double seconds =
      per_call("fault.retry", spans, fills * config.max_queue, [&] {
        for (std::size_t k = 0; k < fills; ++k) {
          for (std::size_t i = 0; i < config.max_queue; ++i) {
            RetryEntry entry;
            entry.request = static_cast<RequestId>(i);
            entry.video = 0;
            entry.view_bandwidth = 3.0;
            entry.next_attempt = static_cast<double>(i);
            queue.push(entry);
          }
          g_sink = g_sink + static_cast<double>(queue.take_due(1e18, true).size());
        }
      });
  out.add("fault.retry_op_ns", 1e9 * seconds);
}

/// World-construction pieces of every cell: placement and the analytic
/// bounds, summed over cells.
void replay_setup(const ReplayInputs& in, SpanLog& spans, JsonLine& out) {
  const VideoCatalog& catalog = in.sim.catalog();
  const Clock::time_point span_start = Clock::now();
  std::vector<double> place_s, bounds_s;
  for (int r = 0; r <= kRounds; ++r) {
    double place = 0.0;
    double bounds = 0.0;
    for (const SimulationConfig& config : in.workload.cells) {
      const std::vector<double> popularity =
          StaticZipfPopularity(config.system.num_videos, config.zipf_theta)
              .probabilities(0.0);
      std::vector<Server> servers = make_servers(config.system);
      std::unique_ptr<PlacementPolicy> policy;
      if (config.placement.kind == PlacementKind::kDomainSpread) {
        policy = std::make_unique<DomainSpreadPlacement>(
            Topology(config.topology, config.system.num_servers));
      } else if (config.placement.kind == PlacementKind::kPartialPredictive) {
        policy = std::make_unique<PartialPredictivePlacement>(
            config.placement.partial_head_fraction,
            config.placement.partial_tail_shift);
      } else {
        policy = make_placement(config.placement.kind);
      }
      Rng rng(SeedPlan::derive(config.seed).placement);
      Clock::time_point start = Clock::now();
      const PlacementResult placed = policy->place(
          catalog, popularity, config.system.avg_copies, servers, rng);
      place += seconds_between(start, Clock::now());
      const ReplicaDirectory directory(catalog.size(), servers);
      start = Clock::now();
      const BoundsReport report =
          compute_bounds(config, catalog, popularity, directory, servers);
      bounds += seconds_between(start, Clock::now());
      g_sink = g_sink + report.utilization_upper + placed.placed_total;
    }
    if (r == 0) continue;  // warm-up round
    place_s.push_back(place);
    bounds_s.push_back(bounds);
  }
  spans.close("setup.place_and_bounds", "replay", span_start);
  out.add("placement.place_s", median(place_s));
  out.add("analysis.bounds_s", median(bounds_s));
}

}  // namespace

void run_replays(const ReplayInputs& inputs, SpanLog& spans, JsonLine& out) {
  const Clock::time_point start = Clock::now();
  replay_event_queue(inputs.pending_events, spans, out);
  replay_scheduler(inputs, spans, out);
  replay_admission(inputs, spans, out);
  replay_advance(inputs, spans, out);
  replay_retry(inputs, spans, out);
  replay_setup(inputs, spans, out);
  spans.close("replay", "", start);
}

}  // namespace suite
