/// \file micro.cpp
/// \brief M1: microbenchmarks of the simulator's hot paths
/// (google-benchmark). These guard the performance properties that make
/// paper-scale runs (5 x 1000 h) cheap: O(log n) event handling, near-linear
/// EFTF recomputation, O(log n) Zipf sampling, and — after the
/// allocation-free hot-path rework — zero steady-state heap allocations
/// (reported as the `allocs_per_op` counter).

#include <benchmark/benchmark.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <limits>
#include <memory>
#include <new>

#include "vodsim/admission/controller.h"
#include "vodsim/admission/migration.h"
#include "vodsim/des/event_queue.h"
#include "vodsim/des/simulator.h"
#include "vodsim/engine/experiment.h"
#include "vodsim/engine/policy_matrix.h"
#include "vodsim/engine/vod_simulation.h"
#include "vodsim/obs/trace.h"
#include "vodsim/placement/placement.h"
#include "vodsim/sched/eftf.h"
#include "vodsim/sched/finish_order.h"
#include "vodsim/sched/intermittent.h"
#include "vodsim/util/rng.h"
#include "vodsim/workload/catalog.h"
#include "vodsim/workload/zipf.h"

// --- global allocation instrumentation --------------------------------------
// Every global operator new bumps a counter; benchmarks report the delta per
// iteration as `allocs_per_op`. This is how the "steady-state loop performs
// zero heap allocations" property is demonstrated rather than asserted.

static std::atomic<std::uint64_t> g_heap_allocs{0};

static void* counted_alloc(std::size_t size) {
  g_heap_allocs.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size ? size : 1)) return p;
  throw std::bad_alloc();
}

void* operator new(std::size_t size) { return counted_alloc(size); }
void* operator new[](std::size_t size) { return counted_alloc(size); }
void* operator new(std::size_t size, std::align_val_t align) {
  g_heap_allocs.fetch_add(1, std::memory_order_relaxed);
  void* p = nullptr;
  if (posix_memalign(&p, static_cast<std::size_t>(align), size ? size : 1) != 0) {
    throw std::bad_alloc();
  }
  return p;
}
void* operator new[](std::size_t size, std::align_val_t align) {
  return operator new(size, align);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}

namespace {

using namespace vodsim;

std::uint64_t heap_allocs() {
  return g_heap_allocs.load(std::memory_order_relaxed);
}

void report_allocs_per_op(benchmark::State& state, std::uint64_t allocs_before,
                          std::uint64_t ops_per_iteration) {
  const auto delta = static_cast<double>(heap_allocs() - allocs_before);
  const auto ops = static_cast<double>(state.iterations()) *
                   static_cast<double>(ops_per_iteration);
  state.counters["allocs_per_op"] = benchmark::Counter(ops > 0 ? delta / ops : 0);
}

void BM_EventQueueScheduleAndPop(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  Rng rng(1);
  for (auto _ : state) {
    EventQueue queue;
    for (std::size_t i = 0; i < n; ++i) {
      queue.schedule(rng.uniform(0.0, 1000.0), [](Seconds) {});
    }
    while (!queue.empty()) benchmark::DoNotOptimize(queue.pop().first);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n));
}
BENCHMARK(BM_EventQueueScheduleAndPop)->Arg(1000)->Arg(10000)->Arg(100000);

void BM_EventQueueCancelChurn(benchmark::State& state) {
  // The engine's dominant pattern: schedule a predicted event, cancel it,
  // reschedule. Fresh queue per iteration (includes construction cost).
  Rng rng(2);
  for (auto _ : state) {
    EventQueue queue;
    for (int i = 0; i < 10000; ++i) {
      const EventId id = queue.schedule(rng.uniform(0.0, 1000.0), [](Seconds) {});
      queue.cancel(id);
    }
    benchmark::DoNotOptimize(queue.empty());
  }
  state.SetItemsProcessed(state.iterations() * 10000);
}
BENCHMARK(BM_EventQueueCancelChurn);

void BM_EventQueueSteadyChurn(benchmark::State& state) {
  // Steady-state churn against a *persistent* queue holding a realistic
  // pending population: each op cancels one live predicted event and
  // schedules its replacement, exactly the reallocation pattern of
  // VodSimulation::reschedule_predicted_events. After warmup this must not
  // allocate at all (allocs_per_op ~ 0): the slab reuses slots and eager
  // cancel removes heap entries in place.
  const std::size_t population = 4096;
  EventQueue queue;
  Rng rng(7);
  std::vector<EventId> pending;
  pending.reserve(population);
  Seconds t = 0.0;
  for (std::size_t i = 0; i < population; ++i) {
    pending.push_back(queue.schedule(t + rng.uniform(0.0, 100.0), [](Seconds) {}));
  }
  // Warm the churn path (grows the heap and slab to their steady
  // footprints) before counting allocations.
  std::size_t cursor = 0;
  for (int i = 0; i < 200000; ++i) {
    queue.cancel(pending[cursor]);
    pending[cursor] = queue.schedule(t + rng.uniform(0.0, 100.0), [](Seconds) {});
    cursor = (cursor + 1) % population;
  }
  const std::uint64_t allocs_before = heap_allocs();
  for (auto _ : state) {
    queue.cancel(pending[cursor]);
    pending[cursor] = queue.schedule(t + rng.uniform(0.0, 100.0), [](Seconds) {});
    cursor = (cursor + 1) % population;
  }
  state.SetItemsProcessed(state.iterations());
  report_allocs_per_op(state, allocs_before, 1);
}
BENCHMARK(BM_EventQueueSteadyChurn);

void BM_EventQueueRetimeChurn(benchmark::State& state) {
  // Same persistent population as BM_EventQueueSteadyChurn, but each op
  // *retimes* a live predicted event in place (EventQueue::reschedule)
  // instead of cancelling and scheduling a replacement. This is what
  // VodSimulation::reschedule_predicted_events does when a prediction
  // merely moves: no dead entry left in the heap, no slab slot turnover,
  // one sift instead of a lazy-pop plus push.
  const std::size_t population = 4096;
  EventQueue queue;
  Rng rng(7);
  std::vector<EventId> pending;
  pending.reserve(population);
  Seconds t = 0.0;
  for (std::size_t i = 0; i < population; ++i) {
    pending.push_back(queue.schedule(t + rng.uniform(0.0, 100.0), [](Seconds) {}));
  }
  std::size_t cursor = 0;
  for (int i = 0; i < 200000; ++i) {  // warm, as in the churn benchmark
    queue.reschedule(pending[cursor], t + rng.uniform(0.0, 100.0));
    cursor = (cursor + 1) % population;
  }
  const std::uint64_t allocs_before = heap_allocs();
  for (auto _ : state) {
    queue.reschedule(pending[cursor], t + rng.uniform(0.0, 100.0));
    cursor = (cursor + 1) % population;
  }
  state.SetItemsProcessed(state.iterations());
  report_allocs_per_op(state, allocs_before, 1);
}
BENCHMARK(BM_EventQueueRetimeChurn);

void BM_EftfAllocate(benchmark::State& state) {
  // EFTF's allocation pass over a server's active list, as the engine
  // hands it over (cache-less: the full-sort path).
  const auto n = static_cast<std::size_t>(state.range(0));
  Rng rng(3);
  Video video;
  video.id = 0;
  video.duration = 3600.0;
  video.view_bandwidth = 3.0;
  ClientProfile client{1000.0, 30.0};
  const Mbps capacity = 3.0 * static_cast<double>(n) + 60.0;
  Server server(0, capacity, 1e12);
  std::vector<std::unique_ptr<Request>> owner;
  for (std::size_t i = 0; i < n; ++i) {
    owner.push_back(std::make_unique<Request>(static_cast<RequestId>(i), video,
                                              0.0, client));
    Request& request = *owner.back();
    request.begin_streaming(0.0, 0);
    server.attach(request);
    request.set_allocation(0.0, 3.0);
    request.advance(rng.uniform(1.0, 600.0));  // spread remaining data
  }
  const std::vector<Request*>& active = server.active_requests();
  const FinishTimeScheduler scheduler(/*earliest_first=*/true);
  std::vector<Mbps> rates;
  AllocationScratch scratch;
  scheduler.allocate(600.0, capacity, active, rates, scratch);
  const std::uint64_t allocs_before = heap_allocs();
  for (auto _ : state) {
    scheduler.allocate(600.0, capacity, active, rates, scratch);
    benchmark::DoNotOptimize(rates.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n));
  report_allocs_per_op(state, allocs_before, 1);
}
BENCHMARK(BM_EftfAllocate)->Arg(10)->Arg(33)->Arg(100)->Arg(300);

namespace {

/// Attaches \p n steady-state streams to \p server, for the recompute and
/// fill_* kernel benches (identical population to BM_FluidAdvanceBatch). The
/// requests bind to the server's lane, so the server must outlive them in
/// place — hence populate-in-place rather than return-by-value.
void populate_server(Server& server, std::size_t n,
                     std::vector<std::unique_ptr<Request>>& owner) {
  Rng rng(5);
  Video video;
  video.id = 0;
  video.duration = 2.0 * 3600.0;
  video.view_bandwidth = 3.0;
  ClientProfile client{0.2 * video.size(), 30.0};
  for (std::size_t i = 0; i < n; ++i) {
    owner.push_back(std::make_unique<Request>(static_cast<RequestId>(i), video,
                                              0.0, client));
    Request& request = *owner.back();
    request.begin_streaming(0.0, 0);
    server.attach(request);
    request.set_allocation(0.0, 3.0);
    request.advance(rng.uniform(1.0, 600.0));
  }
}

/// The engine's predicted-event timer (VodSimulation::set_predictions /
/// sync_prediction_timer), replicated through public APIs for the
/// recompute benchmarks: prediction keys live in the server's lane, and the
/// queue holds one timer at the earliest of them. The holder is a slot
/// here — the benchmarks never detach, so slots never move.
struct PredictionTimer {
  EventId timer = kInvalidEventId;
  EventKey armed = kNoEventKey;
  EventKey earliest = kNoEventKey;
  std::size_t holder = 0;
  bool stale = false;

  void write(FluidLane& lane, std::size_t slot, const PredictionKeys& keys) {
    const EventKey slot_earliest = lane.set_predictions(slot, keys);
    if (stale) return;
    if (slot_earliest < earliest) {
      earliest = slot_earliest;
      holder = slot;
    } else if (holder == slot) {
      stale = true;
    }
  }

  void sync(EventQueue& queue, const FluidLane& lane) {
    if (stale) {
      holder = lane.earliest_slot();
      earliest = holder == lane.size() ? kNoEventKey : lane.earliest_prediction(holder);
      stale = false;
    }
    if (earliest == armed) return;
    armed = earliest;
    if (!armed.live()) {
      queue.cancel(timer);
      timer = kInvalidEventId;
    } else if (!queue.rekey(timer, armed.time, armed.seq)) {
      timer = queue.schedule_keyed(armed.time, armed.seq, [](Seconds) {});
    }
  }
};

}  // namespace

void BM_RecomputeServer(benchmark::State& state) {
  // The engine's per-event hot loop (VodSimulation::recompute_server),
  // replicated through public APIs: advance every active request on a
  // server, reallocate with EFTF, re-predict the events of requests whose
  // rate changed (exact-compare fast path) as keys in the lane, and sync
  // the server's one predicted-event timer. Arg 0 is the active-stream
  // count; arg 1 selects saturated (slack 0 — the paper's interesting
  // operating point, where the eligible sort is skipped) vs. slack
  // (workahead flowing).
  constexpr Seconds kNever = std::numeric_limits<Seconds>::infinity();
  constexpr Seconds kSafetyCover = 10.0;  // SimulationConfig's default
  const auto n = static_cast<std::size_t>(state.range(0));
  const bool saturated = state.range(1) != 0;
  const Mbps capacity =
      saturated ? 3.0 * static_cast<double>(n) : 3.0 * static_cast<double>(n) + 60.0;
  Server server(0, capacity, 1e12);
  std::vector<std::unique_ptr<Request>> owner;
  populate_server(server, n, owner);
  const std::vector<Request*>& active = server.active_requests();
  FluidLane& lane = server.lane();
  const FinishTimeScheduler scheduler(/*earliest_first=*/true);
  EventQueue queue;
  PredictionTimer timer;
  std::vector<Mbps> rates;
  AllocationScratch scratch;
  SchedCache cache;
  Seconds now = 600.0;

  auto recompute = [&](Seconds t) {
    for (Request* request : active) request->advance(t);
    scheduler.allocate(t, capacity, active, rates, scratch, &cache);
    for (std::size_t i = 0; i < active.size(); ++i) {
      Request& request = *active[i];
      if (rates[i] == request.allocation()) continue;
      request.set_allocation(t, rates[i]);
      // Engine pattern (reschedule_predicted_events, apply_predicted_times):
      // the slot's predicted times, one seq per kept prediction, one key
      // write per stream, no queue traffic.
      const fluid_detail::PredictedTimes times =
          lane.predicted_times(i, t, kSafetyCover);
      PredictionKeys keys = kNoPredictions;
      if (rates[i] > 0.0) keys[0] = {times.tx_complete, queue.take_seq()};
      if (times.buffer_full != kNever) {
        keys[1] = {times.buffer_full, queue.take_seq()};
      }
      if (times.buffer_low != kNever) {
        keys[2] = {times.buffer_low, queue.take_seq()};
      }
      timer.write(lane, i, keys);
    }
    timer.sync(queue, lane);
  };

  recompute(now);  // warm: initial allocations + predictions
  const std::uint64_t allocs_before = heap_allocs();
  for (auto _ : state) {
    now += 1e-4;  // small fluid step keeps the population in steady state
    recompute(now);
    benchmark::DoNotOptimize(rates.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n));
  report_allocs_per_op(state, allocs_before, 1);
}
BENCHMARK(BM_RecomputeServer)
    ->Args({33, 1})
    ->Args({33, 0})
    ->Args({100, 1})
    ->Args({100, 0})
    ->ArgNames({"streams", "saturated"});

void BM_RecomputeRetime(benchmark::State& state) {
  // Predicted-event upkeep alone, in the sharded_ramp shape: 100 servers of
  // 150 lane-backed streams, one server recomputed per op with 26 of its
  // streams re-predicted (tx-complete plus buffer-full or buffer-low). timer=0
  // is the per-stream design — every prediction its own queue entry,
  // retimed in place — with the whole cluster's predictions in the heap;
  // timer=1 writes lane keys and syncs the server's one timer, with one
  // timer per server in the heap. Both take the same seqs.
  constexpr std::size_t kServers = 100;
  constexpr std::size_t kStreams = 150;
  constexpr std::size_t kChanged = 26;
  const bool use_timer = state.range(0) != 0;
  std::vector<std::unique_ptr<Server>> servers;
  std::vector<std::unique_ptr<Request>> owner;
  for (std::size_t s = 0; s < kServers; ++s) {
    servers.push_back(std::make_unique<Server>(static_cast<ServerId>(s),
                                               3.0 * kStreams + 60.0, 1e12));
    populate_server(*servers.back(), kStreams, owner);
  }
  EventQueue queue;
  std::vector<PredictionTimer> timers(kServers);
  // Per-stream handles, three per stream, for timer=0.
  std::vector<EventId> handles(kServers * kStreams * 3, kInvalidEventId);
  Rng rng(9);
  Seconds now = 600.0;
  std::size_t cursor = 0;

  auto recompute = [&](std::size_t s) {
    for (std::size_t k = 0; k < kChanged; ++k) {
      const std::size_t slot = (cursor++ * 7) % kStreams;
      const bool filling = rng.uniform(0.0, 1.0) < 0.5;
      // tx-complete, then buffer-full or buffer-low, seqs in that order.
      PredictionKeys keys = kNoPredictions;
      keys[0] = {now + rng.uniform(100.0, 10000.0), queue.take_seq()};
      keys[filling ? 1 : 2] = {now + rng.uniform(1.0, 500.0), queue.take_seq()};
      if (use_timer) {
        timers[s].write(servers[s]->lane(), slot, keys);
        continue;
      }
      for (std::size_t kind = 0; kind < keys.size(); ++kind) {
        EventId& id = handles[(s * kStreams + slot) * 3 + kind];
        if (!keys[kind].live()) {
          queue.cancel(id);
          id = kInvalidEventId;
        } else if (!queue.rekey(id, keys[kind].time, keys[kind].seq)) {
          id = queue.schedule_keyed(keys[kind].time, keys[kind].seq,
                                    [](Seconds) {});
        }
      }
    }
    if (use_timer) timers[s].sync(queue, servers[s]->lane());
  };

  for (std::size_t s = 0; s < kServers * 6; ++s) recompute(s % kServers);  // warm
  const std::uint64_t allocs_before = heap_allocs();
  std::size_t server = 0;
  for (auto _ : state) {
    now += 1e-3;
    recompute(server);
    server = (server + 1) % kServers;
  }
  benchmark::DoNotOptimize(queue.size());
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(kChanged));
  report_allocs_per_op(state, allocs_before, 1);
}
BENCHMARK(BM_RecomputeRetime)->Arg(0)->Arg(1)->ArgName("timer");

void BM_RecomputeSingleStreamDelta(benchmark::State& state) {
  // The ordering kernel of recompute_server, isolated, under the engine's
  // dominant delta: one stream changed since the previous pass, everyone
  // else is where the last grant left them. incremental=1 is what ships —
  // sort_by_projected_finish repairing the previous grant order through a
  // warm SchedCache. incremental=0 is the pre-cache reference: a full
  // std::sort evaluating projected_finish inside the comparator.
  const auto n = static_cast<std::size_t>(state.range(0));
  const bool incremental = state.range(1) != 0;
  Server server(0, 3.0 * static_cast<double>(n) + 60.0, 1e12);
  std::vector<std::unique_ptr<Request>> owner;
  populate_server(server, n, owner);
  const std::vector<Request*>& active = server.active_requests();
  const FluidLane& lane = server.lane();
  AllocationScratch scratch;
  SchedCache cache;
  Seconds now = 600.0;
  std::size_t victim = 0;
  auto fill_order = [&] {
    scratch.order.clear();
    for (std::size_t i = 0; i < n; ++i) scratch.order.push_back(i);
  };
  fill_order();
  sched_detail::sort_by_projected_finish(now, true, active, scratch, &cache);

  const std::uint64_t allocs_before = heap_allocs();
  for (auto _ : state) {
    now += 1e-3;
    active[victim]->advance(now);  // the single delta: one stream moved
    victim = (victim + 1) % n;
    fill_order();
    if (incremental) {
      sched_detail::sort_by_projected_finish(now, /*earliest_first=*/true,
                                             active, scratch, &cache);
    } else {
      std::sort(scratch.order.begin(), scratch.order.end(),
                [&](std::size_t a, std::size_t b) {
                  const Seconds fa = lane.projected_finish(a, now);
                  const Seconds fb = lane.projected_finish(b, now);
                  if (fa != fb) return fa < fb;
                  return active[a]->id() < active[b]->id();
                });
    }
    benchmark::DoNotOptimize(scratch.order.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n));
  report_allocs_per_op(state, allocs_before, 1);
}
BENCHMARK(BM_RecomputeSingleStreamDelta)
    ->Args({100, 0})
    ->Args({100, 1})
    ->Args({300, 0})
    ->Args({300, 1})
    ->ArgNames({"streams", "incremental"});

void BM_TraceRecorderRecord(benchmark::State& state) {
  // Cost of one enabled-path trace emission: a bounds-masked store into the
  // preallocated ring. Steady state (including ring wrap-around) must not
  // allocate.
  TraceConfig config;
  config.enabled = true;
  config.capacity = 1u << 16;
  TraceRecorder recorder(config);
  Seconds t = 0.0;
  RequestId request = 0;
  const std::uint64_t allocs_before = heap_allocs();
  for (auto _ : state) {
    t += 1e-3;
    recorder.record(t, TraceEventType::kAllocationChange, 0, request++, 0, 3.0,
                    4.5);
    benchmark::DoNotOptimize(recorder.size());
  }
  state.SetItemsProcessed(state.iterations());
  report_allocs_per_op(state, allocs_before, 1);
}
BENCHMARK(BM_TraceRecorderRecord);

/// A saturated large-system cluster for the migration-search benches: the
/// paper's large system (20 x 300 Mb/s, 200 titles of 1-2 h at 3 Mb/s, 2.2
/// copies per title, even placement), each server filled to its link with
/// 100 streams drawn by theta = -0.5 popularity over the titles it holds.
/// No holder can admit anything directly and no target has room, so every
/// search is a failing DRM fallback, as 99.5% of them are on a
/// theta = -0.5 chain-2 run. Members are declared so that the requests die
/// before the servers whose lanes they are bound to.
struct SaturatedCluster {
  VideoCatalog catalog;
  std::vector<Server> servers;
  std::vector<std::unique_ptr<Request>> requests;
  ReplicaDirectory directory;

  SaturatedCluster() {
    const SystemConfig system = SystemConfig::large_system();
    Rng rng(2001);
    catalog = generate_catalog(CatalogSpec{system.num_videos, system.video_min_duration,
                                           system.video_max_duration,
                                           system.view_bandwidth},
                               rng);
    servers.reserve(static_cast<std::size_t>(system.num_servers));
    for (int s = 0; s < system.num_servers; ++s) {
      servers.emplace_back(static_cast<ServerId>(s), system.server_bandwidth,
                           system.server_storage);
    }
    const ZipfDistribution zipf(system.num_videos, -0.5);
    make_placement(PlacementKind::kEven)
        ->place(catalog, zipf.probabilities(), system.avg_copies, servers, rng);
    const ClientProfile client{0.2 * catalog.mean_size(), 30.0};
    std::vector<double> weights;
    for (Server& server : servers) {
      weights.clear();
      for (VideoId video : server.replicas()) {
        weights.push_back(zipf.pmf(static_cast<std::size_t>(video)));
      }
      while (!weights.empty() && server.can_admit(system.view_bandwidth)) {
        const VideoId video = server.replicas()[rng.weighted_index(weights)];
        requests.push_back(std::make_unique<Request>(
            static_cast<RequestId>(requests.size()), catalog[video], 0.0, client));
        requests.back()->begin_streaming(0.0, server.id());
        server.attach(*requests.back());
      }
    }
    directory = ReplicaDirectory(catalog.size(), servers);
  }
};

void migration_search(benchmark::State& state, int chain) {
  // One find_migration_plan per op, cycling through every title, through
  // one persistent scratch as the admission controller holds it.
  // nodes_per_op is the (victim, target) pairs charged to the budget.
  const SaturatedCluster cluster;
  MigrationConfig config;
  config.enabled = true;
  config.max_chain_length = chain;
  MigrationSearchScratch scratch;
  const std::size_t titles = cluster.catalog.size();
  auto search = [&](std::size_t i) {
    const auto video = static_cast<VideoId>(i % titles);
    return find_migration_plan(video, cluster.catalog[video].view_bandwidth, config,
                               cluster.servers, cluster.directory.all(), scratch)
        .has_value();
  };
  for (std::size_t i = 0; i < titles; ++i) search(i);  // warm the scratch
  std::size_t cursor = 0;
  std::int64_t nodes = 0;
  const std::uint64_t allocs_before = heap_allocs();
  for (auto _ : state) {
    bool found = search(cursor++);
    benchmark::DoNotOptimize(found);
    nodes += scratch.nodes_explored;
  }
  state.SetItemsProcessed(state.iterations());
  report_allocs_per_op(state, allocs_before, 1);  // before adding a counter allocates
  state.counters["nodes_per_op"] = benchmark::Counter(
      static_cast<double>(nodes) / static_cast<double>(std::max<std::int64_t>(
                                       state.iterations(), 1)));
}

void BM_MigrationSearchChain1(benchmark::State& state) { migration_search(state, 1); }
BENCHMARK(BM_MigrationSearchChain1);

void BM_MigrationSearchChain2(benchmark::State& state) { migration_search(state, 2); }
BENCHMARK(BM_MigrationSearchChain2);

void BM_RetryBatchDecide(benchmark::State& state) {
  // A forced retry batch: 256 queued re-admissions drawn by theta = -0.5
  // popularity (titles repeat, as they do in a real queue) decided in turn
  // against the saturated cluster, where every one fails after a chain-1
  // DRM search. held=1 is what ships: the controller keeps the search memo
  // across the batch (begin_batch/end_batch), so a title that already
  // failed replays its last-level walks. held=0 starts every search from
  // an empty memo, as each arrival does. Decisions are identical either way.
  const bool held = state.range(0) != 0;
  const SaturatedCluster cluster;
  AdmissionConfig config;
  config.migration.enabled = true;
  const AdmissionController controller(config, cluster.directory);
  const ZipfDistribution zipf(cluster.catalog.size(), -0.5);
  Rng draw(7);
  std::vector<VideoId> batch(256);
  for (VideoId& video : batch) video = static_cast<VideoId>(zipf.sample(draw));
  Rng rng(1);
  auto run_batch = [&] {
    if (held) controller.begin_batch();
    std::size_t accepted = 0;
    for (const VideoId video : batch) {
      accepted += controller
                      .decide(0.0, video, cluster.catalog[video].view_bandwidth,
                              cluster.servers, rng)
                      .accepted;
    }
    if (held) controller.end_batch();
    return accepted;
  };
  run_batch();  // warm the scratch
  const std::uint64_t allocs_before = heap_allocs();
  for (auto _ : state) {
    std::size_t accepted = run_batch();
    benchmark::DoNotOptimize(accepted);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(batch.size()));
  report_allocs_per_op(state, allocs_before, batch.size());
}
BENCHMARK(BM_RetryBatchDecide)->Arg(0)->Arg(1)->ArgName("held");

/// One lane-backed server shaped like the sharded headline workload's: 150
/// streams of 1.5 Mb/s views with 4.5 Mb/s receive caps and staging
/// buffers of a quarter of a 20-minute title, fill levels spread from
/// empty (urgent under the intermittent scheduler's 10 s safety cover) to
/// full, and remaining data spread over the title.
struct IntermittentServer {
  Server server{0, 1500.0, 1e12};  // declared first: streams die before its lane
  std::vector<std::unique_ptr<Request>> requests;
  Seconds now = 600.0;

  explicit IntermittentServer(std::size_t n) {
    Rng rng(17);
    Video video;
    video.id = 0;
    video.duration = 2000.0;
    video.view_bandwidth = 1.5;
    const ClientProfile client{0.25 * 1200.0 * 1.5, 4.5};
    for (std::size_t i = 0; i < n; ++i) {
      requests.push_back(std::make_unique<Request>(static_cast<RequestId>(i), video,
                                                   0.0, client));
      Request& request = *requests.back();
      request.begin_streaming(0.0, 0);
      // A prefix of up to 4.5 Mb/s over [0, now) leaves 0..450 Mb staged.
      request.set_allocation(0.0, rng.uniform(1.5, 2.2));
      request.advance(now);
      request.set_allocation(now, 0.0);
      server.attach(request, /*enforce_capacity=*/false);
    }
  }
};

void BM_IntermittentAllocate(benchmark::State& state) {
  // The intermittent scheduler's allocation pass on a lane-backed server,
  // through a warm SchedCache as recompute_server runs it. slack=1 gives
  // the link room for every stream at its receive cap, so phase 2 grants
  // every candidate its full room and (with order_free=1, what ships) skips
  // the earliest-finish sort; order_free=0 always sorts, the reference.
  // slack=0 is a crunch: the drains fit but workahead does not, so the
  // sorted greedy runs either way.
  const auto n = static_cast<std::size_t>(state.range(0));
  const bool slack = state.range(1) != 0;
  const IntermittentScheduler scheduler(10.0, state.range(2) != 0);
  IntermittentServer fixture(n);
  const Mbps capacity =
      static_cast<double>(n) * (slack ? 4.5 * 1.2 : 1.5 * 1.3);
  const std::vector<Request*>& active = fixture.server.active_requests();
  std::vector<Mbps> rates;
  AllocationScratch scratch;
  SchedCache cache;
  scheduler.allocate(fixture.now, capacity, active, rates, scratch, &cache);
  const std::uint64_t allocs_before = heap_allocs();
  for (auto _ : state) {
    scheduler.allocate(fixture.now, capacity, active, rates, scratch, &cache);
    benchmark::DoNotOptimize(rates.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n));
  report_allocs_per_op(state, allocs_before, 1);
}
BENCHMARK(BM_IntermittentAllocate)
    ->Args({150, 1, 1})
    ->Args({150, 1, 0})
    ->Args({150, 0, 1})
    ->ArgNames({"streams", "slack", "order_free"});

void BM_BufferAwareDecide(benchmark::State& state) {
  // Buffer-aware admission on the sharded headline shape: ten 1500 Mb/s
  // servers, each holding every title and streaming 150 intermittent
  // streams, so each decide() scans every holder's near-term need over its
  // lane (no holder is full: the first step always succeeds).
  constexpr int kServers = 10;
  std::vector<Server> servers;
  servers.reserve(kServers);
  Video video;
  video.id = 0;
  video.duration = 2000.0;
  video.view_bandwidth = 1.5;
  for (int s = 0; s < kServers; ++s) {
    servers.emplace_back(static_cast<ServerId>(s), 1500.0, 1e12);
    servers.back().add_replica(video);
  }
  // Declared after the servers, so the streams die before the lanes they
  // are bound to.
  Rng rng(23);
  std::vector<std::unique_ptr<Request>> requests;
  const ClientProfile client{0.25 * 1200.0 * 1.5, 4.5};
  for (Server& server : servers) {
    for (int i = 0; i < 150; ++i) {
      requests.push_back(std::make_unique<Request>(
          static_cast<RequestId>(requests.size()), video, 0.0, client));
      Request& request = *requests.back();
      request.begin_streaming(0.0, server.id());
      request.set_allocation(0.0, rng.uniform(1.5, 2.2));
      request.advance(600.0);
      request.set_allocation(600.0, 0.0);
      server.attach(request, /*enforce_capacity=*/false);
    }
  }
  const ReplicaDirectory directory(1, servers);
  AdmissionConfig config;
  config.buffer_aware = true;
  const AdmissionController controller(config, directory);
  Rng pick(1);
  const std::uint64_t allocs_before = heap_allocs();
  for (auto _ : state) {
    const AdmissionDecision decision = controller.decide(600.0, 0, 1.5, servers, pick);
    benchmark::DoNotOptimize(decision.server);
  }
  state.SetItemsProcessed(state.iterations());
  report_allocs_per_op(state, allocs_before, 1);
}
BENCHMARK(BM_BufferAwareDecide);

void BM_ZipfSample(benchmark::State& state) {
  ZipfDistribution zipf(static_cast<std::size_t>(state.range(0)), 0.271);
  Rng rng(4);
  for (auto _ : state) benchmark::DoNotOptimize(zipf.sample(rng));
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ZipfSample)->Arg(200)->Arg(2000);

void BM_PlacementLargeCatalog(benchmark::State& state) {
  // One placement solve at the tournament's largest column: 10^4 titles on
  // 5 servers at 2.2 copies, storage scaled to 1.5x the replica budget as
  // vodsim_tournament does, default Zipf skew. Predictive (bsr:0) and BSR
  // (bsr:1) both apportion copies through proportional_copies, and with a
  // cap of 5 copies per title the popular head overflows, so this times
  // its cap redistribution. Each iteration places onto fresh servers
  // (rebuilt outside the timed region).
  const PlacementKind kind =
      state.range(0) != 0 ? PlacementKind::kBsr : PlacementKind::kPredictive;
  SystemConfig system = SystemConfig::small_system();
  system.num_videos = 10000;
  system.num_servers = 5;
  system.avg_copies = 2.2;
  const double mean_size =
      0.5 * (system.video_min_duration + system.video_max_duration) *
      system.view_bandwidth;
  system.server_storage =
      1.5 * 10000.0 * system.avg_copies * mean_size / system.num_servers;
  Rng catalog_rng(7);
  const VideoCatalog catalog = generate_catalog(
      CatalogSpec{system.num_videos, system.video_min_duration,
                  system.video_max_duration, system.view_bandwidth},
      catalog_rng);
  const std::vector<double> popularity =
      ZipfDistribution(system.num_videos, SimulationConfig{}.zipf_theta).probabilities();
  const auto placement = make_placement(kind);
  std::uint64_t seed = 1;
  for (auto _ : state) {
    state.PauseTiming();
    std::vector<Server> servers = make_servers(system);
    Rng rng(seed++);
    state.ResumeTiming();
    benchmark::DoNotOptimize(
        placement->place(catalog, popularity, system.avg_copies, servers, rng));
  }
  state.SetLabel(to_string(kind));
}
BENCHMARK(BM_PlacementLargeCatalog)
    ->Arg(0)
    ->Arg(1)
    ->ArgName("bsr")
    ->Unit(benchmark::kMillisecond);

void BM_FluidAdvanceBatch(benchmark::State& state) {
  // The fluid kernel in isolation: one server's fluid advance across all
  // active streams. batched=0 is a per-stream loop — one Request::advance
  // plus one metering interval per stream, in active order; batched=1 is
  // FluidLane::advance_batch — the same per-slot formulas and the same
  // metering additions in one pass over the struct-of-arrays. Any numeric
  // difference between the two would fail
  // FluidLane.BatchAdvanceIsBitIdenticalToPerStream, so this measures
  // layout and loop structure, nothing else.
  const auto n = static_cast<std::size_t>(state.range(0));
  const bool batched = state.range(1) != 0;
  Rng rng(5);
  Video video;
  video.id = 0;
  video.duration = 2.0 * 3600.0;
  video.view_bandwidth = 3.0;
  ClientProfile client{0.2 * video.size(), 30.0};
  Server server(0, 3.0 * static_cast<double>(n) + 60.0, 1e12);
  std::vector<std::unique_ptr<Request>> owner;
  for (std::size_t i = 0; i < n; ++i) {
    owner.push_back(std::make_unique<Request>(static_cast<RequestId>(i), video,
                                              0.0, client));
    Request& request = *owner.back();
    request.begin_streaming(0.0, 0);
    server.attach(request);
    request.set_allocation(0.0, 3.0);
    request.advance(rng.uniform(1.0, 600.0));
  }
  std::vector<Megabits> scratch;
  Seconds now = 600.0;
  Megabits transmitted = 0.0;

  const std::uint64_t allocs_before = heap_allocs();
  for (auto _ : state) {
    now += 1e-4;  // small fluid step keeps the population in steady state
    if (batched) {
      server.lane().advance_batch(now, 0.0, 1e18, transmitted, scratch);
    } else {
      for (Request* request : server.active_requests()) {
        const Seconds start = request->last_update();
        const Mbps rate = request->allocation();
        request->advance(now);
        if (rate > 0.0 && now > start) transmitted += rate * (now - start);
      }
    }
    benchmark::DoNotOptimize(transmitted);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n));
  report_allocs_per_op(state, allocs_before, 1);
}
BENCHMARK(BM_FluidAdvanceBatch)
    ->Args({100, 0})
    ->Args({100, 1})
    ->Args({300, 0})
    ->Args({300, 1})
    ->Args({1000, 0})
    ->Args({1000, 1})
    ->ArgNames({"streams", "batched"});


void BM_FluidKeyBatch(benchmark::State& state) {
  // The EFTF/LFTF sort-key pass: batched=0 is the per-candidate
  // FluidLane::projected_finish loop sort_by_projected_finish runs when
  // the batch threshold is not met, indexed through a candidate list as
  // there; batched=1 is FluidLane::fill_projected_finish — one
  // division-heavy vector pass over the lane. Same doubles out either way
  // (pinned by FluidLane.FillProjectedFinishMatchesScalar).
  const auto n = static_cast<std::size_t>(state.range(0));
  const bool batched = state.range(1) != 0;
  std::vector<std::unique_ptr<Request>> owner;
  Server server(0, 3.0 * static_cast<double>(n) + 60.0, 1e12);
  populate_server(server, n, owner);
  const FluidLane& lane = server.lane();
  std::vector<std::size_t> candidates(n);
  for (std::size_t i = 0; i < n; ++i) candidates[i] = i;
  std::vector<Seconds> keys(n);
  const Seconds now = 600.0;
  for (auto _ : state) {
    if (batched) {
      lane.fill_projected_finish(now, keys);
    } else {
      for (const std::size_t index : candidates) {
        keys[index] = lane.projected_finish(index, now);
      }
    }
    benchmark::DoNotOptimize(keys.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n));
}
BENCHMARK(BM_FluidKeyBatch)
    ->Args({300, 0})
    ->Args({300, 1})
    ->Args({3000, 0})
    ->Args({3000, 1})
    ->ArgNames({"streams", "batched"});

void BM_FluidRetimeBatch(benchmark::State& state) {
  // The predicted-event retiming arithmetic (PR 9): batched=1 is
  // FluidLane::fill_predicted_times — all three event times for every slot
  // in one pass; batched=0 calls the per-slot FluidLane::predicted_times
  // (the same formula) for every slot, as reschedule_predicted_events does
  // for sparse changes. Neither side schedules events; this isolates the
  // arithmetic the batched recompute_server amortizes.
  const auto n = static_cast<std::size_t>(state.range(0));
  const bool batched = state.range(1) != 0;
  std::vector<std::unique_ptr<Request>> owner;
  Server server(0, 3.0 * static_cast<double>(n) + 60.0, 1e12);
  populate_server(server, n, owner);
  std::vector<Seconds> tx(n), full(n), low(n);
  const Seconds now = 600.0;
  const double safety_cover = 4.0;
  for (auto _ : state) {
    if (batched) {
      server.lane().fill_predicted_times(now, safety_cover, tx, full, low);
    } else {
      const FluidLane& lane = server.lane();
      for (std::size_t i = 0; i < lane.size(); ++i) {
        const fluid_detail::PredictedTimes times =
            lane.predicted_times(i, now, safety_cover);
        tx[i] = times.tx_complete;
        full[i] = times.buffer_full;
        low[i] = times.buffer_low;
      }
    }
    benchmark::DoNotOptimize(tx.data());
    benchmark::DoNotOptimize(full.data());
    benchmark::DoNotOptimize(low.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n));
}
BENCHMARK(BM_FluidRetimeBatch)
    ->Args({300, 0})
    ->Args({300, 1})
    ->Args({3000, 0})
    ->Args({3000, 1})
    ->ArgNames({"streams", "batched"});

void BM_EndToEndSmallSystemHour(benchmark::State& state) {
  // Whole-engine throughput: one simulated hour of the paper's small
  // system per iteration, with migration and staging enabled.
  std::uint64_t events = 0;
  std::uint64_t seed = 1;
  for (auto _ : state) {
    SimulationConfig config;
    config.system = SystemConfig::small_system();
    config.zipf_theta = 0.271;
    config.client.staging_fraction = 0.2;
    config.client.receive_bandwidth = 30.0;
    config.admission.migration.enabled = true;
    config.duration = hours(1);
    config.warmup = 0.0;
    config.seed = seed++;
    VodSimulation simulation(config);
    simulation.run();
    events += simulation.simulator().executed_count();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(events));
  state.SetLabel("items = simulator events");
}
BENCHMARK(BM_EndToEndSmallSystemHour)->Unit(benchmark::kMillisecond);

void BM_EndToEnd300Streams(benchmark::State& state) {
  // Whole-engine throughput at 300-stream scale: 5 servers x 180 Mb/s at a
  // 3 Mb/s view rate = 300 concurrent streams at full load.
  std::uint64_t events = 0;
  std::uint64_t seed = 1;
  for (auto _ : state) {
    SimulationConfig config;
    config.system = SystemConfig::small_system();
    config.system.server_bandwidth = 180.0;
    config.zipf_theta = 0.271;
    config.client.staging_fraction = 0.2;
    config.client.receive_bandwidth = 30.0;
    config.admission.migration.enabled = true;
    config.duration = hours(1);
    config.warmup = 0.0;
    config.seed = seed++;
    VodSimulation simulation(config);
    simulation.run();
    events += simulation.simulator().executed_count();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(events));
  state.SetLabel("items = simulator events");
}
BENCHMARK(BM_EndToEnd300Streams)->Unit(benchmark::kMillisecond);

void BM_ShardedEndToEnd(benchmark::State& state) {
  // Sharded engine (DESIGN.md §12) vs the single-queue baseline on a
  // 16-server cluster at ~960 concurrent streams. Args: {shards, threads}.
  // shards=1 is the literal pre-sharding code path (the baseline row);
  // shards>1 adds the coordinator/window machinery, so the {4,1} row
  // isolates the protocol's serial overhead and the multi-thread rows show
  // whatever parallelism the host actually has. The serial_frac counter is
  // the coordinator share of executed events — a share of event counts,
  // not of time, so it does not bound the speedup.
  const int shards = static_cast<int>(state.range(0));
  const int threads = static_cast<int>(state.range(1));
  std::uint64_t events = 0;
  std::uint64_t coordinator = 0;
  std::uint64_t seed = 1;
  for (auto _ : state) {
    SimulationConfig config;
    config.system = SystemConfig::small_system();
    config.system.num_servers = 16;
    config.system.server_bandwidth = 180.0;
    config.zipf_theta = 0.271;
    config.client.staging_fraction = 0.2;
    config.client.receive_bandwidth = 30.0;
    config.admission.migration.enabled = true;
    config.duration = hours(0.25);
    config.warmup = 0.0;
    config.seed = seed++;
    config.shards = shards;
    config.shard_threads = threads;
    VodSimulation simulation(config);
    simulation.run();
    coordinator += simulation.coordinator_events();
    events += simulation.coordinator_events() + simulation.shard_events();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(events));
  state.counters["serial_frac"] =
      events > 0 ? static_cast<double>(coordinator) / static_cast<double>(events)
                 : 0.0;
  state.SetLabel("items = simulator events (all queues)");
}
BENCHMARK(BM_ShardedEndToEnd)
    ->Args({1, 1})
    ->Args({4, 1})
    ->Args({4, 2})
    ->Args({4, 4})
    ->Args({16, 4})
    ->ArgNames({"shards", "threads"})
    ->Unit(benchmark::kMillisecond);

void BM_EndToEndObservedHour(benchmark::State& state) {
  // Observability overhead on the whole-engine hot loop. The same run as
  // BM_EndToEndSmallSystemHour with the trace recorder (all categories)
  // and/or the probe samplers attached. BM_EndToEndSmallSystemHour itself
  // is the disabled path (null recorder pointer at every emission site) —
  // the acceptance contract is that it stays within noise of the
  // pre-observability baseline, while the fully-on configurations here show
  // the cost of actually recording.
  const bool trace = state.range(0) != 0;
  const bool probe = state.range(1) != 0;
  std::uint64_t events = 0;
  std::uint64_t seed = 1;
  for (auto _ : state) {
    SimulationConfig config;
    config.system = SystemConfig::small_system();
    config.zipf_theta = 0.271;
    config.client.staging_fraction = 0.2;
    config.client.receive_bandwidth = 30.0;
    config.admission.migration.enabled = true;
    config.duration = hours(1);
    config.warmup = 0.0;
    config.seed = seed++;
    config.trace.enabled = trace;
    config.probe.enabled = probe;
    VodSimulation simulation(config);
    simulation.run();
    events += simulation.simulator().executed_count();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(events));
  state.SetLabel("items = simulator events");
}
BENCHMARK(BM_EndToEndObservedHour)
    ->Args({1, 0})
    ->Args({0, 1})
    ->Args({1, 1})
    ->ArgNames({"trace", "probe"})
    ->Unit(benchmark::kMillisecond);

void BM_EndToEndFig7PolicyMatrix(benchmark::State& state) {
  // The PR-acceptance macro-benchmark: simulated events per second on the
  // fig7 policy-matrix configuration. One iteration runs every Figure 6
  // policy row (P1..P8: {even, predictive} x {migration on/off} x {0%, 20%
  // staging}) on the small system for half a simulated hour with the
  // paper's 30 Mb/s receive cap.
  std::uint64_t events = 0;
  std::uint64_t seed = 1;
  for (auto _ : state) {
    for (const PolicySpec& policy : figure6_policies()) {
      SimulationConfig config;
      config.system = SystemConfig::small_system();
      config.zipf_theta = 0.271;
      config.client.receive_bandwidth = 30.0;
      config.duration = hours(0.5);
      config.warmup = 0.0;
      config.seed = seed++;
      config = apply_policy(std::move(config), policy);
      VodSimulation simulation(config);
      simulation.run();
      events += simulation.simulator().executed_count();
    }
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(events));
  state.SetLabel("items = simulator events");
}
BENCHMARK(BM_EndToEndFig7PolicyMatrix)->Unit(benchmark::kMillisecond);

void BM_EndToEndFig7SweepPaired(benchmark::State& state) {
  // The production shape of the fig7 experiment: all policy rows share one
  // master seed per iteration (paired trials — how `fig7_policies` and
  // every other experiment binary actually runs the matrix, so rows see
  // identical arrival streams), each cell building its own world exactly
  // as ExperimentRunner::run_sweep does. Half-hour cells make world
  // construction a visible share of the cost;
  // BM_EndToEndFig7PolicyMatrix above keeps the independent-seed workload
  // for continuity with pre-PR4 recordings.
  std::uint64_t events = 0;
  std::uint64_t master_seed = 1;
  for (auto _ : state) {
    for (const PolicySpec& policy : figure6_policies()) {
      SimulationConfig config;
      config.system = SystemConfig::small_system();
      config.zipf_theta = 0.271;
      config.client.receive_bandwidth = 30.0;
      config.duration = hours(0.5);
      config.warmup = 0.0;
      config.seed = ExperimentRunner::derive_seed(master_seed, 0);
      VodSimulation simulation(apply_policy(std::move(config), policy));
      simulation.run();
      events += simulation.simulator().executed_count();
    }
    ++master_seed;
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(events));
  state.SetLabel("items = simulator events");
}
BENCHMARK(BM_EndToEndFig7SweepPaired)->Unit(benchmark::kMillisecond);

void BM_TournamentSmall(benchmark::State& state) {
  // A shrunk cell grid of the vodsim_tournament tool: 2 schedulers x
  // 2 placements x {off, 1-hop} migration over a 60-title catalog, half a
  // simulated hour per cell, each cell building its own world (bounds
  // included). Guards the end-to-end cost of the tournament path —
  // including the bounds computation and the gap bookkeeping — at CI smoke
  // scale.
  const std::vector<TournamentSpec> grid = tournament_grid(
      {SchedulerKind::kEftf, SchedulerKind::kLftf},
      {PlacementKind::kEven, PlacementKind::kBsr}, {0, 1}, 0.2);
  std::uint64_t events = 0;
  std::uint64_t master_seed = 1;
  for (auto _ : state) {
    for (const TournamentSpec& spec : grid) {
      SimulationConfig config;
      config.system = SystemConfig::small_system();
      config.system.num_videos = 60;
      config.zipf_theta = 0.271;
      config.duration = hours(0.5);
      config.warmup = 0.0;
      config.seed = ExperimentRunner::derive_seed(master_seed, 0);
      VodSimulation simulation(apply_tournament_spec(std::move(config), spec));
      simulation.run();
      benchmark::DoNotOptimize(simulation.metrics().utilization_gap());
      events += simulation.simulator().executed_count();
    }
    ++master_seed;
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(events));
  state.SetLabel("items = simulator events");
}
BENCHMARK(BM_TournamentSmall)->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
