#include "vodsim/sched/intermittent.h"

#include <algorithm>
#include <cassert>

#include "vodsim/sched/finish_order.h"

namespace vodsim {

IntermittentScheduler::IntermittentScheduler(Seconds safety_cover,
                                             bool order_free_grants)
    : safety_cover_(safety_cover), order_free_grants_(order_free_grants) {
  assert(safety_cover >= 0.0);
}

namespace {

/// Smoothing horizon of the workahead cap (seconds). A client is granted
/// at most what it can usefully absorb over this horizon: its drain rate
/// plus enough to fill its remaining headroom in kAbsorptionHorizon
/// seconds, clipped to its receive bandwidth. Without this cap a near-full
/// viewing buffer would flip between "full -> 0 Mb/s" and "hairline below
/// full -> receive cap" every few nanoseconds of simulated time
/// (fluid-model chattering); with it, the grant converges smoothly to the
/// drain rate as the buffer fills, and buffer-full predictions stay at
/// least ~kAbsorptionHorizon apart.
constexpr Seconds kAbsorptionHorizon = 10.0;

/// Tolerance on staged-cover comparisons (seconds); must be at least the
/// engine's buffer-level tolerance expressed in playback time.
constexpr Seconds kCoverTolerance = 1e-6;

}  // namespace

void IntermittentScheduler::allocate(Seconds now, Mbps capacity,
                                     const std::vector<Request*>& active,
                                     std::vector<Mbps>& rates,
                                     AllocationScratch& scratch,
                                     SchedCache* cache) const {
  // Per-stream reads come from the server's lane. Drain rate, cover and
  // workahead cap come from one vectorized lane pass into the scratch (the
  // pass below never resizes those vectors); the rest from the lane
  // arrays. Requests are dereferenced only to break exact key ties, to flip
  // the urgency latch (which writes through to the lane) and to attribute
  // trace records.
  const FluidLane& lane = sched_detail::lane_of(active);
  lane.fill_workahead_inputs(now, kAbsorptionHorizon, scratch.drain,
                             scratch.cover, scratch.cap);
  const std::vector<Mbps>& drain_rate = scratch.drain;
  const std::vector<Seconds>& buffer_cover = scratch.cover;
  const std::vector<Mbps>& workahead_cap = scratch.cap;

  const std::size_t n = active.size();
  rates.assign(n, 0.0);
  Mbps left = capacity;

  // Phase 1 — safety. A fluid model chatters if an urgent stream is fed
  // exactly its drain rate (its level pins to the threshold and membership
  // flips every epsilon), so urgency is handled with two stabilizing rules:
  //   - when the link can cover every urgent stream's drain, urgent streams
  //     are additionally *boosted* toward their receive caps (most-starved
  //     first) so they refill well clear of the threshold;
  //   - in a crunch (over-committed link), the shortfall is shared
  //     proportionally — membership stays stable while everyone drains.
  std::vector<std::size_t>& urgent = scratch.aux;
  urgent.clear();
  Mbps urgent_drain = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    const Mbps drain = drain_rate[i];
    if (drain <= 0.0) continue;  // paused or past the end: nothing to protect
    // Hysteresis: latch urgency below the safety threshold, release only
    // after recovering to twice the threshold. A knife-edge membership test
    // would chatter (fed -> above threshold -> starved -> below -> ...).
    const Seconds cover = buffer_cover[i];
    // The engine's buffer-low wake-up fires when cover *reaches* the
    // threshold (and then stops waking, trusting the scheduler), so the
    // latch must engage at equality too — hence the tolerance.
    const bool was_urgent = lane.urgent(i);
    bool is_urgent = was_urgent;
    if (cover <= safety_cover_ + kCoverTolerance) {
      is_urgent = true;
    } else if (cover >= 2.0 * safety_cover_) {
      is_urgent = false;
    }
    if (is_urgent != was_urgent) {
      Request& request = *active[i];
      request.set_workahead_urgent(is_urgent);
      if (trace_ != nullptr && trace_->wants(kTraceSched)) {
        trace_->record(now,
                       is_urgent ? TraceEventType::kUrgentOn
                                 : TraceEventType::kUrgentOff,
                       request.server(), request.id(), request.video_id(), cover);
      }
    }
    if (is_urgent) {
      urgent.push_back(i);
      urgent_drain += drain;
    }
  }

  if (urgent_drain > left) {
    // Crunch: continuity is already at risk; ration proportionally.
    for (std::size_t index : urgent) {
      rates[index] = left * drain_rate[index] / urgent_drain;
    }
    return;
  }

  std::sort(urgent.begin(), urgent.end(), [&](std::size_t a, std::size_t b) {
    const Megabits la = lane.buffer_level(a);
    const Megabits lb = lane.buffer_level(b);
    if (la != lb) return la < lb;
    return active[a]->id() < active[b]->id();
  });
  for (std::size_t index : urgent) {
    rates[index] = drain_rate[index];
    left -= rates[index];
  }
  // Refill boost, most-starved first.
  for (std::size_t index : urgent) {
    if (left <= 0.0) break;
    if (lane.buffer_full(index)) continue;
    const Mbps grant = std::min(left, workahead_cap[index] - rates[index]);
    if (grant <= 0.0) continue;
    rates[index] += grant;
    left -= grant;
  }

  // Phase 2 — greedy workahead, earliest projected finish first, bounded by
  // what each client can absorb. Each candidate's room (its cap minus what
  // phase 1 gave it) is fixed before any grant: a grant changes only its
  // own stream's rate.
  if (left <= 0.0) return;
  std::vector<std::size_t>& order = scratch.order;
  std::vector<Mbps>& room = scratch.room;
  order.clear();
  room.resize(n);
  Mbps room_sum = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    if (lane.buffer_full(i)) continue;
    if (rates[i] >= lane.receive_bandwidth(i)) continue;
    order.push_back(i);
    room[i] = workahead_cap[i] - rates[i];
    if (room[i] > 0.0) room_sum += room[i];
  }
  // When `left` covers every room, every candidate gets exactly its room
  // whatever the order (sched_detail::grants_are_order_free), so the slot
  // order stands and the sort — with its cache repair — is skipped. Else
  // a cache-seeded repair of the previous workahead order (phase 1's
  // urgent sort keys on buffer level, which reshuffles every pass over a
  // small set — not worth caching; this one is the per-event O(n log n)
  // resort). scratch.aux (the urgent list) is dead by now and is
  // clobbered here.
  if (!order_free_grants_ || !sched_detail::grants_are_order_free(room_sum, left)) {
    sched_detail::sort_by_projected_finish(now, active, scratch, cache);
  }
  for (std::size_t index : order) {
    if (left <= 0.0) break;
    const Mbps grant = std::min(left, room[index]);
    if (grant <= 0.0) continue;
    rates[index] += grant;
    left -= grant;
  }
}

}  // namespace vodsim
