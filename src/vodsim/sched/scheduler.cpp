#include "vodsim/sched/scheduler.h"

#include <cassert>
#include <stdexcept>

#include "vodsim/sched/continuous.h"
#include "vodsim/sched/eftf.h"
#include "vodsim/sched/intermittent.h"
#include "vodsim/sched/lftf.h"
#include "vodsim/sched/proportional.h"

namespace vodsim {

std::unique_ptr<BandwidthScheduler> make_scheduler(SchedulerKind kind) {
  switch (kind) {
    case SchedulerKind::kEftf:
      return std::make_unique<EftfScheduler>();
    case SchedulerKind::kContinuous:
      return std::make_unique<ContinuousScheduler>();
    case SchedulerKind::kProportional:
      return std::make_unique<ProportionalShareScheduler>();
    case SchedulerKind::kLftf:
      return std::make_unique<LftfScheduler>();
    case SchedulerKind::kIntermittent:
      return std::make_unique<IntermittentScheduler>();
  }
  throw std::invalid_argument("unknown SchedulerKind");
}

SchedulerKind scheduler_kind_from_string(const std::string& name) {
  return enum_from_string<SchedulerKind>(kSchedulerNames, name, "scheduler");
}

std::string to_string(SchedulerKind kind) { return enum_to_string(kSchedulerNames, kind); }

namespace sched_detail {

// Declared in scheduler.h: shared with finish_order.cpp's batched sort-key
// fill. The doc comment lives on the declaration.
const FluidLane* lane_view(const std::vector<Request*>& active) {
  if (active.empty()) return nullptr;
  const FluidLane* lane = active.front()->lane();
  if (lane == nullptr || lane->size() != active.size() ||
      active.front()->active_index != 0 || active.back()->lane() != lane ||
      active.back()->active_index != active.size() - 1) {
    return nullptr;
  }
#ifndef NDEBUG
  for (std::size_t i = 0; i < active.size(); ++i) {
    assert(active[i]->lane() == lane && active[i]->active_index == i &&
           "lane-backed candidate vector out of slot order");
  }
#endif
  return lane;
}

Mbps assign_minimum_flow(Mbps capacity, const std::vector<Request*>& active,
                         std::vector<Mbps>& rates) {
  Mbps committed = 0.0;
  if (const FluidLane* lane = lane_view(active)) {
    committed = lane->sum_minimum_rates(rates);
  } else {
    rates.assign(active.size(), 0.0);
    for (std::size_t i = 0; i < active.size(); ++i) {
      // minimum_rate() is the view bandwidth except for a paused client
      // whose staging disk is full — it cannot absorb anything, so its
      // share of the link becomes slack for the others until it resumes.
      rates[i] = active[i]->minimum_rate();
      committed += rates[i];
    }
  }
  assert(committed <= capacity + 1e-6 && "admission over-committed the server");
  return capacity > committed ? capacity - committed : 0.0;
}

bool workahead_eligible(const Request& request) {
  return !request.buffer_full() &&
         request.receive_bandwidth() > request.view_bandwidth() &&
         !request.finished();
}

void eligible_indices(const std::vector<Request*>& active,
                      std::vector<std::size_t>& out) {
  out.clear();
  if (const FluidLane* lane = lane_view(active)) {
    lane->eligible_slots(out);
    return;
  }
  for (std::size_t i = 0; i < active.size(); ++i) {
    if (workahead_eligible(*active[i])) out.push_back(i);
  }
}

void distribute_greedy(Mbps slack, const std::vector<std::size_t>& order,
                       const std::vector<Request*>& active,
                       std::vector<Mbps>& rates) {
  for (std::size_t index : order) {
    if (slack <= 0.0) break;
    const Request& request = *active[index];
    const Mbps room = request.receive_bandwidth() - rates[index];
    if (room <= 0.0) continue;
    const Mbps grant = std::min(slack, room);
    rates[index] += grant;
    slack -= grant;
  }
}

}  // namespace sched_detail

}  // namespace vodsim
