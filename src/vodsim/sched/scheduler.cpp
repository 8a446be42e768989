#include "vodsim/sched/scheduler.h"

#include <cassert>
#include <stdexcept>

#include "vodsim/sched/continuous.h"
#include "vodsim/sched/eftf.h"
#include "vodsim/sched/intermittent.h"
#include "vodsim/sched/proportional.h"

namespace vodsim {

std::unique_ptr<BandwidthScheduler> make_scheduler(SchedulerKind kind) {
  switch (kind) {
    case SchedulerKind::kEftf:
      return std::make_unique<FinishTimeScheduler>(/*earliest_first=*/true);
    case SchedulerKind::kContinuous:
      return std::make_unique<ContinuousScheduler>();
    case SchedulerKind::kProportional:
      return std::make_unique<ProportionalShareScheduler>();
    case SchedulerKind::kLftf:
      return std::make_unique<FinishTimeScheduler>(/*earliest_first=*/false);
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

// The doc comment lives on the declaration (scheduler.h).
const FluidLane& lane_of(const std::vector<Request*>& active) {
  static const FluidLane kEmptyLane;
  if (active.empty()) return kEmptyLane;
  const FluidLane* lane = active.front()->lane();
  if (lane == nullptr || lane->size() != active.size() ||
      active.front()->active_index != 0 || active.back()->lane() != lane ||
      active.back()->active_index != active.size() - 1) {
    throw std::invalid_argument(
        "scheduler input is not a server's active list");
  }
#ifndef NDEBUG
  for (std::size_t i = 0; i < active.size(); ++i) {
    assert(active[i]->lane() == lane && active[i]->active_index == i &&
           "active list out of slot order");
  }
#endif
  return *lane;
}

Mbps assign_minimum_flow(Mbps capacity, const FluidLane& lane,
                         std::vector<Mbps>& rates) {
  const Mbps committed = lane.sum_minimum_rates(rates);
  assert(committed <= capacity + 1e-6 && "admission over-committed the server");
  return capacity > committed ? capacity - committed : 0.0;
}

void distribute_greedy(Mbps slack, const std::vector<std::size_t>& order,
                       const FluidLane& lane, std::vector<Mbps>& rates) {
  for (std::size_t index : order) {
    if (slack <= 0.0) break;
    const Mbps room = lane.receive_bandwidth(index) - rates[index];
    if (room <= 0.0) continue;
    const Mbps grant = std::min(slack, room);
    rates[index] += grant;
    slack -= grant;
  }
}

}  // namespace sched_detail

}  // namespace vodsim
