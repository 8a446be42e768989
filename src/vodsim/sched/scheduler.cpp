#include "vodsim/sched/scheduler.h"

#include <cassert>
#include <stdexcept>

#include "vodsim/sched/continuous.h"
#include "vodsim/sched/eftf.h"
#include "vodsim/sched/intermittent.h"
#include "vodsim/sched/proportional.h"

namespace vodsim {

std::unique_ptr<BandwidthScheduler> make_scheduler(SchedulerKind kind,
                                                   Seconds safety_cover) {
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
      return std::make_unique<IntermittentScheduler>(safety_cover);
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
  if (lane == nullptr || &lane->requests() != &active) {
    throw std::invalid_argument(
        "scheduler input is not a server's active list");
  }
  return *lane;
}

Mbps slack_after(Mbps capacity, Mbps committed) {
  assert(committed <= capacity + 1e-6 && "admission over-committed the server");
  return capacity > committed ? capacity - committed : 0.0;
}

}  // namespace sched_detail

}  // namespace vodsim
