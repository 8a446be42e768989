#include "vodsim/sched/continuous.h"

namespace vodsim {

void ContinuousScheduler::allocate(Seconds now, Mbps capacity,
                                   const std::vector<Request*>& active,
                                   std::vector<Mbps>& rates,
                                   AllocationScratch& scratch) const {
  // Every slot gets its minimum rate and no workahead: the lane pass's
  // rooms and order keys go unused.
  const FluidLane& lane = sched_detail::lane_of(active);
  const FluidLane::GrantSums sums = lane.fill_grant_inputs(
      now, /*earliest_first=*/true, rates, scratch.room, scratch.order_keys);
  (void)sched_detail::slack_after(capacity, sums.committed);
}

}  // namespace vodsim
