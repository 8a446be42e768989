#include "vodsim/sched/proportional.h"

#include <algorithm>

namespace vodsim {

void ProportionalShareScheduler::allocate(Seconds /*now*/, Mbps capacity,
                                          const std::vector<Request*>& active,
                                          std::vector<Mbps>& rates,
                                          AllocationScratch& scratch,
                                          SchedCache* /*cache*/) const {
  // Water-filling iterates the eligible pool in active order and splits
  // evenly — there is no sorted grant order to make incremental, so the
  // cache is ignored (its FP operation order is pinned by the slot order
  // alone).
  const FluidLane& lane = sched_detail::lane_of(active);
  Mbps slack = sched_detail::assign_minimum_flow(capacity, lane, rates);
  if (slack <= 0.0) return;

  std::vector<std::size_t>& eligible = scratch.order;
  std::vector<std::size_t>& still_open = scratch.aux;
  lane.eligible_slots(eligible);
  // Water-filling: split slack evenly; capped requests leave the pool and
  // their surplus is redistributed in the next round.
  while (slack > 1e-9 && !eligible.empty()) {
    const Mbps share = slack / static_cast<double>(eligible.size());
    bool any_capped = false;
    still_open.clear();
    for (std::size_t index : eligible) {
      const Mbps room = lane.receive_bandwidth(index) - rates[index];
      const Mbps grant = std::min(share, room);
      rates[index] += grant;
      slack -= grant;
      if (grant < share - 1e-12) {
        any_capped = true;  // hit the receive cap; drops out of the pool
      } else {
        still_open.push_back(index);
      }
    }
    if (!any_capped) break;  // everyone took a full share: slack is exhausted
    eligible.swap(still_open);
  }
}

}  // namespace vodsim
