#include "vodsim/sched/proportional.h"

#include <algorithm>

namespace vodsim {

void ProportionalShareScheduler::allocate(Seconds now, Mbps capacity,
                                          const std::vector<Request*>& active,
                                          std::vector<Mbps>& rates,
                                          AllocationScratch& scratch) const {
  // Water-filling iterates the eligible pool in active order and splits
  // evenly — there is no sorted grant order to make incremental (its FP
  // operation order is pinned by the slot order alone). One lane pass writes every slot's minimum rate (into rates)
  // and its grant room; the order keys go unused.
  const FluidLane& lane = sched_detail::lane_of(active);
  const FluidLane::GrantSums sums = lane.fill_grant_inputs(
      now, /*earliest_first=*/true, rates, scratch.room, scratch.order_keys);
  Mbps slack = sched_detail::slack_after(capacity, sums.committed);
  if (slack <= 0.0) return;

  // The pool starts as the eligible slots in slot order: an eligible
  // slot's room is positive, an ineligible one's +0.0.
  std::vector<std::size_t>& eligible = scratch.order;
  std::vector<std::size_t>& still_open = scratch.aux;
  eligible.clear();
  for (std::size_t i = 0; i < scratch.room.size(); ++i) {
    if (scratch.room[i] > 0.0) eligible.push_back(i);
  }
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
