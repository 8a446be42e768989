#include "vodsim/sched/eftf.h"

#include "vodsim/sched/finish_order.h"

namespace vodsim {

void EftfScheduler::allocate(Seconds now, Mbps capacity,
                             const std::vector<Request*>& active,
                             std::vector<Mbps>& rates,
                             AllocationScratch& scratch,
                             SchedCache* cache) const {
  const Mbps slack = sched_detail::assign_minimum_flow(capacity, active, rates);
  // Zero slack — the common case at saturation, where the paper's
  // interesting data points live — skips eligibility and the sort entirely.
  if (slack <= 0.0) return;
  const Mbps room = sched_detail::eligible_indices(active, scratch.order);
  // Slack that covers every room grants each candidate exactly its room in
  // any order, so the eligible (active) order stands and the sort is
  // skipped (sched_detail::grants_are_order_free).
  if (!sched_detail::grants_are_order_free(room, slack)) {
    sched_detail::sort_by_projected_finish(now, /*earliest_first=*/true, active,
                                           scratch, cache);
  }
  sched_detail::distribute_greedy(slack, scratch.order, active, rates);
}

}  // namespace vodsim
