#include "vodsim/sched/continuous.h"

namespace vodsim {

void ContinuousScheduler::allocate(Seconds /*now*/, Mbps capacity,
                                   const std::vector<Request*>& active,
                                   std::vector<Mbps>& rates,
                                   AllocationScratch& /*scratch*/,
                                   SchedCache* /*cache*/) const {
  // No workahead, no grant order, nothing to cache.
  (void)sched_detail::assign_minimum_flow(capacity, sched_detail::lane_of(active),
                                          rates);
}

}  // namespace vodsim
