#pragma once

/// \file eftf.h
/// \brief The finish-time schedulers: Earliest Finishing Time First — the
/// paper's workahead scheduler — and its adversarial mirror, Latest
/// Finishing Time First.

#include "vodsim/sched/scheduler.h"

namespace vodsim {

/// EFTF (earliest_first = true) is Figure 2 of the paper: after granting
/// every unfinished request its view bandwidth, repeatedly pick the request
/// with the earliest projected finishing time whose client buffer has space
/// and give it as much of the remaining slack as its client can receive.
/// Since all videos share one view bandwidth, "earliest projected finish"
/// is simply "least remaining data", so one ascending sort suffices.
///
/// LFTF (earliest_first = false) spends the slack on the streams farthest
/// from finishing instead. Under Theorem 1's assumptions this is the worst
/// ordering within the minimum-flow family; it exists to quantify (bench
/// E10) how much EFTF's ordering contributes.
class FinishTimeScheduler final : public BandwidthScheduler {
 public:
  explicit FinishTimeScheduler(bool earliest_first)
      : earliest_first_(earliest_first) {}

  using BandwidthScheduler::allocate;
  void allocate(Seconds now, Mbps capacity, const std::vector<Request*>& active,
                std::vector<Mbps>& rates, AllocationScratch& scratch,
                SchedCache* cache) const override;

  std::string name() const override { return earliest_first_ ? "eftf" : "lftf"; }

 private:
  bool earliest_first_;
};

}  // namespace vodsim
