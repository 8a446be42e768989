#pragma once

/// \file proportional.h
/// \brief Proportional-share workahead: slack water-filled evenly.
///
/// Fair but finish-time-agnostic: a natural strawman between Continuous and
/// EFTF. Requests near their receive cap return their surplus to the pool
/// (water-filling), so no slack is wasted while any client can absorb it.

#include "vodsim/sched/scheduler.h"

namespace vodsim {

class ProportionalShareScheduler final : public BandwidthScheduler {
 public:
  using BandwidthScheduler::allocate;
  void allocate(Seconds now, Mbps capacity, const std::vector<Request*>& active,
                std::vector<Mbps>& rates,
                AllocationScratch& scratch) const override;

  std::string name() const override { return "proportional"; }
};

}  // namespace vodsim
