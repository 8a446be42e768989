#pragma once

/// \file continuous.h
/// \brief Classical continuous transmission: every stream at exactly b_view.
///
/// Equivalent to EFTF with 0% staging buffers; kept as an explicit scheduler
/// so the no-workahead baseline does not depend on buffer configuration.

#include "vodsim/sched/scheduler.h"

namespace vodsim {

class ContinuousScheduler final : public BandwidthScheduler {
 public:
  using BandwidthScheduler::allocate;
  void allocate(Seconds now, Mbps capacity, const std::vector<Request*>& active,
                std::vector<Mbps>& rates,
                AllocationScratch& scratch) const override;

  std::string name() const override { return "continuous"; }
};

}  // namespace vodsim
