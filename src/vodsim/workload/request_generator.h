#pragma once

/// \file request_generator.h
/// \brief Arrival sources: Poisson + popularity online generation.

#include <memory>
#include <optional>

#include "vodsim/cluster/video.h"
#include "vodsim/util/rng.h"
#include "vodsim/util/units.h"
#include "vodsim/workload/drift.h"
#include "vodsim/workload/poisson.h"

namespace vodsim {

/// One request arrival.
struct Arrival {
  Seconds time = 0.0;
  VideoId video = -1;
};

/// Abstract stream of arrivals, consumed in time order by the engine.
class ArrivalSource {
 public:
  virtual ~ArrivalSource() = default;

  /// Returns the next arrival, or nullopt when the source is exhausted
  /// (online generators never exhaust; the engine stops at the horizon).
  virtual std::optional<Arrival> next() = 0;
};

/// Online generator: Poisson interarrivals, video drawn from a popularity
/// model at the arrival instant.
class RequestGenerator final : public ArrivalSource {
 public:
  /// \param process arrival process (copied).
  /// \param popularity model; must outlive the generator.
  /// \param seed private RNG seed for this arrival stream.
  RequestGenerator(PoissonProcess process, const PopularityModel& popularity,
                   std::uint64_t seed);

  std::optional<Arrival> next() override;

 private:
  PoissonProcess process_;
  const PopularityModel& popularity_;
  Rng rng_;
  Seconds clock_ = 0.0;
};

}  // namespace vodsim
