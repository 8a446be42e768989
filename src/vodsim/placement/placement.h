#pragma once

/// \file placement.h
/// \brief Static video placement: how many copies of each title, and where.
///
/// Placement runs once, before any request arrives (paper §4.1). The copy
/// budget is `round(num_videos * avg_copies)` for every policy, so policies
/// are compared at equal storage cost. Copies of one video always land on
/// distinct servers with sufficient free storage.
///
/// Policies:
///   - Even: the same number of copies per video, fractional surplus given
///     to randomly chosen videos. Completely popularity-oblivious.
///   - Predictive: copy counts proportional to (perfectly known) popularity,
///     at least one copy each.
///   - PartialPredictive: even base, but the fractional surplus goes to the
///     predicted-most-popular titles instead of random ones — "a few extra
///     copies of the most popular videos" (§4.4).
///   - Bsr: bandwidth-to-space-ratio matching (Dan & Sitaram), a published
///     baseline: predictive copy counts, servers chosen to match each
///     video's bandwidth/space ratio to the device's remaining ratio.

#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "vodsim/cluster/server.h"
#include "vodsim/cluster/topology.h"
#include "vodsim/cluster/video.h"
#include "vodsim/util/enum_names.h"
#include "vodsim/util/rng.h"

namespace vodsim {

/// Outcome of a placement run.
struct PlacementResult {
  /// Copy count actually placed for each video (>= 1 unless storage ran out).
  std::vector<int> copies;
  /// Total replicas placed.
  int placed_total = 0;
  /// Copies that could not be placed due to storage exhaustion.
  int shortfall = 0;

  int copies_of(VideoId video) const { return copies[static_cast<std::size_t>(video)]; }
};

class PlacementPolicy {
 public:
  virtual ~PlacementPolicy() = default;

  /// Computes copy counts and installs replicas onto \p servers.
  /// \param popularity per-video request probabilities (policies that are
  ///        popularity-oblivious ignore it).
  /// \param avg_copies mean copies per video (the storage budget).
  virtual PlacementResult place(const VideoCatalog& catalog,
                                const std::vector<double>& popularity,
                                double avg_copies, std::vector<Server>& servers,
                                Rng& rng) const = 0;

  virtual std::string name() const = 0;
};

enum class PlacementKind {
  kEven,
  kPredictive,
  kPartialPredictive,
  kBsr,
  /// Even copy counts, failure-domain anti-affinity install
  /// (placement/domain_spread.h). Needs the failure-domain tree, so only
  /// the (config, topology) factory builds it.
  kDomainSpread,
};

/// Placement policy selection plus its tuning knobs.
struct PlacementConfig {
  PlacementKind kind = PlacementKind::kEven;
  /// PartialPredictive only: see PartialPredictivePlacement.
  double partial_head_fraction = 0.10;
  double partial_tail_shift = 0.05;
};

/// Factory for the policies that need nothing but their kind.
/// PartialPredictive uses its default knobs. Throws std::invalid_argument
/// for kDomainSpread, which needs the topology.
std::unique_ptr<PlacementPolicy> make_placement(PlacementKind kind);

/// Factory for any policy: PartialPredictive gets \p config's knobs and
/// DomainSpread spreads across \p topology (which must cover the servers
/// it will place onto).
std::unique_ptr<PlacementPolicy> make_placement(const PlacementConfig& config,
                                                const Topology& topology);

inline constexpr EnumName kPlacementNames[] = {
    {"even", "vodsim::PlacementKind::kEven"},
    {"predictive", "vodsim::PlacementKind::kPredictive"},
    {"partial", "vodsim::PlacementKind::kPartialPredictive"},
    {"bsr", "vodsim::PlacementKind::kBsr"},
    {"domain_spread", "vodsim::PlacementKind::kDomainSpread"},
};
constexpr std::span<const EnumName> enum_names(PlacementKind) { return kPlacementNames; }

/// Parses "even" | "predictive" | "partial" | "bsr" | "domain_spread".
PlacementKind placement_kind_from_string(const std::string& name);
std::string to_string(PlacementKind kind);

namespace placement_detail {

/// Total replica budget for a catalog at a given average copy count.
int copy_budget(std::size_t num_videos, double avg_copies);

/// Places `copies[i]` replicas of each video onto distinct random servers
/// with free storage. Returns the realized PlacementResult (shortfall > 0
/// when storage ran out). Placement order is most-copies-first so that
/// heavily replicated titles are not starved by earlier placements.
PlacementResult install_replicas(const VideoCatalog& catalog,
                                 const std::vector<int>& copies,
                                 std::vector<Server>& servers, Rng& rng);

/// Largest-remainder apportionment of \p budget copies proportional to
/// \p weights, with a minimum of one copy per video and at most
/// \p max_copies per video (copies clipped by the cap are redistributed
/// D'Hondt-style to uncapped videos, so the whole budget is spent whenever
/// budget <= n * max_copies). Requires budget >= weights.size().
std::vector<int> proportional_copies(const std::vector<double>& weights, int budget,
                                     int max_copies = std::numeric_limits<int>::max());

}  // namespace placement_detail

}  // namespace vodsim
