#pragma once

/// \file assignment.h
/// \brief Choosing which replica-holding server gets a new request.
///
/// The paper assigns each request to the replica holder with the fewest
/// current requests (least-loaded). The other strategies exist for the
/// ablation bench (E11): how sensitive is the system to this choice?

#include <string>
#include <vector>

#include "vodsim/cluster/server.h"
#include "vodsim/util/enum_names.h"
#include "vodsim/util/rng.h"

namespace vodsim {

enum class AssignmentKind {
  kLeastLoaded,  ///< fewest active requests (paper's rule)
  kRandom,       ///< uniform among feasible holders
  kFirstFit,     ///< lowest server id among feasible holders
  kMostLoaded,   ///< most active requests (pack-tight strawman)
};

inline constexpr EnumName kAssignmentNames[] = {
    {"least-loaded", "vodsim::AssignmentKind::kLeastLoaded"},
    {"random", "vodsim::AssignmentKind::kRandom"},
    {"first-fit", "vodsim::AssignmentKind::kFirstFit"},
    {"most-loaded", "vodsim::AssignmentKind::kMostLoaded"},
};
constexpr std::span<const EnumName> enum_names(AssignmentKind) { return kAssignmentNames; }

/// Parses "least-loaded" | "random" | "first-fit" | "most-loaded".
AssignmentKind assignment_kind_from_string(const std::string& name);
std::string to_string(AssignmentKind kind);

/// Picks a destination among \p candidates (server ids that hold a replica
/// AND can admit the stream — the caller pre-filters). Returns kNoServer if
/// candidates is empty. \p rng used only by kRandom.
ServerId pick_server(AssignmentKind kind, const std::vector<ServerId>& candidates,
                     const std::vector<Server>& servers, Rng& rng);

}  // namespace vodsim
