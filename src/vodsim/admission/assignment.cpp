#include "vodsim/admission/assignment.h"

#include <cassert>
#include <stdexcept>

namespace vodsim {

AssignmentKind assignment_kind_from_string(const std::string& name) {
  return enum_from_string<AssignmentKind>(kAssignmentNames, name, "assignment policy");
}

std::string to_string(AssignmentKind kind) { return enum_to_string(kAssignmentNames, kind); }

ServerId pick_server(AssignmentKind kind, const std::vector<ServerId>& candidates,
                     const std::vector<Server>& servers, Rng& rng) {
  if (candidates.empty()) return kNoServer;
  switch (kind) {
    case AssignmentKind::kFirstFit: {
      ServerId best = candidates[0];
      for (ServerId s : candidates) best = std::min(best, s);
      return best;
    }
    case AssignmentKind::kRandom:
      return candidates[rng.uniform_int(candidates.size())];
    case AssignmentKind::kLeastLoaded: {
      ServerId best = kNoServer;
      std::size_t best_load = 0;
      for (ServerId s : candidates) {
        const std::size_t load = servers[static_cast<std::size_t>(s)].active_count();
        if (best == kNoServer || load < best_load ||
            (load == best_load && s < best)) {
          best = s;
          best_load = load;
        }
      }
      return best;
    }
    case AssignmentKind::kMostLoaded: {
      ServerId best = kNoServer;
      std::size_t best_load = 0;
      for (ServerId s : candidates) {
        const std::size_t load = servers[static_cast<std::size_t>(s)].active_count();
        if (best == kNoServer || load > best_load ||
            (load == best_load && s < best)) {
          best = s;
          best_load = load;
        }
      }
      return best;
    }
  }
  assert(false);
  return kNoServer;
}

}  // namespace vodsim
