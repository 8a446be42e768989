#include "vodsim/sched/finish_order.h"

#include <algorithm>
#include <cstdint>

#include "vodsim/sched/scheduler.h"

namespace vodsim {
namespace sched_detail {
namespace {

/// Adaptive insertion sort for a nearly-sorted permutation: O(n) when the
/// seed is already in order, O(n + inversions) when a few entries moved.
/// A scrambled seed (mass arrival, load spike) would degenerate to O(n^2),
/// so a shift budget bails out to std::sort — the array is a permutation at
/// every step, and the unique total order makes the fallback produce the
/// same result it would have reached.
template <typename Before>
void insertion_sort_guarded(std::vector<std::size_t>& order, Before before) {
  const std::size_t n = order.size();
  std::size_t budget = 4 * n;
  for (std::size_t i = 1; i < n; ++i) {
    const std::size_t value = order[i];
    std::size_t j = i;
    while (j > 0 && before(value, order[j - 1])) {
      order[j] = order[j - 1];
      --j;
      if (--budget == 0) {
        order[j] = value;  // restore the permutation before bailing
        std::sort(order.begin(), order.end(), before);
        return;
      }
    }
    order[j] = value;
  }
}

}  // namespace

void sort_by_projected_finish(Seconds now, const std::vector<Request*>& active,
                              AllocationScratch& scratch) {
  // No request, no candidates and no lane whose order could be kept.
  if (active.empty()) return;
  std::vector<std::size_t>& order = scratch.order;
  const FluidLane& lane = lane_of(active);
  std::vector<std::uint32_t>& grant_order = active.front()->lane()->grant_order();

  // Fresh keys from one vectorized pass over the server's lane
  // (FluidLane::fill_projected_finish). projected_finish is pure in (slot
  // state, now), so the precomputed value is bit-identical to what an
  // in-comparator call would produce — this hoists ~2 divisions per
  // comparison out of the sort. The pass fills non-candidate slots too,
  // which is safe because the comparator only ever reads candidate
  // indices. Persisting keys across passes instead would drift in ulps;
  // see the header.
  std::vector<Seconds>& keys = scratch.keys;
  lane.fill_projected_finish(now, keys);

  const auto before = [&](std::size_t a, std::size_t b) {
    if (keys[a] != keys[b]) return keys[a] < keys[b];
    return active[a]->id() < active[b]->id();  // unique, deterministic
  };

  bool seeded = false;
  if (!grant_order.empty() && order.size() > 1) {
    // Filter the remembered order by membership in the *current* candidate
    // set, not by re-deriving eligibility: the caller's candidate predicate
    // (which may depend on rates already granted this pass) stays in one
    // place. Slots past the end of the list or no longer candidates drop
    // out; a slot that holds another request now only seeds it at a stale
    // position, which the repair sorts out (see the header).
    std::vector<std::uint8_t>& in_candidates = scratch.in_candidates;
    in_candidates.assign(active.size(), 0);
    for (const std::size_t index : order) in_candidates[index] = 1;

    std::vector<std::size_t>& seed = scratch.aux;
    seed.clear();
    for (const std::size_t index : grant_order) {
      if (index < active.size() && in_candidates[index] != 0) {
        seed.push_back(index);
        in_candidates[index] = 0;  // consumed; leftovers appended below
      }
    }
    if (!seed.empty()) {
      for (const std::size_t index : order) {
        if (in_candidates[index] != 0) seed.push_back(index);
      }
      order.swap(seed);
      insertion_sort_guarded(order, before);
      seeded = true;
    }
  }
  if (!seeded) {
    std::sort(order.begin(), order.end(), before);
  }

  grant_order.assign(order.begin(), order.end());
}

}  // namespace sched_detail
}  // namespace vodsim
