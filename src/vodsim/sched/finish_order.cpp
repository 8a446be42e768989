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
                              AllocationScratch& scratch, SchedCache* cache) {
  std::vector<std::size_t>& order = scratch.order;

  // Fresh keys, exactly one projected_finish evaluation per candidate,
  // read from the server's lane. projected_finish is pure in (slot state,
  // now), so the precomputed value is bit-identical to what an
  // in-comparator call would produce — this hoists ~2 divisions per
  // comparison out of the sort. Persisting keys across passes instead
  // would drift in ulps; see the header.
  //
  // When the candidate set covers most of the lane, one vectorized pass
  // fills every slot instead (the same formula per slot — bit-identical
  // keys; writing non-candidate slots is safe because the comparator only
  // ever reads candidate indices). Sparse candidate sets (an intermittent-
  // scheduler urgent pass over a few starved streams) keep the per-
  // candidate loop: filling all n slots to sort k << n would waste the
  // divisions the batch exists to amortize.
  std::vector<Seconds>& keys = scratch.keys;
  const FluidLane& lane = lane_of(active);
  if (2 * order.size() >= active.size()) {
    lane.fill_projected_finish(now, keys);
  } else {
    keys.resize(active.size());
    for (const std::size_t index : order) {
      keys[index] = lane.projected_finish(index, now);
    }
  }

  const auto before = [&](std::size_t a, std::size_t b) {
    if (keys[a] != keys[b]) return keys[a] < keys[b];
    return active[a]->id() < active[b]->id();  // unique, deterministic
  };

  bool seeded = false;
  if (cache != nullptr && !cache->grant_order.empty() && order.size() > 1) {
    // Validate the remembered order against the *current* candidate set by
    // membership, not by re-deriving eligibility: the caller's candidate
    // predicate (which may depend on rates already granted this pass) stays
    // in one place, and stale entries — detached, migrated, finished,
    // swap-moved or newly-ineligible requests — drop out on the slot/pointer
    // identity check, which reads only the active vector.
    std::vector<std::uint8_t>& in_candidates = scratch.in_candidates;
    in_candidates.assign(active.size(), 0);
    for (const std::size_t index : order) in_candidates[index] = 1;

    std::vector<std::size_t>& seed = scratch.aux;
    seed.clear();
    for (const SchedCache::Entry& entry : cache->grant_order) {
      const std::size_t index = entry.slot;
      if (index < active.size() && active[index] == entry.request &&
          in_candidates[index] != 0) {
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

  if (cache != nullptr) {
    cache->grant_order.clear();
    cache->grant_order.reserve(order.size());
    for (const std::size_t index : order) {
      cache->grant_order.push_back({index, active[index]});
    }
  }
}

}  // namespace sched_detail
}  // namespace vodsim
