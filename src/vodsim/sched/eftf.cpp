#include "vodsim/sched/eftf.h"

#include <algorithm>
#include <cstdint>
#include <limits>

namespace vodsim {

namespace {

/// Picks made by a pass over the lane each before the rest come off a
/// heap. Slack usually runs out within three picks (DESIGN.md §8); four
/// measured fastest on a 150-grant prefix (BM_FinishTimeAllocate).
constexpr int kScanPicks = 4;

}  // namespace

void FinishTimeScheduler::allocate(Seconds now, Mbps capacity,
                                   const std::vector<Request*>& active,
                                   std::vector<Mbps>& rates,
                                   AllocationScratch& scratch,
                                   SchedCache* /*cache*/) const {
  // One lane pass writes every slot's minimum rate (into rates), its grant
  // room and its order key, and sums the first two in slot order.
  const FluidLane& lane = sched_detail::lane_of(active);
  std::vector<Mbps>& room = scratch.room;
  std::vector<std::int64_t>& keys = scratch.order_keys;
  const FluidLane::GrantSums sums =
      lane.fill_grant_inputs(now, earliest_first_, rates, room, keys);
  Mbps slack = sched_detail::slack_after(capacity, sums.committed);
  // Zero slack — the common case at saturation, where the paper's
  // interesting data points live — grants nothing.
  if (slack <= 0.0) return;

  const auto grant = [&](std::size_t slot) {
    const Mbps amount = std::min(slack, room[slot]);
    rates[slot] += amount;
    slack -= amount;
  };

  // Slack that covers every room grants each eligible slot exactly its
  // room in any order (sched_detail::grants_are_order_free), so slot order
  // stands. An ineligible slot's room is +0.0.
  if (sched_detail::grants_are_order_free(sums.room, slack)) {
    for (std::size_t i = 0; i < rates.size() && slack > 0.0; ++i) {
      if (room[i] > 0.0) grant(i);
    }
    return;
  }

  // Figure 2's loop: repeatedly pick the eligible slot with the least
  // order key — the earliest projected finish (latest for LFTF), ties
  // broken on request id — and give it as much of the slack as its client
  // can take. The order is total and unique, so the picks are exactly the
  // sorted order's prefix, and the grants are those a greedy pass over the
  // sorted candidates makes before its slack runs out. A pick retires its
  // slot's key. The least key left after retiring the first slot at the
  // current least is what the next pick needs anyway, and it also says
  // whether another slot ties the current one: only then is the lane walked
  // for the tied slot with the least id.
  constexpr std::int64_t kRetired = std::numeric_limits<std::int64_t>::max();
  std::int64_t least = least_order_key(keys);
  for (int picks = 0; picks < kScanPicks; ++picks) {
    if (slack <= 0.0 || least == kRetired) return;
    std::size_t pick = 0;
    while (keys[pick] != least) ++pick;
    keys[pick] = kRetired;
    const std::int64_t next = least_order_key(keys);
    if (next == least) {
      const std::size_t first = pick;
      for (std::size_t i = first + 1; i < keys.size(); ++i) {
        if (keys[i] == least && active[i]->id() < active[pick]->id()) pick = i;
      }
      if (pick != first) {
        keys[first] = least;
        keys[pick] = kRetired;
      }
    }
    grant(pick);
    least = next;
  }
  if (slack <= 0.0 || least == kRetired) return;

  // Each pick above is a pass over the lane, so a long prefix (clients
  // barely faster than playback, slack just under the room sum) would cost
  // a pass per grant. The rest come off one min-heap of the candidates
  // left instead, in the same (key, id) order.
  std::vector<GrantCandidate>& heap = scratch.grant_heap;
  heap.clear();
  for (std::size_t i = 0; i < keys.size(); ++i) {
    if (keys[i] != kRetired) heap.push_back({keys[i], active[i]->id(), i});
  }
  // Branch-free on purpose: heap comparisons on random keys mispredict.
  const auto later = [](const GrantCandidate& a, const GrantCandidate& b) {
    return (a.key > b.key) | ((a.key == b.key) & (a.id > b.id));
  };
  std::make_heap(heap.begin(), heap.end(), later);
  while (slack > 0.0 && !heap.empty()) {
    std::pop_heap(heap.begin(), heap.end(), later);
    grant(heap.back().slot);
    heap.pop_back();
  }
}

}  // namespace vodsim
