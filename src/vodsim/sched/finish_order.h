#pragma once

/// \file finish_order.h
/// \brief Persistent per-server finish-time ordering for incremental
/// scheduler recomputes.
///
/// The intermittent scheduler's workahead phase re-derives the same
/// earliest-finish grant order on almost every recompute: between two
/// allocation passes, one request arrives or departs and everyone else
/// keeps their relative position. A SchedCache remembers the previous grant
/// order so the next pass starts from a nearly-sorted permutation and
/// repairs it with an adaptive insertion pass — O(n + inversions) instead
/// of a full O(n log n) resort per event.
///
/// Only that phase sorts. Its greedy pass walks a long prefix of the order
/// (about 310 of 440 candidates per sort on the sharded_ramp benchmark
/// workload), which the repair serves well. EFTF and LFTF walk a mean
/// prefix of 1.2–3.0 candidates out of 15–72 on the other benchmark
/// workloads, so they pick those few straight from the lane instead of
/// sorting at all (FinishTimeScheduler::allocate).
///
/// Bit-exactness contract. The comparator's key — the lane's
/// projected_finish(slot, now) —
/// is recomputed *fresh* on every pass and evaluated exactly once per
/// candidate: caching key values across passes would let them drift in ulps
/// from a from-scratch computation, which the determinism goldens forbid.
/// What persists is only the previous *permutation*. Because the order is
/// total and unique (ties broken on request id), every correct sorting
/// procedure produces the same permutation for the same keys: seeding from
/// the cache can change how many comparisons run, never their outcome, so
/// the grant order — and with it every downstream FP operation — is
/// byte-identical to the full-resort path.
///
/// Lifetime. A SchedCache belongs to one server (the engine keeps one per
/// ServerRecomputeState) and stores (slot, Request pointer) pairs. Entries
/// are validated lazily against the current candidate set by comparing the
/// pointer with active[slot] — never dereferencing it — so detached,
/// finished, migrated, newly-ineligible or swap-moved requests simply drop
/// out (a moved request rejoins as a leftover), no invalidation hooks are
/// needed anywhere in the engine, and a stale pointer is never read
/// through.

#include <vector>

#include "vodsim/cluster/request.h"
#include "vodsim/util/units.h"

namespace vodsim {

struct AllocationScratch;

/// Persistent ordering state for one server. Default-constructed = cold
/// (first pass falls back to a full sort, then the cache is warm).
struct SchedCache {
  /// One remembered grant: the candidate's slot in the active vector and
  /// the request that held it.
  struct Entry {
    std::size_t slot;
    const Request* request;
  };

  /// The grant order produced by the previous sorting pass, earliest
  /// projected finish first.
  std::vector<Entry> grant_order;

  void clear() { grant_order.clear(); }
};

namespace sched_detail {

/// Sorts scratch.order — a candidate slot set of \p active, a server's
/// active list, prepared by the caller — by ascending
/// (FluidLane::projected_finish, id). Keys are computed once per candidate
/// into scratch.keys and compared by value.
/// Throws std::invalid_argument as sched_detail::lane_of does.
///
/// With a warm \p cache, the previous grant order seeds the permutation
/// (validated entry by entry against the current candidate set) and an
/// adaptive insertion pass repairs it; a cold or null cache takes the full
/// std::sort path. Both paths produce the identical unique permutation.
/// On return the cache (when non-null) holds the new grant order.
///
/// Clobbers scratch.aux, scratch.keys and scratch.in_candidates.
void sort_by_projected_finish(Seconds now, const std::vector<Request*>& active,
                              AllocationScratch& scratch, SchedCache* cache);

}  // namespace sched_detail

}  // namespace vodsim
