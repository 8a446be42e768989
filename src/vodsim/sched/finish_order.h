#pragma once

/// \file finish_order.h
/// \brief Incremental finish-time ordering for the intermittent
/// scheduler's recomputes, seeded from the order the server's lane keeps.
///
/// The intermittent scheduler's workahead phase re-derives the same
/// earliest-finish grant order on almost every recompute: between two
/// allocation passes, one request arrives or departs and everyone else
/// keeps their relative position. The server's FluidLane remembers the
/// previous grant order (FluidLane::grant_order), so the next pass starts
/// from a nearly-sorted permutation and repairs it with an adaptive
/// insertion pass — O(n + inversions) instead of a full O(n log n) resort
/// per event.
///
/// Only that phase sorts. Its greedy pass walks a long prefix of the order
/// (about 310 of 440 candidates per sort on the sharded_ramp benchmark
/// workload), which the repair serves well. EFTF and LFTF walk a mean
/// prefix of 1.2–3.0 candidates out of 15–72 on the other benchmark
/// workloads, so they pick those few straight from the lane instead of
/// sorting at all (FinishTimeScheduler::allocate).
///
/// Bit-exactness contract. The comparator's key — the lane's
/// projected_finish(slot, now) — is recomputed *fresh* on every pass, once
/// per slot in one vectorized lane pass (FluidLane::fill_projected_finish):
/// caching key values across passes would let them drift in ulps
/// from a from-scratch computation, which the determinism goldens forbid.
/// What persists is only the previous *permutation*. Because the order is
/// total and unique (ties broken on request id), every correct sorting
/// procedure produces the same permutation for the same keys: seeding from
/// the remembered order can change how many comparisons run, never their
/// outcome, so the grant order — and with it every downstream FP operation
/// — is byte-identical to the full-resort path.
///
/// Staleness. The remembered order is slots only, and the lane leaves it
/// alone when it appends or removes a slot. A pass seeds from each
/// remembered slot that is still inside the active list and in the current
/// candidate set, then appends the candidates the order missed. A slot
/// that now holds a different request (FluidLane::remove's swap-with-last
/// moved one in, or a new arrival took it) seeds at a stale position,
/// which can cost the repair some shifts but never changes its result: the
/// order is total and unique, so any seed sorts to the same permutation.
/// No invalidation hooks are needed anywhere in the engine.

#include <vector>

#include "vodsim/cluster/request.h"
#include "vodsim/util/units.h"

namespace vodsim {

struct AllocationScratch;

namespace sched_detail {

/// Sorts scratch.order — a candidate slot set of \p active, a server's
/// active list, prepared by the caller — by ascending
/// (FluidLane::projected_finish, id). Keys are computed for every slot by
/// FluidLane::fill_projected_finish into scratch.keys and compared by value.
/// Throws std::invalid_argument as sched_detail::lane_of does.
///
/// The lane's previous grant order (FluidLane::grant_order), when it names
/// a current candidate, seeds the permutation (each remembered slot that
/// is a current candidate, then the rest) and an adaptive insertion pass
/// repairs it; otherwise the full std::sort path runs. Both paths produce
/// the identical unique permutation, which the lane then remembers.
///
/// Clobbers scratch.aux, scratch.keys and scratch.in_candidates.
void sort_by_projected_finish(Seconds now, const std::vector<Request*>& active,
                              AllocationScratch& scratch);

}  // namespace sched_detail

}  // namespace vodsim
