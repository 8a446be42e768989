#pragma once

/// \file scheduler.h
/// \brief Minimum-flow bandwidth allocation (paper §3.3).
///
/// A minimum-flow scheduler always gives every unfinished request at least
/// its view bandwidth; what distinguishes members of the family is how they
/// spend the remaining slack on workahead into client staging buffers:
///
///   - EFTF (the paper's): earliest projected finishing time first —
///     optimal among minimum-flow schedulers when client receive bandwidth
///     is unbounded (Theorem 1).
///   - Continuous: no workahead at all (the classical continuous-
///     transmission baseline; equivalent to 0% staging).
///   - ProportionalShare: slack split evenly (water-filling) across
///     eligible requests.
///   - LFTF: latest projected finishing time first — the adversarial
///     mirror image of EFTF, used to bound how much the ordering matters.
///
/// A request is eligible for workahead iff its staging buffer has headroom
/// and its client can receive faster than the view bandwidth.
///
/// Schedulers allocate one server's active list and read every per-stream
/// quantity from that server's FluidLane (slot i holds active[i]); a
/// Request is dereferenced only for its id (exact order-key ties), its
/// urgency latch and trace attribution.

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "vodsim/cluster/request.h"
#include "vodsim/obs/trace.h"
#include "vodsim/util/enum_names.h"
#include "vodsim/util/units.h"

namespace vodsim {

/// One EFTF/LFTF grant candidate past the scanned picks
/// (FinishTimeScheduler::allocate): its order key, its request id (the
/// tie-break) and its slot.
struct GrantCandidate {
  std::int64_t key;
  RequestId id;
  std::size_t slot;
};

/// Reusable working buffers for BandwidthScheduler::allocate. The engine
/// reallocates on every event, so the scheduler must not construct fresh
/// vectors per call: the caller owns one AllocationScratch and threads it
/// through, and after a brief warmup every allocate() reuses its capacity —
/// the steady-state hot path performs no heap allocations.
struct AllocationScratch {
  std::vector<std::size_t> order;  ///< workahead candidates, in grant order
  std::vector<std::size_t> aux;    ///< second working set (water-filling pool,
                                   ///< urgent list, ...)
  std::vector<Seconds> keys;       ///< projected-finish keys, by active index
  std::vector<Mbps> room;          ///< per-candidate grant room, by active index
  /// Grant-order keys (FluidLane::fill_grant_inputs), by active index; only
  /// EFTF and LFTF read them.
  std::vector<std::int64_t> order_keys;
  std::vector<GrantCandidate> grant_heap;  ///< EFTF/LFTF's long-prefix heap
  // Per-slot intermittent-scheduler inputs from one lane pass
  // (FluidLane::fill_workahead_inputs), by active index.
  std::vector<Mbps> drain;         ///< playback drain rate
  std::vector<Seconds> cover;      ///< seconds of playback staged
  std::vector<Mbps> cap;           ///< most the client can usefully absorb
  std::vector<std::uint8_t> in_candidates;  ///< membership flags for seeding
                                            ///< from the lane's grant order
  /// The executing context's trace recorder (observe-only; null = off).
  /// Schedulers emit pathology signals through it under kTraceSched —
  /// today the intermittent scheduler's urgency-latch transitions.
  TraceRecorder* trace = nullptr;
};

/// Strategy interface: computes per-request rates for one server.
class BandwidthScheduler {
 public:
  virtual ~BandwidthScheduler() = default;

  /// Computes allocations for \p active — a server's active list
  /// (Server::active_requests()), every request advanced to \p now — under
  /// total link \p capacity; any other vector throws std::invalid_argument
  /// (sched_detail::lane_of). Writes one rate per request into \p rates
  /// (resized to active.size()); \p scratch holds reusable working buffers
  /// (contents are clobbered). The intermittent scheduler seeds its
  /// workahead order from the lane's previous grant order
  /// (FluidLane::grant_order) and writes the new order back, turning the
  /// per-event resort into a nearly-sorted repair. The other schedulers
  /// leave that order alone: EFTF and LFTF pick their few grants straight
  /// from the lane (FinishTimeScheduler), and the baselines have no sorted
  /// grant order.
  ///
  /// Postconditions (enforced by all implementations, checked in tests):
  ///   rates[i] >= active[i]->view_bandwidth()   (minimum flow)
  ///   rates[i] <= active[i]->receive_bandwidth()
  ///   sum(rates) <= capacity (+ tolerance)
  /// And: results are bit-identical whatever grant order the lane holds —
  /// cleared, warm or stale (pinned by sched_test and the determinism
  /// goldens). The reference oracle clears the order before every pass, so
  /// its differential test compares the engine's seeded repair against the
  /// full sort.
  virtual void allocate(Seconds now, Mbps capacity,
                        const std::vector<Request*>& active,
                        std::vector<Mbps>& rates,
                        AllocationScratch& scratch) const = 0;

  /// Convenience overload with a throwaway scratch, for tests and one-shot
  /// callers. Hot paths must hold a persistent AllocationScratch instead.
  /// (Derived classes re-export this via `using BandwidthScheduler::allocate`.)
  void allocate(Seconds now, Mbps capacity, const std::vector<Request*>& active,
                std::vector<Mbps>& rates) const {
    AllocationScratch scratch;
    allocate(now, capacity, active, rates, scratch);
  }

  virtual std::string name() const = 0;

  /// True for members of the minimum-flow family (§3.3): every unfinished
  /// request is guaranteed at least its minimum rate in every allocation.
  /// The intermittent scheduler returns false — deliberate starvation is
  /// its defining feature — which tells the invariant auditor not to assert
  /// the per-request lower bound.
  virtual bool minimum_flow() const { return true; }
};

/// Scheduler registry keys (used by engine::Config and the CLI).
enum class SchedulerKind { kEftf, kContinuous, kProportional, kLftf, kIntermittent };

inline constexpr EnumName kSchedulerNames[] = {
    {"eftf", "vodsim::SchedulerKind::kEftf"},
    {"continuous", "vodsim::SchedulerKind::kContinuous"},
    {"proportional", "vodsim::SchedulerKind::kProportional"},
    {"lftf", "vodsim::SchedulerKind::kLftf"},
    {"intermittent", "vodsim::SchedulerKind::kIntermittent"},
};
constexpr std::span<const EnumName> enum_names(SchedulerKind) { return kSchedulerNames; }

/// Factory. Throws std::invalid_argument on an unknown kind. \p safety_cover
/// is the intermittent scheduler's (Config::intermittent_safety_cover); the
/// other kinds ignore it.
std::unique_ptr<BandwidthScheduler> make_scheduler(SchedulerKind kind,
                                                   Seconds safety_cover = 10.0);

/// Parses "eftf" | "continuous" | "proportional" | "lftf" | "intermittent".
SchedulerKind scheduler_kind_from_string(const std::string& name);
std::string to_string(SchedulerKind kind);

namespace sched_detail {

/// The FluidLane of the server whose active list \p active is — the one
/// input every scheduler accepts. An empty vector gets an empty lane. Any
/// other vector must be the very request array of its front request's lane
/// (Server::active_requests, FluidLane::requests): an identity test, so a
/// copy, even an equal one, throws std::invalid_argument.
const FluidLane& lane_of(const std::vector<Request*>& active);

/// The slack \p capacity leaves after the minimum-flow commitments
/// \p committed (FluidLane::GrantSums::committed; 0 when they use it all).
/// Asserts the commitments fit.
Mbps slack_after(Mbps capacity, Mbps committed);

/// The order-free grant rule (DESIGN.md §8). A greedy pass hands each
/// candidate in turn min(left, room) and subtracts it from `left`. When
/// \p slack covers the summed positive \p room_sum with a relative margin,
/// every running `left` exceeds the next room by far more than the
/// rounding the subtractions so far can have accumulated (about n ulps of
/// slack for n candidates, against a margin of 1e-9 · slack — exact for
/// fewer than ~4 million candidates per server), so min(left, room) ==
/// room bitwise for every candidate and the pass grants each exactly its
/// room in any order. The grant order — and the sort or the picks that
/// produce it — then cannot change a result bit.
inline bool grants_are_order_free(Mbps room_sum, Mbps slack) {
  return room_sum <= slack * (1.0 - 1e-9);
}

}  // namespace sched_detail

}  // namespace vodsim
