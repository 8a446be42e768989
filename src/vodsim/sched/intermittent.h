#pragma once

/// \file intermittent.h
/// \brief Intermittent transmission: streams may be starved while their
/// staging buffers carry playback (paper §3.3's broader class).
///
/// The paper restricts itself to minimum-flow schedulers because "the
/// decision procedure for the optimal intermittent algorithm is impractical
/// to apply in real time". This is a *practical heuristic* member of the
/// intermittent class, used by the E16 ablation to quantify what minimum
/// flow leaves on the table — and what it protects against:
///
///   phase 1 (safety): every request whose staged data covers less than
///     `safety_cover` seconds of playback gets its drain rate first;
///   phase 2 (greedy EFTF): the rest of the link goes earliest-projected-
///     finish-first to any request with buffer headroom, up to its receive
///     cap. Requests with comfortable buffers may receive nothing at all.
///     When the link covers every such request's room, the order cannot
///     matter and the sort is skipped (DESIGN.md §8).
///
/// Both phases read per-stream state from the server's FluidLane: drain
/// rate, staged cover and workahead cap from one vectorized lane pass, the
/// rest from the lane arrays.
///
/// Unlike the minimum-flow family this scheduler tolerates a server whose
/// nominal commitments exceed its link (buffer-aware admission): in a
/// crunch, phase 1 is clipped and playback continuity violations become
/// possible — the engine counts them.

#include "vodsim/sched/scheduler.h"

namespace vodsim {

class IntermittentScheduler final : public BandwidthScheduler {
 public:
  /// \param safety_cover seconds of staged playback below which a request
  ///        is considered urgent and fed before any workahead.
  /// \param order_free_grants when true (the default), phase 2 skips the
  ///        earliest-finish sort whenever the link covers every
  ///        candidate's room (sched_detail::grants_are_order_free). false
  ///        always sorts: the reference the shortcut is pinned against in
  ///        the equivalence tests and micro benchmarks. Rates are
  ///        bit-identical either way.
  explicit IntermittentScheduler(Seconds safety_cover = 10.0,
                                 bool order_free_grants = true);

  using BandwidthScheduler::allocate;
  void allocate(Seconds now, Mbps capacity, const std::vector<Request*>& active,
                std::vector<Mbps>& rates,
                AllocationScratch& scratch) const override;

  std::string name() const override { return "intermittent"; }

  bool minimum_flow() const override { return false; }

  Seconds safety_cover() const { return safety_cover_; }

 private:
  Seconds safety_cover_;
  bool order_free_grants_;
};

}  // namespace vodsim
