#pragma once

/// \file fluid_lane.h
/// \brief Struct-of-arrays fluid stream state: one lane per server.
///
/// Each server owns a FluidLane holding the fluid-model state of its active
/// streams in parallel arrays indexed by `Request::active_index`. The lane
/// is maintained by Server::attach/detach in lock-step with the active
/// list: attach appends a slot (copying the request's home scalars) and
/// binds the request to the lane; detach copies the hot fields back and
/// mirrors the active list's swap-with-last, so slot order always equals
/// active order.
///
/// Authority model (see DESIGN.md §10):
///   - While a request is attached, the lane slot is authoritative for the
///     hot fields the fluid kernel mutates — remaining data, staging-buffer
///     level, last-update time. Request accessors read through the lane.
///   - Rarely-mutated fields (allocation, paused flag, playback end) stay
///     home-authoritative on the Request and are written through to the
///     lane, so the kernel reads them from contiguous storage while
///     ordinary reads stay branch-free.
///   - While detached (migrating, draining after TxComplete), the home
///     scalars are authoritative and the scalar path integrates them.
///
/// Storage (PR 9): all arrays live in ONE 64-byte-aligned arena, laid out
/// hot-to-cold at a shared stride so every array starts on a cache-line
/// boundary. The batch kernels get aligned, peel-free vector loads; the
/// single-slot scalar path touches a compact block of lines instead of ten
/// scattered heap allocations.
/// The hot block leads with the three kernel-mutated arrays (last-update,
/// remaining, buffer level), then the six kernel-read parameters; the cold
/// tail holds the receive bandwidth, read only by the workahead passes.
/// The intermittent scheduler's urgency latch is lane-authoritative too,
/// but it is one byte per slot in its own array outside the double arena:
/// no kernel reads it, and a byte rather than an eleventh double per
/// stream keeps the lane's footprint where it was.
///
/// One fluid path. A server recompute advances all of its streams with
/// `advance_batch`, which runs the single-stream arithmetic in one
/// vectorizable loop and continues the caller's transmission meter in
/// slot order; a single-request event (pause, resume, shed, migrate, ...)
/// advances its one stream through `advance_one`, the same formulas. Both
/// are bit-identical to advancing the streams one at a time in active
/// order, so the 29 hexfloat determinism goldens pin the batch kernel and
/// the lane plumbing directly.

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <new>
#include <vector>

#include "vodsim/cluster/client.h"
#include "vodsim/util/units.h"

namespace vodsim {

class Request;

/// Single-stream fluid formulas, defined exactly once. The scalar path
/// (Request::advance, StagingBuffer::apply) and the lane's advance_one
/// call these directly; the batch kernel (fluid_lane.cpp) is a
/// branchless re-expression of the same operations, proven bit-identical
/// per stream (the argument is spelled out at the kernel), so restructuring
/// storage cannot change a single floating-point result per stream.
namespace fluid_detail {

/// StagingBuffer::apply's arithmetic on raw level storage: applies inflow
/// and playback outflow, clamps the level into [0, capacity], and returns
/// the megabits by which playback would have underrun (0 within tolerance).
inline Megabits apply_buffer(Megabits& level, Megabits capacity,
                             Megabits inflow, Megabits outflow) {
  level += inflow - outflow;
  Megabits underflow = 0.0;
  if (level < 0.0) {
    underflow = -level;
    level = 0.0;
  }
  if (level > capacity) {
    // Allocation logic never intentionally overfills; anything here is
    // floating-point slop from event-time rounding.
    level = capacity;
  }
  return underflow > StagingBuffer::kLevelTolerance ? underflow : 0.0;
}

/// One stream's fluid step from `last_update` to `now`: the exact
/// arithmetic of Request::advance + StagingBuffer::apply on caller-supplied
/// storage. Returns megabits of playback underflow over the interval.
inline Megabits advance_stream(Seconds now, Seconds& last_update,
                               Megabits& remaining, Megabits& buffer_level,
                               Megabits buffer_capacity, Mbps allocation,
                               bool paused, Seconds arrival,
                               Seconds playback_end, Mbps view_bandwidth) {
  const Seconds dt = now - last_update;
  if (dt <= 0.0) {
    last_update = now;
    return 0.0;
  }

  const Megabits inflow = allocation * dt;
  remaining = std::max(0.0, remaining - inflow);

  // Playback consumes view_bandwidth over the part of [last_update, now]
  // that overlaps [arrival, playback_end] — unless paused. The engine
  // advances exactly at pause/resume instants, so the paused flag is
  // constant across any integrated interval.
  Megabits outflow = 0.0;
  if (!paused) {
    const Seconds play_lo = std::max(last_update, arrival);
    const Seconds play_hi = std::min(now, playback_end);
    if (play_hi > play_lo) outflow = view_bandwidth * (play_hi - play_lo);
  }

  last_update = now;
  return apply_buffer(buffer_level, buffer_capacity, inflow, outflow);
}

}  // namespace fluid_detail

/// Per-server struct-of-arrays fluid state. Slot i belongs to the request
/// with active_index == i on the owning server.
class FluidLane {
 public:
  FluidLane() = default;
  FluidLane(FluidLane&&) = default;
  FluidLane& operator=(FluidLane&&) = default;
  // Deep copies of the arena: Server is copied by the reference oracle,
  // which clones the engine's freshly built world (lanes empty or not, the
  // copy is an independent arena — no aliasing).
  FluidLane(const FluidLane& other) { *this = other; }
  FluidLane& operator=(const FluidLane& other);

  std::size_t size() const { return size_; }

  void reserve(std::size_t n);

  /// Appends \p request's fluid state as the last slot. Reads the home-
  /// authoritative scalars; call before binding the request to this lane.
  void append(const Request& request);

  /// Removes slot \p index by swap-with-last, mirroring Server::detach's
  /// active-list swap so slot order keeps tracking active order.
  void swap_remove(std::size_t index);

  // --- per-slot access (slot = Request::active_index) -------------------
  Megabits remaining(std::size_t i) const { return remaining_[i]; }
  Mbps allocation(std::size_t i) const { return allocation_[i]; }
  Seconds last_update(std::size_t i) const { return last_update_[i]; }
  Megabits buffer_level(std::size_t i) const { return buffer_level_[i]; }
  Mbps receive_bandwidth(std::size_t i) const { return receive_bandwidth_[i]; }

  /// Request::buffer_full on the slot's state (same operands, same
  /// comparison), for the scheduler passes that walk the lane.
  bool buffer_full(std::size_t i) const {
    return buffer_level_[i] >=
           buffer_capacity_[i] - StagingBuffer::kLevelTolerance;
  }

  /// The intermittent scheduler's urgency latch (Request::workahead_urgent),
  /// lane-authoritative while the request is attached.
  bool urgent(std::size_t i) const { return urgent_[i] != 0; }
  void set_urgent(std::size_t i, bool urgent) { urgent_[i] = urgent ? 1 : 0; }

  // Write-through sinks for the home-authoritative fields (Request-driven).
  void set_allocation(std::size_t i, Mbps rate) { allocation_[i] = rate; }
  void set_paused(std::size_t i, bool paused) {
    playing_[i] = paused ? 0.0 : 1.0;
  }
  void set_playback_end(std::size_t i, Seconds end) { playback_end_[i] = end; }

  /// Advancement of one slot (Request::advance on an attached request, for
  /// single-request events): identical formulas to the batch kernel.
  /// Returns playback underflow (Mb).
  Megabits advance_one(std::size_t i, Seconds now) {
    return fluid_detail::advance_stream(
        now, last_update_[i], remaining_[i], buffer_level_[i],
        buffer_capacity_[i], allocation_[i], playing_[i] == 0.0, arrival_[i],
        playback_end_[i], view_bandwidth_[i]);
  }

  /// Aggregate outcome of one batch.
  struct BatchResult {
    std::size_t advanced = 0;  ///< streams with dt > 0
    bool any_underflow = false;
  };

  /// Advances every slot to \p now in one branchless, vectorizable loop.
  /// Per-stream state updates are bit-identical to advance_one (see the
  /// kernel for the proof sketch). \p transmitted is the caller's running
  /// transmission meter, continued in place: each slot's allocation · dt,
  /// clipped to [window_start, window_end] exactly as
  /// Metrics::record_transmission clips it, is added to it in slot order —
  /// the same additions in the same order as one record_transmission call
  /// per stream, so the meter comes out bit-identical too.
  /// \p underflow_scratch is resized to size() and receives
  /// each slot's playback underflow (0 for almost every stream — the
  /// engine walks it only when the result says any_underflow).
  BatchResult advance_batch(Seconds now, Seconds window_start,
                            Seconds window_end, Megabits& transmitted,
                            std::vector<Megabits>& underflow_scratch);

  // --- scheduler-facing batch passes ------------------------------------
  // The allocation hot loops (sched/scheduler.cpp, sched/finish_order.cpp)
  // and the engine's predicted-event retiming evaluate per-stream formulas
  // on every recompute; walking the arrays beats chasing Request pointers.
  // Every pass below is an exact replica of the corresponding Request
  // formula on the same authoritative values, so using them changes no
  // result bit — the determinism goldens pin that.

  /// Fills \p rates with each slot's minimum rate (Request::minimum_rate
  /// semantics: the view bandwidth, or 0 for a paused client with a full
  /// staging buffer) and returns their sum in slot order.
  Mbps sum_minimum_rates(std::vector<Mbps>& rates) const;

  /// Appends to \p out the slots that can absorb workahead
  /// (sched_detail::workahead_eligible semantics), in slot order, and
  /// returns their summed room receive_bandwidth - view_bandwidth (the
  /// room a minimum-flow grant pass sees: an eligible slot's buffer is not
  /// full, so its minimum rate is its view bandwidth), added in slot order.
  Mbps eligible_slots(std::vector<std::size_t>& out) const;

  /// Buffer-aware admission's near-term need (AdmissionController::
  /// feasible): adds the view bandwidth of every slot whose staged cover
  /// (level / view_bandwidth) is below \p horizon onto \p need, in slot
  /// order, and returns the sum — the same additions, in the same order, as
  /// the per-request scan over the active list. \p need must be positive.
  Mbps add_near_term_need(Mbps need, Seconds horizon) const;

  /// The per-slot inputs of the intermittent scheduler's passes, in one
  /// vectorized pass: drain[i] = Request::drain_rate(now), cover[i] =
  /// Request::buffer_cover(), and cap[i] = min(receive_bandwidth,
  /// drain + buffer_headroom / \p absorption_horizon), the most the client
  /// can usefully absorb. Each value is the scalar formula's bit for bit
  /// (the kernel spells out the argument). All three outputs are resized to
  /// size().
  void fill_workahead_inputs(Seconds now, Seconds absorption_horizon,
                             std::vector<Mbps>& drain,
                             std::vector<Seconds>& cover,
                             std::vector<Mbps>& cap) const;

  /// Writes every slot's EFTF/LFTF sort key — Request::projected_finish
  /// exactly: now + remaining / view_bandwidth — into keys[0..size()).
  /// \p keys is resized to size(). One vectorized pass replaces the
  /// per-candidate virtual-free but division-heavy scalar loop in
  /// sort_by_projected_finish.
  void fill_projected_finish(Seconds now, std::vector<Seconds>& keys) const;

  /// Batched predicted-event retiming: computes, for every slot, the three
  /// times the engine's reschedule_predicted_events derives per stream —
  /// transmission complete, buffer full, buffer low — with op-for-op
  /// identical arithmetic (the kernel spells out the argument). A
  /// prediction whose scalar-path gate would reject it is written as +inf,
  /// which is unambiguous: the scalar gates themselves can never keep a
  /// +inf buffer-full/low time (the `t < tx_at` comparison fails on inf),
  /// and transmission-complete liveness is re-derived by the consumer from
  /// the allocation sign, not from the array. \p safety_cover is
  /// SimulationConfig::intermittent_safety_cover. All three outputs are
  /// resized to size().
  void fill_predicted_times(Seconds now, double safety_cover,
                            std::vector<Seconds>& tx_at,
                            std::vector<Seconds>& full_at,
                            std::vector<Seconds>& low_at) const;

 private:
  /// Number of parallel arrays in the arena (hot-to-cold order below).
  static constexpr std::size_t kArrays = 10;

  /// Grows the arena to hold at least \p min_capacity slots per array and
  /// rebinds the named views. Stride is rounded to 8 doubles so every
  /// array keeps 64-byte alignment.
  void grow(std::size_t min_capacity);

  struct AlignedFree {
    void operator()(double* p) const {
      ::operator delete[](p, std::align_val_t{64});
    }
  };

  std::size_t size_ = 0;
  std::size_t capacity_ = 0;  ///< slots per array == arena stride in doubles
  std::unique_ptr<double[], AlignedFree> storage_;

  // Named views into storage_ at offsets k * capacity_, in arena order.
  // Hot, kernel-mutated:
  double* last_update_ = nullptr;
  double* remaining_ = nullptr;
  double* buffer_level_ = nullptr;
  // Hot, kernel-read:
  double* allocation_ = nullptr;
  double* buffer_capacity_ = nullptr;
  double* view_bandwidth_ = nullptr;
  double* arrival_ = nullptr;
  double* playback_end_ = nullptr;
  /// Playback-drain mask: 1.0 while viewing, 0.0 while paused. Stored as a
  /// double so the batch kernel applies it as a multiply (x·1.0 and x·0.0
  /// are bit-exact stand-ins for the scalar path's `if (!paused)`) and the
  /// loop stays free of mixed-width loads that block vectorization.
  double* playing_ = nullptr;
  // Cold tail: read only by the workahead passes, never by the fluid or
  // retiming kernels.
  double* receive_bandwidth_ = nullptr;

  /// Urgency latch per slot (0/1), outside the arena; sized with size_.
  std::vector<std::uint8_t> urgent_;
};

}  // namespace vodsim
