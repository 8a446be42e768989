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
/// stream keeps the lane's footprint where it was. The predicted-event
/// keys (DESIGN.md §8) are lane-authoritative and outside the arena too.
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
#include <array>
#include <bit>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <memory>
#include <new>
#include <vector>

#include "vodsim/cluster/client.h"
#include "vodsim/des/event_queue.h"
#include "vodsim/util/units.h"

namespace vodsim {

class Request;

/// Single-stream fluid formulas, defined exactly once. The scalar path
/// (Request::advance, StagingBuffer::apply) and the lane's advance_one
/// call advance_stream directly; the advance kernel (fluid_lane.cpp) is a
/// branchless re-expression of the same operations, proven bit-identical
/// per stream (the argument is spelled out at the kernel), so restructuring
/// storage cannot change a single floating-point result per stream. The
/// sort-key and predicted-event kernels loop over projected_finish and
/// predicted_times, and the lane's per-slot projected_finish/
/// predicted_times apply the same functions to one slot.
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

/// Request::buffer_full's test on a staging buffer's state: full within
/// StagingBuffer::kLevelTolerance.
inline bool buffer_full(Megabits level, Megabits capacity) {
  return level >= capacity - StagingBuffer::kLevelTolerance;
}

/// The finish-time order key (EFTF, LFTF, the intermittent scheduler's
/// workahead phase): the time the stream would finish if sent at exactly
/// its view bandwidth from \p now on. Since all videos share one view
/// bandwidth, smaller remaining data = earlier projected finish.
inline Seconds projected_finish(Seconds now, Megabits remaining,
                                Mbps view_bandwidth) {
  return now + remaining / view_bandwidth;
}

/// The three event times the engine predicts for a streaming request
/// (DESIGN.md §8); +inf = no event.
struct PredictedTimes {
  Seconds tx_complete;
  Seconds buffer_full;
  Seconds buffer_low;
};

/// One stream's predicted event times under its current allocation
/// \p rate: transmission complete (remaining / rate from now), buffer full
/// (headroom / surplus while receiving faster than playback drains) and
/// buffer low (the staged data reaching \p safety_cover seconds of
/// playback while draining faster than receiving — the intermittent
/// scheduler's wake-up). A buffer event is kept only if it precedes
/// transmission complete. \p playing is the lane's 1.0/0.0 playback mask.
///
/// Bit-identical to the branchy gates it replaces, term by term:
///   - tx = now + remaining / rate for rate > 0; a rate <= 0 stream gets
///     +inf, and a consumer re-derives liveness from the allocation sign,
///     never from this time (a pathological tiny rate could divide to +inf
///     yet still mean "transmitting").
///   - The drain rate is view_bandwidth when playing and inside [arrival,
///     playback_end), else 0. Here that branch becomes view_bandwidth ·
///     in_window_mask · playing: x·1.0 == x and x·0.0 == +0.0 bitwise
///     (view bandwidths are nonnegative, never -0), and surplus = rate -
///     0.0 == rate bitwise, so surplus is exact in every case.
///   - full = now + headroom / surplus with the staging buffer's headroom
///     `capacity > level ? capacity - level : 0` verbatim; kept only under
///     the gate (surplus > 1e-12, not buffer full, full < tx). An unkept
///     stream's division may produce inf/NaN — discarded by the same gate
///     a branchy version short-circuits on.
///   - low = now + (level - threshold) / (0.0 - surplus); for any stream
///     the gate keeps, surplus < -1e-12 is strictly negative, where
///     0.0 - surplus is bit-equal to -surplus (they can differ only at
///     surplus == ±0, which the gate excludes). Written without unary
///     negate because that defeats GCC's if-conversion.
///   - The buffer-low gate needs surplus < -1e-12, which excludes the
///     buffer-full gate's surplus > 1e-12, so evaluating both gates
///     unconditionally preserves an if/else-if.
/// The +inf encoding is unambiguous: a kept full/low time is finite (the
/// `< tx` comparison fails on inf), so finiteness is its liveness.
///
/// The short-circuit gates are deliberate. The per-slot caller
/// (FluidLane::predicted_times, every sparse retime) compiles them to
/// branches and usually runs one division; the batch kernel vectorizes
/// them only in its AVX-512 clone, whose masked operations if-convert the
/// guarded divisions, and runs scalar in the SSE2 and AVX2 clones. A
/// branch-free form (unconditional divisions, std::max/std::min selects)
/// vectorizes in every clone but more than doubles the per-slot cost, and
/// per-slot retimes outnumber batched ones on every benchmark workload but
/// sharded_ramp (DESIGN.md §10).
inline PredictedTimes predicted_times(Seconds now, double safety_cover,
                                      Megabits remaining, Mbps rate,
                                      Megabits level, Megabits capacity,
                                      Mbps view_bandwidth, Seconds arrival,
                                      Seconds playback_end, double playing) {
  constexpr Seconds kNever = std::numeric_limits<Seconds>::infinity();
  const Seconds tx_at = rate > 0.0 ? now + remaining / rate : kNever;

  const double in_window =
      (now >= arrival) && (now < playback_end) ? 1.0 : 0.0;
  const Mbps drain = view_bandwidth * in_window * playing;
  const Mbps surplus = rate - drain;

  const bool full = buffer_full(level, capacity);
  const Megabits headroom = capacity > level ? capacity - level : 0.0;
  const Seconds full_at = now + headroom / surplus;

  const Megabits threshold = safety_cover * view_bandwidth;
  const Seconds low_at = now + (level - threshold) / (0.0 - surplus);
  return {tx_at,
          (surplus > 1e-12 && !full && full_at < tx_at) ? full_at : kNever,
          (surplus < -1e-12 &&
           level > threshold + StagingBuffer::kLevelTolerance && low_at < tx_at)
              ? low_at
              : kNever};
}

}  // namespace fluid_detail

/// The three events the engine predicts per streaming request (DESIGN.md
/// §8), in the order each recompute takes their seqs.
enum class Prediction : std::uint8_t { kTxComplete, kBufferFull, kBufferLow };

/// One stream's prediction keys, indexed by Prediction (kNoEventKey = none).
using PredictionKeys = std::array<EventKey, 3>;
inline constexpr PredictionKeys kNoPredictions{kNoEventKey, kNoEventKey,
                                               kNoEventKey};

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
    return fluid_detail::buffer_full(buffer_level_[i], buffer_capacity_[i]);
  }

  /// Slot \p i's projected finish (fluid_detail::projected_finish).
  Seconds projected_finish(std::size_t i, Seconds now) const {
    return fluid_detail::projected_finish(now, remaining_[i],
                                          view_bandwidth_[i]);
  }

  /// Slot \p i's predicted event times (fluid_detail::predicted_times):
  /// the per-slot form of fill_predicted_times, for retiming a few streams.
  fluid_detail::PredictedTimes predicted_times(std::size_t i, Seconds now,
                                               double safety_cover) const {
    return fluid_detail::predicted_times(
        now, safety_cover, remaining_[i], allocation_[i], buffer_level_[i],
        buffer_capacity_[i], view_bandwidth_[i], arrival_[i], playback_end_[i],
        playing_[i]);
  }

  /// The intermittent scheduler's urgency latch (Request::workahead_urgent),
  /// lane-authoritative while the request is attached.
  bool urgent(std::size_t i) const { return urgent_[i] != 0; }
  void set_urgent(std::size_t i, bool urgent) { urgent_[i] = urgent ? 1 : 0; }

  // --- predicted-event keys (lane-authoritative; DESIGN.md §8) -----------
  // Each slot keeps the (time, seq) key of each of its three predictions
  // (kNoEventKey = none), plus the time of the earliest of them in a dense
  // array, so the engine finds a server's next prediction with one
  // vectorized pass. Nothing in any event queue stands for a single
  // prediction: the engine arms one timer per server at the lane's
  // earliest key.
  const PredictionKeys& predictions(std::size_t i) const {
    return predictions_[i];
  }
  /// The earliest of slot \p i's keys (kNoEventKey when it has none).
  EventKey earliest_prediction(std::size_t i) const {
    const PredictionKeys& keys = predictions_[i];
    return std::min({keys[0], keys[1], keys[2]});
  }
  /// Which of slot \p i's predictions holds its earliest key.
  Prediction earliest_kind(std::size_t i) const;
  /// Writes a slot's keys; returns its earliest.
  EventKey set_predictions(std::size_t i, const PredictionKeys& keys) {
    predictions_[i] = keys;
    return refresh_earliest(i);
  }
  /// Drops one prediction of slot \p i.
  void clear_prediction(std::size_t i, Prediction kind) {
    predictions_[i][static_cast<std::size_t>(kind)] = kNoEventKey;
    refresh_earliest(i);
  }
  /// The slot holding the lane's earliest live key, or size() when no slot
  /// holds one.
  std::size_t earliest_slot() const;

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
  // The schedulers (sched/) read every per-stream quantity from the lane of
  // the server whose active list they allocate, and the engine's
  // predicted-event retiming reads it here too; walking the arrays beats
  // chasing Request pointers. The passes read the same authoritative values
  // the Request accessors return, and the sort keys and predicted times
  // come from the single-source fluid_detail formulas, so the batched and
  // per-slot forms agree bit for bit — the determinism goldens pin that.

  /// Fills \p rates with each slot's minimum rate (Request::minimum_rate
  /// semantics: the view bandwidth, or 0 for a paused client with a full
  /// staging buffer) and returns their sum in slot order.
  Mbps sum_minimum_rates(std::vector<Mbps>& rates) const;

  /// Sums of one fill_grant_inputs pass, each added in slot order.
  struct GrantSums {
    Mbps committed = 0.0;  ///< the minimum rates, as sum_minimum_rates
    Mbps room = 0.0;       ///< the eligible rooms, as eligible_slots
  };

  /// EFTF/LFTF's inputs (FinishTimeScheduler::allocate) in one vectorized
  /// pass over the lane. Per slot it writes:
  ///   - minimum[i]: its minimum rate, as sum_minimum_rates writes it;
  ///   - room[i]: receive_bandwidth - view_bandwidth when the slot is
  ///     eligible for workahead (eligible_slots' test), else +0.0;
  ///   - order_keys[i]: its grant-order key when eligible, else INT64_MAX.
  ///     The key is the IEEE-754 bit pattern of projected_finish(i, now),
  ///     complemented (~) when !\p earliest_first. Projected finishes of
  ///     eligible slots are positive doubles, whose bit patterns order
  ///     exactly like their values, and ~ reverses that order exactly; so
  ///     the least key is the earliest finish for EFTF and the latest for
  ///     LFTF, and INT64_MAX sorts after every eligible slot.
  /// Then one scalar loop adds the minimum rates and the rooms in slot
  /// order — the additions sum_minimum_rates and eligible_slots make (an
  /// ineligible slot's +0.0 leaves the room sum's bits unchanged) — and
  /// returns both sums. All three outputs are resized to size().
  GrantSums fill_grant_inputs(Seconds now, bool earliest_first,
                              std::vector<Mbps>& minimum,
                              std::vector<Mbps>& room,
                              std::vector<std::int64_t>& order_keys) const;

  /// Fills \p out (cleared first; its capacity is reused) with the slots
  /// that can absorb workahead — staging buffer not full, a receive link
  /// faster than playback, data left to send — in slot order, and returns
  /// their summed room receive_bandwidth - view_bandwidth (the room a
  /// minimum-flow grant pass sees: an eligible slot's buffer is not full,
  /// so its minimum rate is its view bandwidth), added in slot order.
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

  /// Writes every slot's projected_finish into keys[0..size()). \p keys is
  /// resized to size(). One vectorized pass replaces
  /// sort_by_projected_finish's per-candidate division loop when the
  /// candidates cover most of the lane.
  void fill_projected_finish(Seconds now, std::vector<Seconds>& keys) const;

  /// Batched predicted-event retiming: every slot's predicted_times in one
  /// vectorized pass (+inf = no event; see fluid_detail::predicted_times).
  /// \p safety_cover is SimulationConfig::intermittent_safety_cover. All
  /// three outputs are resized to size().
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
  /// Predicted-event keys per slot; outside the arena, sized with size_.
  std::vector<PredictionKeys> predictions_;
  /// Per slot, the time of its earliest key as an IEEE-754 bit pattern.
  /// Key times are nonnegative (or +inf), and such doubles order exactly
  /// like their bit patterns read as signed integers — whose min reduction
  /// vectorizes where a double min does not. Sized with size_.
  std::vector<std::int64_t> earliest_time_bits_;

  EventKey refresh_earliest(std::size_t i) {
    const EventKey earliest = earliest_prediction(i);
    assert(earliest.time >= 0.0);
    earliest_time_bits_[i] = std::bit_cast<std::int64_t>(earliest.time);
    return earliest;
  }
};

/// The least of \p keys (INT64_MAX when empty): the vectorized min pass
/// behind FluidLane::earliest_slot, over fill_grant_inputs' order keys.
std::int64_t least_order_key(const std::vector<std::int64_t>& keys);

}  // namespace vodsim
